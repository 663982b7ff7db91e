#include "swap_machine.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace swapgame::proto {

namespace {

using chain::Hours;

/// Leg k is named by the k-th letter in audit lines: the paper's Chain_a
/// and Chain_b (expiries t_a, t_b) for the 2-cycle.
char leg_letter(std::size_t leg) { return static_cast<char>('a' + leg % 26); }

}  // namespace

SwapMachine::SwapMachine(const SwapGraph& graph, const SwapSetup& setup,
                         const PricePath& path)
    : graph_(graph), setup_(&setup), path_(&path) {
  const std::size_t n = graph.legs.size();
  if (n > 2) heap_legs_ = std::make_unique<LegRun[]>(n);
  legs_ = std::span<LegRun>(n > 2 ? heap_legs_.get() : inline_legs_, n);
  for (std::size_t k = 0; k < n; ++k) {
    const SwapLeg& spec = graph.legs[k];
    LegRun& leg = legs_[k];
    leg.spec = &spec;
    // Leg k draws its latency and fault streams from the setup's seeds
    // XOR k times a per-stream constant, so leg 0 uses the seeds as given.
    leg.latency_rng =
        math::Xoshiro256(setup.latency_seed ^ (k * 0x517CC1B727220A95ULL));
    chain::Ledger& ledger = leg.ledger.emplace(spec.chain, queue_,
                                               &leg.latency_rng);
    ledger.create_account(party(spec.payer).name,
                          chain::Amount::from_tokens(spec.payer_balance));
    ledger.create_account(party(spec.payee).name,
                          chain::Amount::from_tokens(spec.payee_balance));
    leg.initial_supply = ledger.total_supply();
    // Injectors are attached only when their model is active, so a
    // zero-fault run is byte-identical to one without any fault plumbing.
    if (spec.faults != nullptr && spec.faults->any()) {
      ledger.set_fault_injector(&leg.injector.emplace(
          *spec.faults, setup.faults.seed ^ (k * 0x9E3779B97F4A7C15ULL)));
    }
    if (setup.audit) leg.auditor.attach(ledger);
    if (setup.trace != nullptr) {
      ledger.set_trace(setup.trace);
      if (leg.injector) {
        leg.injector->set_trace(setup.trace, chain::to_string(spec.chain.id));
      }
    }
  }
  if (setup.metrics != nullptr) queue_.set_metrics(setup.metrics);
  if (setup.trace != nullptr) {
    setup.trace->record(0.0, obs::TraceKind::kRunStart,
                        {{"p_star", setup.p_star},
                         {"collateral", setup.collateral},
                         {"premium", setup.premium},
                         {"t_a", graph.legs.front().expiry},
                         {"t_b", graph.legs.back().expiry},
                         {"expiry_margin", setup.expiry_margin},
                         {"faults", setup.faults.any()}});
  }
}

void SwapMachine::run() {
  initiate();
  queue_.run();  // drain confirmations, refunds and oracle releases
  reconcile_outcome();
}

double SwapMachine::balance(std::size_t leg, std::size_t party) const {
  return legs_[leg].ledger->balance(graph_.parties[party].name).tokens();
}

const chain::HtlcContract* SwapMachine::contract(std::size_t leg) const {
  const LegRun& run = legs_[leg];
  if (!run.deploy) return nullptr;
  const chain::Transaction& tx = run.ledger->transaction(run.deploy->id);
  if (!tx.created_contract || !run.ledger->has_htlc(*tx.created_contract)) {
    return nullptr;
  }
  return &run.ledger->htlc(*tx.created_contract);
}

bool SwapMachine::conservation_ok() const {
  return std::all_of(legs_.begin(), legs_.end(), [](const LegRun& leg) {
    return leg.ledger->total_supply() == leg.initial_supply;
  });
}

void SwapMachine::report(SwapResult& result) {
  result.conservation_ok = conservation_ok();
  std::uint64_t dropped = 0;
  for (const LegRun& leg : legs_) {
    if (leg.injector) dropped += leg.injector->dropped();
    for (const chain::InvariantAuditor::Violation& v :
         leg.auditor.violations()) {
      result.invariant_violations.push_back(
          "[t=" + std::to_string(v.at) + "h tx " +
          std::to_string(v.tx.value) + "] " + v.what);
    }
  }
  result.invariants_ok = result.invariant_violations.empty();
  result.dropped_txs = static_cast<int>(dropped);
  result.rebroadcasts = rebroadcasts_;
}

agents::DecisionContext SwapMachine::context() const {
  return {path_->price_at(queue_.now()), setup_->p_star, queue_.now()};
}

/// Consults party `who` and records the decision epoch with its full
/// game-theoretic context: who moved, at which stage, what they saw and
/// the closed-form rule behind the action (computed on traced runs only).
model::Action SwapMachine::decide(std::size_t who, agents::Stage stage) {
  const agents::DecisionContext ctx = context();
  agents::Strategy& strategy = *party(who).strategy;
  const model::Action action = strategy.decide(stage, ctx);
  if (setup_->trace != nullptr) {
    setup_->trace->record(queue_.now(), obs::TraceKind::kDecision,
                          {{"party", party(who).name.value},
                           {"stage", agents::to_string(stage)},
                           {"strategy", std::string(strategy.name())},
                           {"action", std::string(model::to_string(action))},
                           {"price", ctx.price},
                           {"p_star", ctx.p_star},
                           {"rule", strategy.decision_rule(stage)}});
  }
  return action;
}

// --- Fault-tolerant broadcasting. ------------------------------------------

SwapMachine::TrackedTx& SwapMachine::submit_tracked(
    std::optional<TrackedTx>& slot, chain::Ledger& chain,
    chain::TxPayload payload, Hours deadline) {
  TrackedTx& tracked = slot.emplace();
  tracked.id = chain.submit(payload);
  watch_broadcast(chain, &tracked, std::move(payload), deadline, 0);
  return tracked;
}

/// The sender detects a drop once the transaction fails to appear in the
/// mempool (one visibility period after broadcast) and re-broadcasts with
/// exponential backoff until `deadline` (the relevant HTLC expiry, past
/// which a landing would be useless anyway).
void SwapMachine::watch_broadcast(chain::Ledger& chain, TrackedTx* tracked,
                                  chain::TxPayload payload, Hours deadline,
                                  int attempt) {
  if (chain.transaction(tracked->id).status != chain::TxStatus::kDropped) {
    return;
  }
  const Hours eps = chain.params().mempool_visibility;
  const Hours backoff = eps * static_cast<double>(1 << std::min(attempt, 4));
  const Hours retry_at = queue_.now() + eps + backoff;
  if (retry_at >= deadline) {
    tracked->abandoned = true;
    log("broadcast lost and deadline too close to retry; giving up");
    if (setup_->trace != nullptr) {
      setup_->trace->record(queue_.now(), obs::TraceKind::kBroadcastAbandoned,
                            {{"chain", chain::to_string(chain.params().id)},
                             {"attempts", tracked->rebroadcasts},
                             {"deadline", deadline}});
    }
    return;
  }
  queue_.schedule_at(
      retry_at, [this, &chain, tracked, payload = std::move(payload), deadline,
                 attempt]() mutable {
        tracked->id = chain.submit(payload);
        ++tracked->rebroadcasts;
        ++rebroadcasts_;
        log("re-broadcast after drop (attempt ", attempt + 1, ")");
        if (setup_->trace != nullptr) {
          setup_->trace->record(queue_.now(), obs::TraceKind::kRebroadcast,
                                {{"chain", chain::to_string(chain.params().id)},
                                 {"tx", tracked->id.value},
                                 {"attempt", attempt + 1}});
        }
        watch_broadcast(chain, tracked, std::move(payload), deadline,
                        attempt + 1);
      });
}

/// Schedules `step` for when `tracked` (on leg `leg`) is confirmed (or
/// failed) / mempool-visible.  Without a drop this is exactly
/// max(earliest, ready time).  While re-broadcasts are in flight it polls
/// each eps+tau; once the leg's expiry passes (or re-broadcasting was
/// abandoned) it runs the step regardless, letting the normal
/// verification-failure / timeout paths classify the wreckage.
void SwapMachine::advance_when(WaitFor what, std::size_t leg,
                               const TrackedTx& tracked, Hours earliest,
                               std::function<void()> step) {
  const chain::Ledger& chain = chain_of(leg);
  const chain::Transaction& tx = chain.transaction(tracked.id);
  if (tx.status != chain::TxStatus::kDropped) {
    const Hours ready =
        what == WaitFor::kConfirmation ? tx.confirmed_at : tx.visible_at;
    queue_.schedule_at(std::max({earliest, ready, queue_.now()}),
                       std::move(step));
    return;
  }
  if (tracked.abandoned || queue_.now() >= graph_.legs[leg].expiry) {
    queue_.schedule_at(std::max(earliest, queue_.now()), std::move(step));
    return;
  }
  const Hours recheck = queue_.now() + chain.params().mempool_visibility +
                        chain.params().confirmation_time;
  queue_.schedule_at(recheck, [this, what, leg, tracked = &tracked, earliest,
                               step = std::move(step)]() mutable {
    advance_when(what, leg, *tracked, earliest, std::move(step));
  });
}

/// True (and the epoch re-scheduled for the window's end) when party `who`
/// is inside one of its offline windows.
template <class Step>
bool SwapMachine::defer_while_offline(std::size_t who, Step step) {
  if (party(who).offline == nullptr) return false;
  const Hours online =
      chain::first_time_outside(*party(who).offline, queue_.now());
  if (online <= queue_.now()) return false;
  log(party(who).name.value, " is offline; epoch deferred to t=",
      std::to_string(online));
  if (setup_->trace != nullptr) {
    setup_->trace->record(
        queue_.now(), obs::TraceKind::kOffline,
        {{"party", party(who).name.value}, {"until", online}});
  }
  queue_.schedule_at(online, std::move(step));
  return true;
}

// --- The protocol epochs. ---------------------------------------------------

void SwapMachine::initiate() {
  const bool collateral = setup_->collateral > 0.0;
  if (defer_while_offline(0, [this] { initiate(); })) return;
  if (collateral && defer_while_offline(1, [this] { initiate(); })) return;
  const model::Action leader_move = decide(0, agents::Stage::kT1Initiate);
  // Section IV: with collateral, engagement is a simultaneous decision.
  const model::Action partner_move =
      collateral ? decide(1, agents::Stage::kT1Initiate) : model::Action::kCont;
  if (leader_move == model::Action::kStop ||
      partner_move == model::Action::kStop) {
    outcome_ = SwapOutcome::kNotInitiated;
    log("t1: swap not initiated (", party(0).name.value, "=",
        model::to_string(leader_move), ", ", party(1).name.value, "=",
        model::to_string(partner_move), ")");
    return;
  }

  if (collateral) {
    const chain::Amount q = chain::Amount::from_tokens(setup_->collateral);
    chain_of(0).charge_collateral(party(0).name, q);
    chain_of(0).charge_collateral(party(1).name, q);
    oracle_.emplace(queue_, chain_of(0), chain_of(1), party(0).name,
                    party(1).name, q);
    log("t1: oracle charged both collaterals (", q.to_string(),
        " token-a each)");
  }

  math::Xoshiro256 rng(setup_->secret_seed);
  secret_ = crypto::Secret::generate(rng);
  hash_ = secret_.commitment();
  if (oracle_) oracle_->arm(hash_, graph_.schedule);

  const SwapLeg& first = graph_.legs[0];
  submit_tracked(legs_[0].deploy, chain_of(0),
                 chain::DeployHtlcPayload{
                     party(0).name, party(first.payee).name,
                     chain::Amount::from_tokens(first.amount), hash_,
                     first.expiry},
                 first.expiry);
  log("t1: ", party(0).name.value, " deployed HTLC on Chain_", leg_letter(0),
      " (amount=", std::to_string(first.amount), ", expiry=t_",
      leg_letter(0), "=", std::to_string(first.expiry),
      ", hash=", hash_.to_hex().substr(0, 16), "...)");
  if (setup_->premium > 0.0) {
    // Han et al. premium: an inverse escrow that refunds Alice on reveal
    // and pays Bob if she waives after commitment.  It is cancelled back
    // to Alice if Bob never locks (cancel_premium_escrow).
    submit_tracked(premium_escrow_, chain_of(0),
                   chain::DeployHtlcPayload{
                       party(0).name, party(1).name,
                       chain::Amount::from_tokens(setup_->premium), hash_,
                       first.expiry, chain::HtlcKind::kInverse},
                   first.expiry);
    log("t1: ", party(0).name.value, " escrowed premium ",
        std::to_string(setup_->premium), " in an inverse HTLC on Chain_",
        leg_letter(0));
  }
  after_lock(0);
}

void SwapMachine::after_lock(std::size_t leg) {
  const bool last = leg + 1 == legs_.size();
  // The step captures only [this, leg], which fits std::function's inline
  // buffer: scheduling it allocates nothing.
  advance_when(WaitFor::kConfirmation, leg, *legs_[leg].deploy,
               last ? graph_.schedule.t3 : graph_.schedule.t2, [this, leg] {
                 if (leg + 1 < legs_.size()) {
                   lock(leg + 1);
                 } else if (graph_.witness_holds_secret) {
                   witness_claims();
                 } else {
                   reveal();
                 }
               });
}

void SwapMachine::lock(std::size_t leg) {
  const SwapLeg& spec = graph_.legs[leg];
  if (defer_while_offline(spec.payer, [this, leg] { lock(leg); })) return;
  const std::string& name = party(spec.payer).name.value;
  if (!verify(leg - 1)) {
    outcome_ = SwapOutcome::kBobDeclinedT2;
    log("t2: ", party(graph_.legs[leg - 1].payer).name.value,
        "'s contract failed verification; ", name, " walks away");
    cancel_premium_escrow();
    return;
  }
  if (decide(spec.payer, agents::Stage::kT2Lock) == model::Action::kStop) {
    outcome_ = SwapOutcome::kBobDeclinedT2;
    log("t2: ", name, " declined to lock (price=",
        std::to_string(path_->price_at(queue_.now())), ")");
    cancel_premium_escrow();
    return;
  }
  submit_tracked(legs_[leg].deploy, chain_of(leg),
                 chain::DeployHtlcPayload{
                     party(spec.payer).name, party(spec.payee).name,
                     chain::Amount::from_tokens(spec.amount), hash_,
                     spec.expiry},
                 spec.expiry);
  // The amount is stream-formatted here ("1") and std::to_string-formatted
  // in the initiator's line: both formats are pinned audit bytes.
  log("t2: ", name, " deployed HTLC on Chain_", leg_letter(leg),
      " (amount=", spec.amount, ", expiry=t_", leg_letter(leg), "=",
      std::to_string(spec.expiry), ")");
  after_lock(leg);
}

void SwapMachine::reveal() {
  if (defer_while_offline(0, [this] { reveal(); })) return;
  const std::size_t last = legs_.size() - 1;
  const std::string& name = party(0).name.value;
  if (!verify(last)) {
    outcome_ = SwapOutcome::kAliceDeclinedT3;
    log("t3: ", party(graph_.legs[last].payer).name.value,
        "'s contract failed verification; ", name, " withholds the secret");
    return;
  }
  if (decide(0, agents::Stage::kT3Reveal) == model::Action::kStop) {
    outcome_ = SwapOutcome::kAliceDeclinedT3;
    log("t3: ", name, " withheld the secret (price=",
        std::to_string(path_->price_at(queue_.now())), ")");
    return;
  }
  const TrackedTx& revealing = submit_tracked(
      legs_[last].claim, chain_of(last),
      chain::ClaimHtlcPayload{
          chain_of(last).pending_contract_of(legs_[last].deploy->id), secret_,
          party(0).name},
      graph_.legs[last].expiry);
  log("t3: ", name, " claimed on Chain_", leg_letter(last),
      ", revealing the secret");
  if (premium_escrow_) {
    submit_tracked(premium_settlement_, chain_of(0),
                   chain::ClaimHtlcPayload{
                       chain_of(0).pending_contract_of(premium_escrow_->id),
                       secret_, party(0).name},
                   graph_.legs[0].expiry);
    log("t3: ", name, " reclaimed her premium escrow on Chain_",
        leg_letter(0));
  }
  advance_when(WaitFor::kVisibility, last, revealing, graph_.schedule.t4,
               [this, last] { claim(last); });
}

void SwapMachine::witness_claims() {
  for (std::size_t leg = 0; leg < legs_.size(); ++leg) {
    if (!verify(leg)) {
      outcome_ = SwapOutcome::kAliceDeclinedT3;
      log("t3: witness aborts (a lock is missing); time locks will refund");
      return;
    }
  }
  for (std::size_t leg = 0; leg < legs_.size(); ++leg) {
    const SwapLeg& spec = graph_.legs[leg];
    submit_tracked(legs_[leg].claim, chain_of(leg),
                   chain::ClaimHtlcPayload{
                       chain_of(leg).pending_contract_of(legs_[leg].deploy->id),
                       secret_, party(spec.payee).name},
                   spec.expiry);
  }
  outcome_ = SwapOutcome::kSuccess;
  log("t3: witness committed -- claimed every leg atomically");
}

void SwapMachine::claim(std::size_t watched) {
  const std::size_t who = graph_.legs[watched].payer;
  if (defer_while_offline(who, [this, watched] { claim(watched); })) return;
  const std::string& name = party(who).name.value;
  std::optional<crypto::Secret> observed;
  for (const chain::ObservedSecret& s : chain_of(watched).visible_secrets()) {
    if (s.secret.opens(hash_)) {
      observed = s.secret;
      break;
    }
  }
  if (!observed) {
    outcome_ = SwapOutcome::kBobMissedT4;
    log("t4: no secret visible in Chain_", leg_letter(watched), " mempool; ",
        name, " cannot claim");
    return;
  }
  if (setup_->trace != nullptr) {
    setup_->trace->record(
        queue_.now(), obs::TraceKind::kSecretObserved,
        {{"party", name},
         {"chain", chain::to_string(chain_of(watched).params().id)}});
  }
  if (decide(who, agents::Stage::kT4Claim) == model::Action::kStop) {
    outcome_ = SwapOutcome::kBobMissedT4;
    log("t4: ", name, " (irrationally) declined to claim");
    return;
  }
  const std::size_t target = watched - 1;
  const TrackedTx& claimed = submit_tracked(
      legs_[target].claim, chain_of(target),
      chain::ClaimHtlcPayload{
          chain_of(target).pending_contract_of(legs_[target].deploy->id),
          *observed, party(who).name},
      graph_.legs[target].expiry);
  log("t4: ", name, " claimed on Chain_", leg_letter(target),
      " with the observed secret");
  if (target == 0) {
    outcome_ = SwapOutcome::kSuccess;
    return;
  }
  advance_when(WaitFor::kVisibility, target, claimed, graph_.schedule.t4,
               [this, target] { claim(target); });
}

// If Bob never locks, Alice could not possibly perform, so the premium
// escrow must not penalize her: the watcher cancels it back as soon as
// Bob's walk-away is known.
void SwapMachine::cancel_premium_escrow() {
  if (!premium_escrow_) return;
  submit_tracked(premium_settlement_, chain_of(0),
                 chain::CancelHtlcPayload{
                     chain_of(0).pending_contract_of(premium_escrow_->id),
                     party(0).name},
                 graph_.legs[0].expiry);
  log("premium watcher cancelled the escrow (", party(1).name.value,
      " never locked)");
}

/// Leg `leg`'s payee checks the *confirmed* contract: existence, funding
/// and terms (Section II-B Step 2).
bool SwapMachine::verify(std::size_t leg) {
  const LegRun& run = legs_[leg];
  if (!run.deploy) return false;
  const chain::Transaction& tx = run.ledger->transaction(run.deploy->id);
  if (tx.status != chain::TxStatus::kConfirmed) return false;
  const chain::HtlcContract& c = run.ledger->htlc(*tx.created_contract);
  const SwapLeg& spec = *run.spec;
  return c.state == chain::HtlcState::kLocked &&
         c.recipient == party(spec.payee).name &&
         c.amount == chain::Amount::from_tokens(spec.amount) &&
         c.hash_lock == hash_ && c.expiry >= spec.expiry;
}

/// With confirmation jitter or faults, a claim broadcast in time can still
/// confirm after its time lock: the outcome decided at broadcast time is
/// reconciled against the final settlement of leg 0 (claimed last) and of
/// the last leg (claimed first, revealing the secret).  With zero jitter
/// and no faults this never changes anything.
void SwapMachine::reconcile_outcome() {
  // A deploy that was broadcast but never produced a contract (every
  // re-broadcast dropped, or confirmation slipped past the expiry) is a
  // fault abort: the swap died on the wire, not by a party's choice.
  if (setup_->faults.any()) {
    for (std::size_t leg = 0; leg < legs_.size(); ++leg) {
      if (deployed(leg) && contract(leg) == nullptr) {
        outcome_ = SwapOutcome::kFaultAborted;
        log("reconcile: ", party(graph_.legs[leg].payer).name.value,
            "'s deploy never took effect; fault abort");
        return;
      }
    }
  }
  const std::size_t last = legs_.size() - 1;
  const chain::HtlcContract* first_leg = contract(0);
  const chain::HtlcContract* last_leg = contract(last);
  if (first_leg == nullptr || last_leg == nullptr) return;
  const std::string& leader = party(0).name.value;
  const std::string& last_claimer = party(graph_.legs[0].payee).name.value;
  const chain::HtlcState sa = first_leg->state;
  const chain::HtlcState sb = last_leg->state;
  if (sa == chain::HtlcState::kClaimed && sb == chain::HtlcState::kClaimed) {
    outcome_ = SwapOutcome::kSuccess;
  } else if (sa == chain::HtlcState::kClaimed &&
             sb == chain::HtlcState::kRefunded) {
    outcome_ = SwapOutcome::kAliceLostAtomicity;
    log("reconcile: ", leader, "'s claim missed t_", leg_letter(last),
        " while ", last_claimer, "'s succeeded");
  } else if (sa == chain::HtlcState::kRefunded &&
             sb == chain::HtlcState::kClaimed &&
             outcome_ != SwapOutcome::kBobMissedT4) {
    outcome_ = SwapOutcome::kBobLostAtomicity;
    log("reconcile: ", last_claimer, "'s claim missed t_", leg_letter(0),
        " while ", leader, "'s succeeded");
  } else if (sa == chain::HtlcState::kRefunded &&
             sb == chain::HtlcState::kRefunded &&
             (outcome_ == SwapOutcome::kSuccess ||
              outcome_ == SwapOutcome::kBobMissedT4)) {
    // Both claims were broadcast but both confirmed too late -- or (under
    // faults) the reveal was swallowed so no secret ever surfaced and both
    // legs timed out.  Either way both refunded: benign failure.
    outcome_ = SwapOutcome::kTimelockExpiredBoth;
    log("reconcile: both legs refunded; benign timeout for both");
  }
}

}  // namespace swapgame::proto
