#include "swap_machine.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

#include "obs/trace.hpp"

namespace swapgame::proto {

namespace {

using chain::Hours;

/// Leg k is named by the k-th letter in audit lines: the paper's Chain_a
/// and Chain_b (expiries t_a, t_b) for the 2-cycle.
char leg_letter(std::size_t leg) { return static_cast<char>('a' + leg % 26); }

/// A number in std::to_string's format, rendered only when a line is kept
/// (a population run keeps no audit log, nor does a run without an
/// audit_log sink).
struct Fixed {
  double value;
};
std::ostream& operator<<(std::ostream& os, Fixed f) {
  return os << std::to_string(f.value);
}

/// An amount in Amount::to_string's format, rendered only when a line is
/// kept.
struct Tokens {
  chain::Amount amount;
};
std::ostream& operator<<(std::ostream& os, Tokens t) {
  return os << t.amount.to_string();
}

/// A hash lock's first 16 hex digits, rendered only when a line is kept.
struct HashHead {
  const crypto::Digest256& hash;
};
std::ostream& operator<<(std::ostream& os, HashHead h) {
  return os << h.hash.to_hex().substr(0, 16);
}

/// A wait's key: the transaction's leg and role.
std::uint32_t wait_key(std::size_t leg, TxRole role) {
  return static_cast<std::uint32_t>(leg * 4 + static_cast<std::size_t>(role));
}

}  // namespace

// --- SwapMachine -------------------------------------------------------------

SwapMachine::SwapMachine(const SwapGraph& graph, SwapEnv& env)
    : graph_(graph),
      env_(&env),
      heap_legs_(graph.legs.size() > 2
                     ? std::make_unique<LegTx[]>(graph.legs.size())
                     : nullptr),
      legs_(heap_legs_ ? heap_legs_.get() : inline_legs_) {}

TrackedTx& SwapMachine::slot(std::size_t leg, TxRole role) {
  if (role == TxRole::kDeploy) return legs_[leg].deploy;
  if (role == TxRole::kClaim) return legs_[leg].claim;
  return env_->premium[role == TxRole::kPremiumSettlement];
}

void SwapMachine::landed(std::size_t leg, TxRole role, chain::TxId id) {
  slot(leg, role).id = id;
  if (role == TxRole::kDeploy) {
    legs_[leg].contract = chain_of(leg).pending_contract_of(id);
  }
  if (awaiting_ == wait_key(leg, role)) {
    awaiting_ = kNoWait;
    await(leg, role);
  }
}

void SwapMachine::give_up(std::size_t leg, TxRole role) {
  TrackedTx& tx = slot(leg, role);
  tx.abandoned = true;
  // A broadcast that landed and was dropped: the waits stop polling for it
  // and the epochs after them classify the wreckage.
  if (tx.id.value != 0) return;
  // Never on the ledger: the epoch waiting for it can never start.
  if (awaiting_ == wait_key(leg, role)) awaiting_ = kNoWait;
  if (role == TxRole::kDeploy) {
    outcome_ = SwapOutcome::kFaultAborted;
  } else if (role == TxRole::kClaim) {
    outcome_ = leg + 1 == graph_.legs.size() ? SwapOutcome::kTimelockExpiredBoth
                                             : SwapOutcome::kBobMissedT4;
  }
}

crypto::Secret SwapMachine::secret() const {
  math::Xoshiro256 rng(graph_.secret_seed);
  return crypto::Secret::generate(rng);
}

const chain::HtlcContract* SwapMachine::contract(std::size_t leg) const {
  const LegTx& tx = legs_[leg];
  if (tx.deploy.id.value == 0) return nullptr;
  return chain_of(leg).find_htlc(tx.contract);
}

agents::DecisionContext SwapMachine::context() const {
  const Hours now = env_->queue->now();
  return {env_->path->price_at(now), graph_.p_star, now};
}

/// Consults party `who` and records the decision epoch with its full
/// game-theoretic context: who moved, at which stage, what they saw and
/// the closed-form rule behind the action (computed on traced runs only).
model::Action SwapMachine::decide(std::size_t who, agents::Stage stage) {
  const agents::DecisionContext ctx = context();
  agents::Strategy& strategy = *party(who).strategy;
  const model::Action action = strategy.decide(stage, ctx);
  if (obs::TraceRecorder* trace = env_->setup->trace; trace != nullptr) {
    trace->record(ctx.now, obs::TraceKind::kDecision,
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

void SwapMachine::broadcast(std::size_t leg, TxRole role,
                            chain::TxPayload payload) {
  env_->sink->submit(*this, leg, role, std::move(payload),
                     graph_.legs[leg].expiry);
}

/// Without a drop the epoch starts at exactly max(earliest, ready time).
/// While re-broadcasts are in flight it polls each eps+tau; once the leg's
/// expiry passes (or re-broadcasting was abandoned) it starts regardless,
/// letting the normal verification-failure / timeout paths classify the
/// wreckage.
void SwapMachine::await(std::size_t leg, TxRole role) {
  const TrackedTx& tracked = slot(leg, role);
  const std::uint32_t key = wait_key(leg, role);
  if (tracked.id.value == 0) {
    if (!tracked.abandoned) awaiting_ = key;  // resumed by landed()
    return;
  }
  chain::EventQueue& queue = *env_->queue;
  const chain::Ledger& chain = chain_of(leg);
  const chain::Transaction& tx = chain.transaction(tracked.id);
  const bool locking = role == TxRole::kDeploy;
  Hours earliest = 0.0;
  if (const model::Schedule* s = graph_.schedule; s != nullptr) {
    earliest = !locking                        ? s->t4
               : leg + 1 == graph_.legs.size() ? s->t3
                                               : s->t2;
  }
  // The step captures only [this, key], which fits std::function's inline
  // buffer: scheduling it allocates nothing.
  const auto step = [this, key] {  // the epoch after a lock or a claim
    const std::size_t next = key / 4;
    if (static_cast<TxRole>(key % 4) == TxRole::kClaim) {
      claim(next);
    } else if (next + 1 < graph_.legs.size()) {
      lock(next + 1);
    } else if (graph_.witness_holds_secret) {
      witness_claims();
    } else {
      reveal();
    }
  };
  if (tx.status != chain::TxStatus::kDropped) {
    const Hours ready = locking ? tx.confirmed_at : tx.visible_at;
    queue.schedule_at(std::max({earliest, ready, queue.now()}), step);
    return;
  }
  if (tracked.abandoned || queue.now() >= graph_.legs[leg].expiry) {
    queue.schedule_at(std::max(earliest, queue.now()), step);
    return;
  }
  const Hours recheck = queue.now() + chain.params().mempool_visibility +
                        chain.params().confirmation_time;
  queue.schedule_at(recheck, [this, key] {
    await(key / 4, static_cast<TxRole>(key % 4));
  });
}

/// True (and the epoch re-scheduled for the window's end) when party `who`
/// is inside one of its offline windows.
template <class Step>
bool SwapMachine::defer_while_offline(std::size_t who, Step step) {
  if (party(who).offline == nullptr) return false;
  chain::EventQueue& queue = *env_->queue;
  const Hours online =
      chain::first_time_outside(*party(who).offline, queue.now());
  if (online <= queue.now()) return false;
  log(party(who).name.value, " is offline; epoch deferred to t=",
      Fixed{online});
  if (obs::TraceRecorder* trace = env_->setup->trace; trace != nullptr) {
    trace->record(queue.now(), obs::TraceKind::kOffline,
                  {{"party", party(who).name.value}, {"until", online}});
  }
  queue.schedule_at(online, std::move(step));
  return true;
}

// --- The protocol epochs. ---------------------------------------------------

void SwapMachine::start() {
  const SwapSetup& setup = *env_->setup;
  const bool collateral = setup.collateral > 0.0;
  if (defer_while_offline(0, [this] { start(); })) return;
  if (collateral && defer_while_offline(1, [this] { start(); })) return;
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
  initiated_ = true;

  if (collateral) {
    const chain::Amount q = chain::Amount::from_tokens(setup.collateral);
    chain_of(0).charge_collateral(party(0).name, q);
    chain_of(0).charge_collateral(party(1).name, q);
    env_->oracle.emplace(*env_->queue, chain_of(0), chain_of(1),
                         party(0).name, party(1).name, q);
    log("t1: oracle charged both collaterals (", Tokens{q},
        " token-a each)");
  }

  hash_ = secret().commitment();
  if (collateral) env_->oracle->arm(hash_, *graph_.schedule);

  const SwapLeg& first = graph_.legs[0];
  broadcast(0, TxRole::kDeploy,
            chain::DeployHtlcPayload{party(0).name, party(first.payee).name,
                                     chain::Amount::from_tokens(first.amount),
                                     hash_, first.expiry});
  log("t1: ", party(0).name.value, " deployed HTLC on Chain_", leg_letter(0),
      " (amount=", Fixed{first.amount}, ", expiry=t_", leg_letter(0), "=",
      Fixed{first.expiry}, ", hash=", HashHead{hash_}, "...)");
  if (setup.premium > 0.0) {
    // Han et al. premium: an inverse escrow that refunds Alice on reveal
    // and pays Bob if she waives after commitment.  It is cancelled back
    // to Alice if Bob never locks (cancel_premium_escrow).
    broadcast(0, TxRole::kPremiumEscrow,
              chain::DeployHtlcPayload{
                  party(0).name, party(1).name,
                  chain::Amount::from_tokens(setup.premium), hash_,
                  first.expiry, chain::HtlcKind::kInverse});
    log("t1: ", party(0).name.value, " escrowed premium ",
        Fixed{setup.premium}, " in an inverse HTLC on Chain_", leg_letter(0));
  }
  await(0, TxRole::kDeploy);
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
    log("t2: ", name, " declined to lock (price=", Fixed{context().price},
        ")");
    cancel_premium_escrow();
    return;
  }
  broadcast(leg, TxRole::kDeploy,
            chain::DeployHtlcPayload{party(spec.payer).name,
                                     party(spec.payee).name,
                                     chain::Amount::from_tokens(spec.amount),
                                     hash_, spec.expiry});
  // The amount is stream-formatted here ("1") and std::to_string-formatted
  // in the initiator's line: both formats are pinned audit bytes.
  log("t2: ", name, " deployed HTLC on Chain_", leg_letter(leg),
      " (amount=", spec.amount, ", expiry=t_", leg_letter(leg), "=",
      Fixed{spec.expiry}, ")");
  await(leg, TxRole::kDeploy);
}

void SwapMachine::reveal() {
  if (defer_while_offline(0, [this] { reveal(); })) return;
  const std::size_t last = graph_.legs.size() - 1;
  const std::string& name = party(0).name.value;
  if (!verify(last)) {
    outcome_ = SwapOutcome::kAliceDeclinedT3;
    log("t3: ", party(graph_.legs[last].payer).name.value,
        "'s contract failed verification; ", name, " withholds the secret");
    return;
  }
  if (decide(0, agents::Stage::kT3Reveal) == model::Action::kStop) {
    outcome_ = SwapOutcome::kAliceDeclinedT3;
    log("t3: ", name, " withheld the secret (price=", Fixed{context().price},
        ")");
    return;
  }
  const crypto::Secret preimage = secret();
  broadcast(last, TxRole::kClaim,
            chain::ClaimHtlcPayload{legs_[last].contract, preimage,
                                    party(0).name});
  log("t3: ", name, " claimed on Chain_", leg_letter(last),
      ", revealing the secret");
  if (env_->premium[0].id.value != 0) {
    broadcast(0, TxRole::kPremiumSettlement,
              chain::ClaimHtlcPayload{
                  chain_of(0).pending_contract_of(env_->premium[0].id),
                  preimage, party(0).name});
    log("t3: ", name, " reclaimed her premium escrow on Chain_",
        leg_letter(0));
  }
  await(last, TxRole::kClaim);
}

void SwapMachine::witness_claims() {
  for (std::size_t leg = 0; leg < graph_.legs.size(); ++leg) {
    if (!verify(leg)) {
      outcome_ = SwapOutcome::kAliceDeclinedT3;
      log("t3: witness aborts (a lock is missing); time locks will refund");
      return;
    }
  }
  const crypto::Secret preimage = secret();
  outcome_ = SwapOutcome::kSuccess;
  for (std::size_t leg = 0; leg < graph_.legs.size(); ++leg) {
    broadcast(leg, TxRole::kClaim,
              chain::ClaimHtlcPayload{legs_[leg].contract, preimage,
                                      party(graph_.legs[leg].payee).name});
  }
  log("t3: witness committed -- claimed every leg atomically");
}

void SwapMachine::claim(std::size_t watched) {
  const std::size_t who = graph_.legs[watched].payer;
  if (defer_while_offline(who, [this, watched] { claim(watched); })) return;
  const std::string& name = party(who).name.value;
  // The payer reads the secret off the claim on its own contract once that
  // claim is mempool-visible.  Only the latest broadcast can be: every
  // earlier one was dropped before reaching the mempool.
  std::optional<crypto::Secret> observed;
  if (const chain::TxId id = legs_[watched].claim.id; id.value != 0) {
    const chain::Transaction& tx = chain_of(watched).transaction(id);
    const crypto::Secret& secret =
        std::get<chain::ClaimHtlcPayload>(tx.payload).secret;
    if (tx.visible_at <= env_->queue->now() && secret.opens(hash_)) {
      observed = secret;
    }
  }
  if (!observed) {
    outcome_ = SwapOutcome::kBobMissedT4;
    log("t4: no secret visible in Chain_", leg_letter(watched), " mempool; ",
        name, " cannot claim");
    return;
  }
  if (obs::TraceRecorder* trace = env_->setup->trace; trace != nullptr) {
    trace->record(
        env_->queue->now(), obs::TraceKind::kSecretObserved,
        {{"party", name},
         {"chain", chain::to_string(chain_of(watched).params().id)}});
  }
  if (decide(who, agents::Stage::kT4Claim) == model::Action::kStop) {
    outcome_ = SwapOutcome::kBobMissedT4;
    log("t4: ", name, " (irrationally) declined to claim");
    return;
  }
  const std::size_t target = watched - 1;
  // The last claim completes the swap -- unless the sink gives it up.
  if (target == 0) outcome_ = SwapOutcome::kSuccess;
  broadcast(target, TxRole::kClaim,
            chain::ClaimHtlcPayload{legs_[target].contract, *observed,
                                    party(who).name});
  log("t4: ", name, " claimed on Chain_", leg_letter(target),
      " with the observed secret");
  if (target != 0) await(target, TxRole::kClaim);
}

// If Bob never locks, Alice could not possibly perform, so the premium
// escrow must not penalize her: the watcher cancels it back as soon as
// Bob's walk-away is known.
void SwapMachine::cancel_premium_escrow() {
  if (env_->premium[0].id.value == 0) return;
  broadcast(0, TxRole::kPremiumSettlement,
            chain::CancelHtlcPayload{
                chain_of(0).pending_contract_of(env_->premium[0].id),
                party(0).name});
  log("premium watcher cancelled the escrow (", party(1).name.value,
      " never locked)");
}

/// Leg `leg`'s payee checks the *confirmed* contract: existence, funding
/// and terms (Section II-B Step 2).
bool SwapMachine::verify(std::size_t leg) const {
  const chain::TxId id = legs_[leg].deploy.id;
  if (id.value == 0) return false;
  const chain::Ledger& ledger = chain_of(leg);
  const chain::Transaction& tx = ledger.transaction(id);
  if (tx.status != chain::TxStatus::kConfirmed) return false;
  const chain::HtlcContract& c = ledger.htlc(*tx.created_contract);
  const SwapLeg& spec = graph_.legs[leg];
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
  if (env_->setup->faults.any()) {
    for (std::size_t leg = 0; leg < graph_.legs.size(); ++leg) {
      if (deployed(leg) && contract(leg) == nullptr) {
        outcome_ = SwapOutcome::kFaultAborted;
        log("reconcile: ", party(graph_.legs[leg].payer).name.value,
            "'s deploy never took effect; fault abort");
        return;
      }
    }
  }
  const std::size_t last = graph_.legs.size() - 1;
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

// --- DirectRun ---------------------------------------------------------------

void DirectRun::reset(const SwapGraph& graph,
                      std::span<const LegChain> chains,
                      const SwapSetup& setup, const PricePath& path) {
  // The machine and the queue's callbacks point into this run: drop them
  // before the state they point at.
  machine_.reset();
  queue_.reset();
  env_.oracle.reset();
  env_.premium[0] = env_.premium[1] = TrackedTx{};
  env_.audit = nullptr;
  audit_.reset();
  rebroadcasts_ = 0;
  parties_ = graph.parties;
  setup_ = &setup;
  const std::size_t n = graph.legs.size();
  if (n > 2 && heap_capacity_ < n) {
    heap_legs_ = std::make_unique<LegRun[]>(n);
    heap_ledgers_ = std::make_unique<chain::Ledger*[]>(n);
    heap_capacity_ = n;
  }
  legs_ = std::span<LegRun>(n > 2 ? heap_legs_.get() : inline_legs_, n);
  chain::Ledger** ledgers = n > 2 ? heap_ledgers_.get() : inline_ledgers_;
  for (std::size_t k = 0; k < n; ++k) {
    const SwapLeg& spec = graph.legs[k];
    const LegChain& spec_chain = chains[k];
    LegRun& leg = legs_[k];
    // Leg k draws its latency and fault streams from the setup's seeds
    // XOR k times a per-stream constant, so leg 0 uses the seeds as given.
    leg.latency_rng =
        math::Xoshiro256(setup.latency_seed ^ (k * 0x517CC1B727220A95ULL));
    leg.injector.reset();
    if (leg.ledger) {
      leg.ledger->reset(spec_chain.params, &leg.latency_rng);
    } else {
      leg.ledger.emplace(spec_chain.params, queue_, &leg.latency_rng);
    }
    chain::Ledger& ledger = *leg.ledger;
    ledger.create_account(graph.parties[spec.payer].name,
                          chain::Amount::from_tokens(spec_chain.payer_balance));
    ledger.create_account(graph.parties[spec.payee].name,
                          chain::Amount::from_tokens(spec_chain.payee_balance));
    leg.initial_supply = ledger.total_supply();
    // Injectors are attached only when their model is active, so a
    // zero-fault run is byte-identical to one without any fault plumbing.
    if (spec_chain.faults != nullptr && spec_chain.faults->any()) {
      ledger.set_fault_injector(&leg.injector.emplace(
          *spec_chain.faults, setup.faults.seed ^ (k * 0x9E3779B97F4A7C15ULL)));
    }
    if (setup.audit) {
      leg.auditor.attach(ledger);
    } else {
      leg.auditor.detach();
    }
    if (setup.trace != nullptr) {
      ledger.set_trace(setup.trace);
      if (leg.injector) {
        leg.injector->set_trace(setup.trace,
                                chain::to_string(spec_chain.params.id));
      }
    }
    ledgers[k] = &ledger;
  }
  env_.queue = &queue_;
  env_.ledgers = std::span<chain::Ledger* const>(ledgers, n);
  env_.sink = this;
  env_.path = &path;
  env_.setup = &setup;
  if (setup.audit_log != nullptr) {
    env_.audit = &audit_.emplace(*setup.audit_log);
  }
  if (setup.metrics != nullptr) queue_.set_metrics(setup.metrics);
  if (setup.trace != nullptr) {
    setup.trace->record(0.0, obs::TraceKind::kRunStart,
                        {{"p_star", graph.p_star},
                         {"collateral", setup.collateral},
                         {"premium", setup.premium},
                         {"t_a", graph.legs.front().expiry},
                         {"t_b", graph.legs.back().expiry},
                         {"expiry_margin", setup.expiry_margin},
                         {"faults", setup.faults.any()}});
  }
  machine_.emplace(graph, env_);
}

void DirectRun::run() {
  machine_->start();
  queue_.run();  // drain confirmations, refunds and oracle releases
  machine_->reconcile_outcome();
}

double DirectRun::balance(std::size_t leg, std::size_t party) const {
  return legs_[leg].ledger->balance(parties_[party].name).tokens();
}

bool DirectRun::conservation_ok() const {
  return std::all_of(legs_.begin(), legs_.end(), [](const LegRun& leg) {
    return leg.ledger->total_supply() == leg.initial_supply;
  });
}

void DirectRun::report(SwapResult& result) const {
  result.conservation_ok = conservation_ok();
  std::uint64_t dropped = 0;
  for (const LegRun& leg : legs_) {
    if (leg.injector) dropped += leg.injector->dropped();
    if (!setup_->audit) continue;  // a detached auditor keeps old verdicts
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

void DirectRun::submit(SwapMachine& m, std::size_t leg, TxRole role,
                       chain::TxPayload payload, Hours deadline) {
  const chain::TxId id = legs_[leg].ledger->submit(payload);
  m.landed(leg, role, id);
  watch_broadcast(leg, role, id, std::move(payload), deadline, 0);
}

/// The sender detects a drop once the transaction fails to appear in the
/// mempool (one visibility period after broadcast) and re-broadcasts with
/// exponential backoff until `deadline` (the relevant HTLC expiry, past
/// which a landing would be useless anyway).
void DirectRun::watch_broadcast(std::size_t leg, TxRole role, chain::TxId id,
                                chain::TxPayload payload, Hours deadline,
                                int attempt) {
  const chain::Ledger& chain = *legs_[leg].ledger;
  if (chain.transaction(id).status != chain::TxStatus::kDropped) return;
  const Hours eps = chain.params().mempool_visibility;
  const Hours backoff = eps * static_cast<double>(1 << std::min(attempt, 4));
  const Hours retry_at = queue_.now() + eps + backoff;
  if (retry_at >= deadline) {
    machine_->give_up(leg, role);
    if (audit_) {
      audit_->add(queue_.now(),
                  "broadcast lost and deadline too close to retry; giving up");
    }
    if (setup_->trace != nullptr) {
      setup_->trace->record(queue_.now(), obs::TraceKind::kBroadcastAbandoned,
                            {{"chain", chain::to_string(chain.params().id)},
                             {"attempts", attempt},
                             {"deadline", deadline}});
    }
    return;
  }
  queue_.schedule_at(retry_at, [this, leg, role, payload = std::move(payload),
                                deadline, attempt]() mutable {
    chain::Ledger& ledger = *legs_[leg].ledger;
    const chain::TxId retry = ledger.submit(payload);
    machine_->landed(leg, role, retry);
    ++rebroadcasts_;
    if (audit_) {
      audit_->add(queue_.now(), "re-broadcast after drop (attempt ",
                  attempt + 1, ")");
    }
    if (setup_->trace != nullptr) {
      setup_->trace->record(queue_.now(), obs::TraceKind::kRebroadcast,
                            {{"chain", chain::to_string(ledger.params().id)},
                             {"tx", retry.value},
                             {"attempt", attempt + 1}});
    }
    watch_broadcast(leg, role, retry, std::move(payload), deadline,
                    attempt + 1);
  });
}

}  // namespace swapgame::proto
