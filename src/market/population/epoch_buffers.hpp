// The population engine's barrier order (internal to PopulationSim).
//
// During an epoch's parallel phase each shard buffers its cross-shard
// effects -- fee-market intents, initiations, finalizations, trace events
// -- in the order its own drain produced them.  At the end of the drain
// the shard sorts its buffers by Stamp (EpochBuffers::sort, on the pool),
// and the barrier visits every shard's sorted run through a k-way merge
// (merge_runs).  Together the two give the order a global sort of all
// shards' records would give, independent of the worker partition; the
// barrier folds every effect in that order, which is what makes results
// and traces bit-identical at every worker count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "chain/transaction.hpp"
#include "proto/swap_machine.hpp"

namespace swapgame::market::detail {

/// Canonical merge order for everything a worker buffers during the
/// parallel phase: event time, then session index, then the session's own
/// record birth order.  Unique per record (bseq breaks the only possible
/// tie: several records of one session at one instant), so each shard's
/// sort of its own buffers and the barrier's k-way merge of them give one
/// order, independent of the worker partition and of the order a shard's
/// drain produced its records in.
struct Stamp {
  double when = 0.0;
  std::uint64_t idx = 0;
  std::uint32_t bseq = 0;

  [[nodiscard]] bool operator<(const Stamp& o) const noexcept {
    if (when != o.when) return when < o.when;
    if (idx != o.idx) return idx < o.idx;
    return bseq < o.bseq;
  }
};

/// A fee-market submission buffered during the parallel phase, merged
/// into the global market at the barrier in stamp order.
struct IntentRec {
  Stamp stamp;
  int stage = 0;
  chain::TxPayload payload{};
  double fee = 0.0;
  double deadline = 0.0;
};

/// An initiation's cross-shard effects: price impact + predicted SR.
struct InitRec {
  Stamp stamp;
  double sr = 0.0;
  double direction = 0.0;
};

/// A finalization's contribution to the result statistics.
struct FinalRec {
  Stamp stamp;
  proto::SwapOutcome outcome = proto::SwapOutcome::kNotInitiated;
  double latency = std::numeric_limits<double>::quiet_NaN();
  double lockup_a = std::numeric_limits<double>::quiet_NaN();
  double lockup_b = std::numeric_limits<double>::quiet_NaN();
};

/// A buffered trace event (run-start or outcome) for the stride sink.
struct TraceRec {
  Stamp stamp;
  bool start = false;  ///< kRunStart when true, kOutcome otherwise
  double p_star = 0.0;
  double price = 0.0;
  double t1_cont = 0.0;
  proto::SwapOutcome outcome = proto::SwapOutcome::kNotInitiated;
  double latency = std::numeric_limits<double>::quiet_NaN();
};

/// One shard's effect buffers for the current epoch.
struct EpochBuffers {
  std::vector<IntentRec> intents;
  std::vector<InitRec> inits;
  std::vector<FinalRec> finals;
  std::vector<TraceRec> traces;

  /// Sorts every buffer by stamp: the shard's last step of the parallel
  /// phase, so merge_runs may take each buffer as one sorted run.
  void sort() {
    sort_by_stamp(intents);
    sort_by_stamp(inits);
    sort_by_stamp(finals);
    sort_by_stamp(traces);
  }

 private:
  template <class Rec>
  static void sort_by_stamp(std::vector<Rec>& records) {
    std::sort(records.begin(), records.end(),
              [](const Rec& a, const Rec& b) { return a.stamp < b.stamp; });
  }
};

/// Calls fn on every record of every shard's `buffer` in global stamp
/// order, then empties the buffers.  `shards` is a range of pointers (raw
/// or smart) to EpochBuffers or a type derived from it, each sort()ed
/// since its buffers were last filled.  A k-way merge of the non-empty
/// runs (a heap keyed by each run's head) then gives the order a sort of
/// their concatenation would give; stamps are unique, so that order is
/// exact.  fn must not append to the buffers.
template <class Shards, class Rec, class Fn>
void merge_runs(const Shards& shards, std::vector<Rec> EpochBuffers::*buffer,
                Fn&& fn) {
  struct Run {
    Rec* next;
    Rec* end;
  };
  std::vector<Run> runs;
  for (const auto& sh : shards) {
    std::vector<Rec>& records = static_cast<EpochBuffers&>(*sh).*buffer;
    if (!records.empty()) {
      runs.push_back({records.data(), records.data() + records.size()});
    }
  }
  const auto later = [](const Run& a, const Run& b) {
    return b.next->stamp < a.next->stamp;
  };
  std::make_heap(runs.begin(), runs.end(), later);
  while (!runs.empty()) {
    std::pop_heap(runs.begin(), runs.end(), later);
    Run& run = runs.back();
    fn(*run.next);
    if (++run.next == run.end) {
      runs.pop_back();
    } else {
      std::push_heap(runs.begin(), runs.end(), later);
    }
  }
  for (const auto& sh : shards) {
    (static_cast<EpochBuffers&>(*sh).*buffer).clear();
  }
}

}  // namespace swapgame::market::detail
