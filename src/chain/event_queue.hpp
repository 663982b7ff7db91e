// Discrete-event simulation core.
//
// A single EventQueue drives both simulated ledgers: transaction
// confirmations, mempool-visibility events, HTLC expiries, agent decision
// epochs and oracle settlements are all callbacks scheduled at absolute
// simulation times (hours).  Events at equal times fire in scheduling order
// (FIFO tie-break), which makes simulations fully deterministic.
//
// Two tiers (set_bucket_width; off by default).  With a width w > 0 the
// binary heap holds only the events of the current bucket -- bucket index
// floor(when / w) up to cur_ -- and every later event is appended,
// unordered, to the far tier: one vector per bucket index, in an ordered
// map (a lookup among the pending buckets, then a push_back).  When the
// heap runs dry, step() swaps the earliest far bucket in and heapifies it
// in O(bucket size).  The (when, seq) order stays exact because
// the bucket index is monotone in `when` (correctly rounded division by a
// positive w never inverts two times), so every heap event precedes every
// far event, and within the heap the usual (when, seq) comparison decides.
// An event scheduled into a bucket at or before cur_ -- say at now() just
// after a refill -- goes straight into the heap.  The heap then shrinks
// from every pending event to one bucket's worth, which is what the
// population's shard queues (tens of thousands of pending refunds and
// watchdogs, a few hundred due per epoch) spend their drain on.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "types.hpp"

namespace swapgame::obs {
class MetricsRegistry;
class Counter;
}  // namespace swapgame::obs

namespace swapgame::chain {

/// Deterministic discrete-event scheduler.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Current simulation time (hours since t0).
  [[nodiscard]] Hours now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `when`.  Scheduling in the past (before
  /// now()) throws std::invalid_argument; scheduling exactly at now() is
  /// allowed and runs on the next step.
  void schedule_at(Hours when, Callback cb);

  /// Schedules `cb` at now() + delay (delay >= 0).
  void schedule_in(Hours delay, Callback cb);

  /// Runs the earliest event.  Returns false when the queue is empty.
  bool step();

  /// Runs events until the queue is empty or `limit` events have run.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = kNoLimit);

  /// Runs all events scheduled at times <= `until`, then advances the clock
  /// to `until` (even if no event was pending).  Returns events processed.
  std::size_t run_until(Hours until);

  /// Epoch draining (the parallel population engine, docs/MARKET.md): runs
  /// every event with when STRICTLY before `until` and leaves the clock at
  /// the last processed event (unchanged when nothing fired).  Events at
  /// exactly `until` belong to the next epoch.  Unlike run_until the clock
  /// is NOT advanced to `until`; pair with advance_to at the barrier.
  std::size_t drain_before(Hours until);

  /// Barrier resync: advances the clock to max(now, t) without running
  /// anything.  Lets per-shard queues agree on the epoch boundary before
  /// time-gated operations (Ledger::compact) run against their clocks.
  void advance_to(Hours t) noexcept { if (t > now_) now_ = t; }

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + far_pending_;
  }

  /// Time of the earliest pending event, or +infinity when empty (the
  /// parallel population engine uses this to skip event-free epochs).
  [[nodiscard]] Hours next_time() const noexcept {
    if (!heap_.empty()) return heap_.front().when;
    if (far_.empty()) return std::numeric_limits<Hours>::infinity();
    return far_.begin()->second.earliest;
  }

  /// Turns on the far tier with buckets `width` hours wide (see the file
  /// comment); 0 (the default) keeps a single heap.  Firing order is the
  /// same at every width, so this is a speed setting only: worth it when
  /// many events are pending far beyond the next few buckets.  Only an
  /// empty queue can change width.
  /// @throws std::invalid_argument for a negative or non-finite width, or
  ///         when events are pending.
  void set_bucket_width(Hours width);

  /// Optional metrics sink (nullptr = disabled, the default): counts
  /// `queue.events_scheduled` / `queue.events_processed`.  The counter
  /// references are resolved once here so the hot path pays a single
  /// null check, never a registry lookup.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Drops every pending event and restarts the queue as a fresh one:
  /// clock at 0, sequence numbers from 0, no far tier and no metrics sink.
  /// The heap keeps its capacity, so a reused queue (one per protocol
  /// Monte-Carlo chunk) schedules without allocating.
  void reset() noexcept;

  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

 private:
  struct Event {
    Hours when;
    std::uint64_t seq;  // FIFO tie-break
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// One far-tier bucket: its events in scheduling order and their
  /// earliest time (next_time() reads it without scanning).
  struct Bucket {
    std::vector<Event> events;
    Hours earliest = std::numeric_limits<Hours>::infinity();
  };

  /// The bucket index of `when` (0 when bucketing is off).  Saturates far
  /// out, where the cast would overflow; it stays monotone in `when`.
  [[nodiscard]] std::int64_t bucket_of(Hours when) const noexcept;
  /// Moves the earliest far bucket into the (empty) heap.
  void refill();

  // Explicit binary heap (std::push_heap/std::pop_heap over a vector, same
  // (when, seq) ordering a priority_queue<Event, ..., Later> had): pop_heap
  // moves the earliest event to the back, where step() can move from it
  // legally -- priority_queue::top() only offers a const reference, and
  // moving through a const_cast on it is formally UB.  Holds the events of
  // buckets <= cur_ only.
  std::vector<Event> heap_;
  // Far tier, keyed by bucket index > cur_.  Empty at construction, like
  // the heap: a queue allocates nothing until used.
  std::map<std::int64_t, Bucket> far_;
  std::size_t far_pending_ = 0;
  Hours bucket_width_ = 0.0;
  std::int64_t cur_ = 0;
  Hours now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  obs::Counter* scheduled_counter_ = nullptr;
  obs::Counter* processed_counter_ = nullptr;
};

}  // namespace swapgame::chain
