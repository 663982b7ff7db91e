// Unit tests for the discrete-event scheduler (src/chain/event_queue).
#include "chain/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "math/rng.hpp"

namespace swapgame::chain {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleNewEvents) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule_at(1.0, [&] {
    fired.push_back(q.now());
    q.schedule_at(2.0, [&] { fired.push_back(q.now()); });
  });
  q.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(5.0, [&] {
    q.schedule_in(2.5, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_EQ(fired_at, 7.5);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule_at(1.0, [&] { fired.push_back(1.0); });
  q.schedule_at(2.0, [&] { fired.push_back(2.0); });
  q.schedule_at(5.0, [&] { fired.push_back(5.0); });
  EXPECT_EQ(q.run_until(3.0), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(q.now(), 3.0);   // clock advanced even with no event at 3.0
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired.back(), 5.0);
}

TEST(EventQueue, RunUntilIncludesEventsAtBoundary) {
  EventQueue q;
  bool fired = false;
  q.schedule_at(2.0, [&] { fired = true; });
  q.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, RunWithLimit) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) q.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, RejectsPastAndInvalidScheduling) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run();
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(q.schedule_at(2.0, [] {}));  // "now" is allowed
  EXPECT_THROW(q.schedule_in(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(3.0, EventQueue::Callback{}),
               std::invalid_argument);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilRejectsPast) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_THROW((void)q.run_until(4.0), std::invalid_argument);
}

TEST(EventQueue, HeapChurnPreservesGlobalWhenSeqOrder) {
  // Regression for the vector+push_heap/pop_heap rewrite (the old
  // priority_queue step() moved through a const_cast on top(), formally
  // UB): under heavy interleaved scheduling -- including callbacks that
  // schedule more events at equal and later times -- every event still
  // fires in strict (when, then scheduling-order) sequence.
  EventQueue q;
  std::vector<std::pair<double, int>> fired;
  int tag = 0;
  // A deterministic but scrambled schedule: times cycle through a residue
  // pattern so insertion order is far from heap order.
  for (int i = 0; i < 200; ++i) {
    const double when = static_cast<double>((i * 7) % 31) + 0.25 * (i % 4);
    q.schedule_at(when, [&fired, &q, &tag, when] {
      fired.push_back({when, tag++});
      if (fired.size() % 3 == 0) {
        const double again = q.now() + static_cast<double>(fired.size() % 5);
        q.schedule_at(again, [&fired, &tag, again] {
          fired.push_back({again, tag++});
        });
      }
    });
  }
  q.run();
  ASSERT_GE(fired.size(), 200u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);  // time-ordered
    EXPECT_LT(fired[i - 1].second, fired[i].second);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, HeavyTiesAndReschedulingFireInExplicitOrder) {
  // Event i fires at (7i) mod 10, so every time 0..9 holds four initial
  // events.  Each initial event with i % 3 == 0 schedules 2000 + i at now()
  // and 1000 + i at now() + 0.5.  The events added at now() are scheduled
  // after every initial event, so they fire after that time's initial
  // events, in the order they were scheduled.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 40; ++i) {
    const double when = static_cast<double>((i * 7) % 10);
    q.schedule_at(when, [&q, &order, i] {
      order.push_back(i);
      if (i % 3 == 0) {
        q.schedule_in(0.5, [&order, i] { order.push_back(1000 + i); });
        q.schedule_in(0.0, [&order, i] { order.push_back(2000 + i); });
      }
    });
  }
  EXPECT_EQ(q.run(), 68u);
  const std::vector<int> expected = {
      0,  10, 20, 30, 2000, 2030, 1000, 1030,  // t = 0, 0.5
      3,  13, 23, 33, 2003, 2033, 1003, 1033,  // t = 1, 1.5
      6,  16, 26, 36, 2006, 2036, 1006, 1036,  // t = 2, 2.5
      9,  19, 29, 39, 2009, 2039, 1009, 1039,  // t = 3, 3.5
      2,  12, 22, 32, 2012, 1012,              // t = 4, 4.5
      5,  15, 25, 35, 2015, 1015,              // t = 5, 5.5
      8,  18, 28, 38, 2018, 1018,              // t = 6, 6.5
      1,  11, 21, 31, 2021, 1021,              // t = 7, 7.5
      4,  14, 24, 34, 2024, 1024,              // t = 8, 8.5
      7,  17, 27, 37, 2027, 1027,              // t = 9, 9.5
  };
  EXPECT_EQ(order, expected);
  EXPECT_EQ(q.now(), 9.5);
}

}  // namespace
}  // namespace swapgame::chain

// ---------------------------------------------------------------------------
// Reference model: the single-heap queue, as an independent implementation
// of the (when, seq) contract, driven side by side with EventQueue.
// ---------------------------------------------------------------------------

namespace swapgame::chain {
namespace {

class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] Hours now() const noexcept { return now_; }
  void schedule_at(Hours when, Callback cb) {
    if (!std::isfinite(when) || when < now_ || !cb) {
      throw std::invalid_argument("ReferenceEventQueue::schedule_at");
    }
    heap_.push_back(Event{when, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  void schedule_in(Hours delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }
  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.when;
    ev.cb();
    return true;
  }
  std::size_t run(std::size_t limit) {
    std::size_t processed = 0;
    while (processed < limit && step()) ++processed;
    return processed;
  }
  std::size_t run_until(Hours until) {
    std::size_t processed = 0;
    while (!heap_.empty() && heap_.front().when <= until) {
      step();
      ++processed;
    }
    now_ = until;
    return processed;
  }
  std::size_t drain_before(Hours until) {
    std::size_t processed = 0;
    while (!heap_.empty() && heap_.front().when < until) {
      step();
      ++processed;
    }
    return processed;
  }
  void advance_to(Hours t) noexcept {
    if (t > now_) now_ = t;
  }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] Hours next_time() const noexcept {
    return heap_.empty() ? std::numeric_limits<Hours>::infinity()
                         : heap_.front().when;
  }

 private:
  struct Event {
    Hours when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::vector<Event> heap_;
  Hours now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// What one side observed: every firing (tag, clock), and after every
/// driver operation its return value, next_time(), pending() and now().
struct QueueLog {
  std::vector<std::pair<std::uint64_t, Hours>> fired;
  std::vector<double> probes;
};

/// A time `now + offset` drawn from a mix built to hit the tiers' edges:
/// exact ties with now(), points on and just off a 0.25 grid, short and
/// long random gaps, and far-future times.
Hours draw_time(math::Xoshiro256& rng, Hours now) {
  switch (rng() % 8) {
    case 0:
      return now;  // equal-time tie with the running event
    case 1:
      return std::ceil(now * 4.0) / 4.0;  // the next grid point (or now)
    case 2:
      return std::ceil(now * 4.0) / 4.0 + 0.25 * static_cast<double>(rng() % 6);
    case 3:
      return std::nextafter(std::ceil(now * 4.0 + 1.0) / 4.0, 0.0);
    case 4:
      return now + 0.3 * math::uniform01(rng);
    case 5:
      return now + 8.0 * math::uniform01(rng);  // tens of grid cells ahead
    case 6:
      return now + 200.0 + 1000.0 * math::uniform01(rng);  // far future
    default:
      return now + 0.01 * static_cast<double>(rng() % 4);
  }
}

template <class Queue>
QueueLog drive(Queue& q, std::uint64_t seed, int operations) {
  QueueLog log;
  math::Xoshiro256 rng(seed);
  std::uint64_t next_tag = 0;
  // Every event logs its firing; some schedule children from inside the
  // callback -- at now() itself among them -- drawing from the same stream
  // as the driver, so both sides stay in lockstep only while they agree.
  std::function<void(int)> spawn = [&](int depth) {
    const std::uint64_t tag = next_tag++;
    q.schedule_at(draw_time(rng, q.now()), [&, tag, depth] {
      log.fired.emplace_back(tag, q.now());
      if (depth < 3) {
        const int children = static_cast<int>(rng() % 3);
        for (int c = 0; c < children; ++c) spawn(depth + 1);
      }
    });
  };
  const auto probe = [&](double result) {
    log.probes.push_back(result);
    log.probes.push_back(q.next_time());
    log.probes.push_back(static_cast<double>(q.pending()));
    log.probes.push_back(q.now());
  };
  for (int i = 0; i < 64; ++i) spawn(0);
  for (int op = 0; op < operations; ++op) {
    switch (rng() % 7) {
      case 0:
      case 1:
        spawn(static_cast<int>(rng() % 4));
        probe(0.0);
        break;
      case 2:
        probe(q.step() ? 1.0 : 0.0);
        break;
      case 3: {
        // Epoch drain, sometimes across several empty grid cells.
        const Hours until = std::floor(q.now() * 4.0) / 4.0 +
                            0.25 * static_cast<double>(1 + rng() % 12);
        probe(static_cast<double>(q.drain_before(until)));
        if (rng() % 2 == 0) q.advance_to(until);
        probe(0.0);
        break;
      }
      case 4:
        probe(static_cast<double>(
            q.run_until(q.now() + 3.0 * math::uniform01(rng))));
        break;
      case 5:
        probe(static_cast<double>(q.run(rng() % 40)));
        break;
      default:
        q.advance_to(q.now() + 0.25 * static_cast<double>(rng() % 3));
        probe(0.0);
        break;
    }
  }
  probe(static_cast<double>(q.run(EventQueue::kNoLimit)));
  return log;
}

TEST(EventQueue, MatchesReferenceModelUnderRandomTraffic) {
  for (const std::uint64_t seed : {0xE7Eu, 0x51u, 0xB0C4u, 0x2A2Au}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ReferenceEventQueue reference;
    const QueueLog want = drive(reference, seed, 4000);
    // The traffic reaches the far future and back.
    EXPECT_GT(want.fired.size(), 2000u);
    EXPECT_GT(want.fired.back().second, 200.0);
    // A single heap, the traffic's own grid, a finer and an off-grid one,
    // and buckets wider than most gaps.
    for (const Hours width : {0.0, 0.25, 0.1, 0.3, 7.0}) {
      SCOPED_TRACE(::testing::Message() << "bucket width " << width);
      EventQueue queue;
      queue.set_bucket_width(width);
      const QueueLog got = drive(queue, seed, 4000);
      EXPECT_EQ(got.fired, want.fired);
      EXPECT_EQ(got.probes, want.probes);
    }
  }
}

TEST(EventQueue, BucketWidthIsSetOnAnEmptyQueueOnly) {
  EventQueue q;
  EXPECT_THROW(q.set_bucket_width(-1.0), std::invalid_argument);
  EXPECT_THROW(q.set_bucket_width(std::numeric_limits<Hours>::infinity()),
               std::invalid_argument);
  q.set_bucket_width(0.25);
  q.schedule_at(1.0, [] {});
  EXPECT_THROW(q.set_bucket_width(0.5), std::invalid_argument);
  q.run();
  q.set_bucket_width(0.5);  // empty again, clock at 1.0
  q.schedule_at(1.0, [] {});
  EXPECT_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.run(), 1u);
}

TEST(EventQueue, FarBucketsKeepOrderAtExtremeTimes) {
  // Times whose bucket index would overflow an int64 share the saturated
  // last bucket and still fire in (when, seq) order, after every nearer
  // event.
  EventQueue q;
  q.set_bucket_width(0.25);
  std::vector<int> order;
  q.schedule_at(1e300, [&] { order.push_back(4); });
  q.schedule_at(1e30, [&] { order.push_back(2); });
  q.schedule_at(1e300, [&] { order.push_back(5); });
  q.schedule_at(2.0, [&] { order.push_back(1); });
  q.schedule_at(1e200, [&] { order.push_back(3); });
  q.schedule_at(0.0, [&] { order.push_back(0); });
  EXPECT_EQ(q.pending(), 6u);
  EXPECT_EQ(q.next_time(), 0.0);
  EXPECT_EQ(q.run(), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.now(), 1e300);
}

}  // namespace
}  // namespace swapgame::chain
