// Unit tests for the discrete-event scheduler (src/chain/event_queue).
#include "chain/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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
