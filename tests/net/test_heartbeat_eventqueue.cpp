// MirroredPair driven by the real simulation EventQueue: the controller
// runs it on the shared queue, so the exact timing contract must hold
// there.  The wake fabric's heartbeat deadlines are pinned end to end in
// tests/netsim/test_wake_fabric.cpp.
#include <gtest/gtest.h>

#include "net/heartbeat.hpp"
#include "sim/event_queue.hpp"

namespace n = drowsy::net;
namespace s = drowsy::sim;
namespace u = drowsy::util;

TEST(MirroredPairOnEventQueue, FailoverInstantTable) {
  // The primary beats at t0, t0+I, ... and each check at t0+kI judges the
  // beat of the interval before it.  A primary killed at T (after its beat
  // at that instant, if T is on the grid) last beat at t0 + floor((T-t0)/I)
  // * I; the next check still sees that beat, then miss_threshold checks
  // miss, so the promote lands at t0 + (floor((T-t0)/I) + 1 + miss) * I.
  // A primary killed before start() never beats: promote at t0 + miss * I.
  enum class Kill { BeforeStart, AtStart, OnGrid, AfterGrid, HalfDay };
  for (const u::SimTime interval : {u::seconds(1), u::seconds(5)}) {
    for (const int miss : {1, 3}) {
      for (const u::SimTime offset : {u::SimTime{0}, u::SimTime{300}}) {
        for (const Kill kill :
             {Kill::BeforeStart, Kill::AtStart, Kill::OnGrid, Kill::AfterGrid, Kill::HalfDay}) {
          SCOPED_TRACE(testing::Message() << "interval=" << interval << " miss=" << miss
                                          << " offset=" << offset
                                          << " kill=" << static_cast<int>(kill));
          s::EventQueue q;
          n::HeartbeatConfig cfg;
          cfg.interval = interval;
          cfg.miss_threshold = miss;
          u::SimTime fired_at = -1;
          int fired = 0;
          n::MirroredPair pair(q, cfg, [&] {
            fired_at = q.now();
            ++fired;
          });
          q.run_until(offset);
          const u::SimTime t0 = q.now();
          u::SimTime expected = 0;
          if (kill == Kill::BeforeStart) {
            pair.kill_primary();
            pair.start();
            expected = t0 + miss * interval;
          } else {
            pair.start();
            u::SimTime at = t0;
            if (kill == Kill::OnGrid) at = t0 + 7 * interval;
            if (kill == Kill::AfterGrid) at = t0 + 7 * interval + 1;
            if (kill == Kill::HalfDay) at = u::hours(12);
            q.run_until(at);
            pair.kill_primary();
            expected = t0 + ((at - t0) / interval + 1 + miss) * interval;
          }
          q.run_until(expected - 1);
          EXPECT_FALSE(pair.standby_promoted());
          q.run_until(expected + 10 * interval);
          EXPECT_EQ(fired_at, expected);
          EXPECT_EQ(fired, 1);
          EXPECT_TRUE(pair.standby_promoted());
          EXPECT_FALSE(pair.primary_alive());
        }
      }
    }
  }
}

TEST(MirroredPairOnEventQueue, HealthyPairDispatchesNothing) {
  // Failover is a computed deadline, not a polled heartbeat: while the
  // primary lives the pair puts no event on the queue.
  s::EventQueue q;
  bool promoted = false;
  n::MirroredPair pair(q, n::HeartbeatConfig{}, [&promoted] { promoted = true; });
  pair.start();
  q.run_until(u::days(1));
  EXPECT_FALSE(promoted);
  EXPECT_EQ(q.executed(), 0u);
}
