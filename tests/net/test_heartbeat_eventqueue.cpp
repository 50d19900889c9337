// HeartbeatMonitor and MirroredPair driven by the real simulation
// EventQueue: the wake fabric and the controller run them on the shared
// queue, so the exact timing contract must hold there.
#include <gtest/gtest.h>

#include "net/heartbeat.hpp"
#include "sim/event_queue.hpp"

namespace n = drowsy::net;
namespace s = drowsy::sim;
namespace u = drowsy::util;

TEST(HeartbeatOnEventQueue, FailoverFiresAtTheExactSimulatedInstant) {
  // Checks run at interval, 2*interval, ...; with no beats the third
  // check is the third consecutive miss, so failover fires at exactly
  // 3 * interval — not a tick earlier or later.
  s::EventQueue q;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(5);
  cfg.miss_threshold = 3;
  u::SimTime fired_at = -1;
  n::HeartbeatMonitor monitor(q, cfg, [&] { fired_at = q.now(); });
  monitor.start();
  q.run_until(u::minutes(5));
  EXPECT_EQ(fired_at, 3 * u::seconds(5));
  EXPECT_TRUE(monitor.failed_over());
  EXPECT_EQ(monitor.consecutive_misses(), 3);
}

TEST(HeartbeatOnEventQueue, ABeatResetsTheMissCountdown) {
  // One beat lands between the first and second check: the countdown
  // restarts, pushing failover from 15 s out to 35 s.
  s::EventQueue q;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(5);
  cfg.miss_threshold = 3;
  u::SimTime fired_at = -1;
  n::HeartbeatMonitor monitor(q, cfg, [&] { fired_at = q.now(); });
  monitor.start();
  q.schedule_at(u::seconds(7), [&] { monitor.beat_received(); });
  q.run_until(u::minutes(5));
  // Check at 5 s: miss 1.  Check at 10 s: beat seen, misses reset.
  // Checks at 15/20/25 s miss again, so the third consecutive miss —
  // and the failover — lands at 25 s.
  EXPECT_EQ(fired_at, u::seconds(25));
}

TEST(HeartbeatOnEventQueue, RestartAfterFailoverReArms) {
  // The wake fabric restarts a monitor on recovery; a fresh start() must
  // clear failed_over and run a full new countdown.
  s::EventQueue q;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(5);
  cfg.miss_threshold = 2;
  int fail_count = 0;
  n::HeartbeatMonitor monitor(q, cfg, [&] { ++fail_count; });
  monitor.start();
  q.run_until(u::minutes(1));
  EXPECT_EQ(fail_count, 1);
  monitor.start();
  EXPECT_FALSE(monitor.failed_over());
  q.run_until(u::minutes(2));
  EXPECT_EQ(fail_count, 2);
}

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
