#include "net/heartbeat.hpp"

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"

namespace n = drowsy::net;
namespace s = drowsy::sim;
namespace u = drowsy::util;

TEST(MirroredPair, PromotesStandbyWhenPrimaryDies) {
  s::EventQueue q;
  bool promoted = false;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(1);
  cfg.miss_threshold = 3;
  n::MirroredPair pair(q, cfg, [&promoted] { promoted = true; });
  pair.start();
  q.run_until(u::seconds(10));
  EXPECT_FALSE(promoted) << "healthy primary must not be replaced";

  pair.kill_primary();
  q.run_until(u::seconds(20));
  EXPECT_TRUE(promoted);
  EXPECT_TRUE(pair.standby_promoted());
}

TEST(MirroredPair, HealthyPrimaryRunsIndefinitely) {
  s::EventQueue q;
  bool promoted = false;
  n::MirroredPair pair(q, n::HeartbeatConfig{}, [&promoted] { promoted = true; });
  pair.start();
  q.run_until(u::minutes(10));
  EXPECT_FALSE(promoted);
  EXPECT_TRUE(pair.primary_alive());
}
