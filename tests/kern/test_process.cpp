#include "kern/process.hpp"

#include <gtest/gtest.h>

namespace k = drowsy::kern;

TEST(Blacklist, ExactMatch) {
  k::Blacklist b;
  b.add_exact("watchdog");
  EXPECT_TRUE(b.contains("watchdog"));
  EXPECT_FALSE(b.contains("watchdogs"));
  EXPECT_FALSE(b.contains("watch"));
}

TEST(Blacklist, PrefixMatch) {
  k::Blacklist b;
  b.add_prefix("kworker");
  EXPECT_TRUE(b.contains("kworker/0:1"));
  EXPECT_TRUE(b.contains("kworker"));
  EXPECT_FALSE(b.contains("worker"));
}

TEST(Blacklist, StandardRulesCoverKernelAndMonitoring) {
  const k::Blacklist b = k::Blacklist::standard();
  EXPECT_TRUE(b.contains("kworker/3:2"));
  EXPECT_TRUE(b.contains("ksoftirqd/0"));
  EXPECT_TRUE(b.contains("rcu_sched"));
  EXPECT_TRUE(b.contains("watchdog"));
  EXPECT_TRUE(b.contains("monitoring-agent"));
  EXPECT_TRUE(b.contains("drowsy-suspendd"));
  EXPECT_FALSE(b.contains("webserver"));
  EXPECT_FALSE(b.contains("backup-service"));
  EXPECT_GE(b.rule_count(), 5u);
}

TEST(ProcessTable, SpawnAssignsUniquePids) {
  k::ProcessTable t;
  const k::Pid a = t.spawn("a");
  const k::Pid b = t.spawn("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.size(), 2u);
}

TEST(ProcessTable, FindAndState) {
  k::ProcessTable t;
  const k::Pid pid = t.spawn("svc", k::ProcState::Sleeping);
  ASSERT_NE(t.find(pid), nullptr);
  EXPECT_EQ(t.find(pid)->state, k::ProcState::Sleeping);
  t.set_state(pid, k::ProcState::Running);
  EXPECT_EQ(t.find(pid)->state, k::ProcState::Running);
  EXPECT_EQ(t.find(9999), nullptr);
}

TEST(ProcessTable, AnyOf) {
  k::ProcessTable t;
  t.spawn("a", k::ProcState::Running);
  t.spawn("b", k::ProcState::Running);
  t.spawn("c", k::ProcState::BlockedIo);
  EXPECT_TRUE(t.any_of([](const k::Process& p) { return p.state == k::ProcState::BlockedIo; }));
  EXPECT_FALSE(t.any_of([](const k::Process& p) { return p.state == k::ProcState::Sleeping; }));
  int visits = 0;
  EXPECT_TRUE(t.any_of([&visits](const k::Process& p) {
    ++visits;
    return p.state == k::ProcState::Running;
  }));
  EXPECT_EQ(visits, 1) << "stops at the first match";
}

TEST(ProcessTable, VersionCountsRealChangesOnly) {
  k::ProcessTable t;
  const k::Pid pid = t.spawn("a", k::ProcState::Sleeping);
  const std::uint64_t spawned = t.version();
  EXPECT_GT(spawned, 0u);
  t.set_state(pid, k::ProcState::Sleeping);
  EXPECT_EQ(t.version(), spawned) << "a no-op state write is not a change";
  t.set_state(pid, k::ProcState::BlockedIo);
  EXPECT_EQ(t.version(), spawned + 1);
  t.open_session(pid);
  EXPECT_EQ(t.find(pid)->open_sessions, 1);
  t.close_session(pid);
  EXPECT_EQ(t.find(pid)->open_sessions, 0);
  EXPECT_EQ(t.version(), spawned + 3);
}

TEST(ProcessTable, ForEachVisitsAll) {
  k::ProcessTable t;
  t.spawn("x");
  t.spawn("y");
  int visits = 0;
  t.for_each([&visits](const k::Process&) { ++visits; });
  EXPECT_EQ(visits, 2);
}
