#include "kern/hrtimer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace k = drowsy::kern;
namespace u = drowsy::util;

TEST(HrTimerQueue, EmptyPeek) {
  k::HrTimerQueue q;
  EXPECT_EQ(q.peek(), nullptr);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.fire_due(u::hours(100.0)), 0u);
}

TEST(HrTimerQueue, PeekReturnsEarliest) {
  k::HrTimerQueue q;
  k::HrTimer a, b, c;
  q.arm(a, u::seconds(30));
  q.arm(b, u::seconds(10));
  q.arm(c, u::seconds(20));
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek(), &b);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_GE(q.validate(), 0);
}

TEST(HrTimerQueue, EqualExpiriesOrderedByArmSequence) {
  k::HrTimerQueue q;
  k::HrTimer a, b;
  q.arm(a, u::seconds(10));
  q.arm(b, u::seconds(10));
  EXPECT_EQ(q.peek(), &a);  // armed first wins ties
}

TEST(HrTimerQueue, CancelRemoves) {
  k::HrTimerQueue q;
  k::HrTimer a, b;
  q.arm(a, u::seconds(10));
  q.arm(b, u::seconds(20));
  q.cancel(a);
  EXPECT_EQ(q.peek(), &b);
  EXPECT_FALSE(a.armed());
  q.cancel(a);  // double-cancel is a no-op
  EXPECT_EQ(q.size(), 1u);
}

TEST(HrTimerQueue, FireDueInvokesCallbacksInOrder) {
  k::HrTimerQueue q;
  std::vector<int> order;
  k::HrTimer a, b, c;
  a.callback = [&order](u::SimTime) { order.push_back(1); };
  b.callback = [&order](u::SimTime) { order.push_back(2); };
  c.callback = [&order](u::SimTime) { order.push_back(3); };
  q.arm(b, u::seconds(20));
  q.arm(a, u::seconds(10));
  q.arm(c, u::seconds(30));
  EXPECT_EQ(q.fire_due(u::seconds(25)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(c.armed());
}

TEST(HrTimerQueue, FireDueBoundaryInclusive) {
  k::HrTimerQueue q;
  k::HrTimer a;
  q.arm(a, u::seconds(10));
  EXPECT_EQ(q.fire_due(u::seconds(10)), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(HrTimerQueue, CallbackMayRearm) {
  // Recurring-service pattern: the callback re-arms its own timer.
  k::HrTimerQueue q;
  k::HrTimer a;
  int fires = 0;
  a.callback = [&](u::SimTime now) {
    ++fires;
    if (fires < 3) q.arm(a, now + u::seconds(10));
  };
  q.arm(a, u::seconds(10));
  EXPECT_EQ(q.fire_due(u::seconds(10)), 1u);
  EXPECT_EQ(q.fire_due(u::seconds(20)), 1u);
  EXPECT_EQ(q.fire_due(u::seconds(30)), 1u);
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(q.empty());
}

TEST(HrTimerQueue, PeekFilteredSkipsFilteredOwners) {
  k::HrTimerQueue q;
  k::HrTimer kernel_timer, user_timer;
  kernel_timer.owner_pid = 1;
  user_timer.owner_pid = 100;
  q.arm(kernel_timer, u::seconds(5));   // earliest, but filtered out
  q.arm(user_timer, u::seconds(50));
  const k::HrTimer* t =
      q.peek_filtered([](const k::HrTimer& timer) { return timer.owner_pid >= 100; });
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t, &user_timer);
}

TEST(HrTimerQueue, PeekFilteredAllFilteredReturnsNull) {
  k::HrTimerQueue q;
  k::HrTimer a;
  a.owner_pid = 1;
  q.arm(a, u::seconds(5));
  EXPECT_EQ(q.peek_filtered([](const k::HrTimer&) { return false; }), nullptr);
}

TEST(HrTimerQueue, ForEachVisitsInExpiryOrder) {
  k::HrTimerQueue q;
  k::HrTimer a, b, c;
  q.arm(a, u::seconds(30));
  q.arm(b, u::seconds(10));
  q.arm(c, u::seconds(20));
  std::vector<u::SimTime> seen;
  q.for_each([&seen](const k::HrTimer& t) { seen.push_back(t.expiry); });
  EXPECT_EQ(seen, (std::vector<u::SimTime>{u::seconds(10), u::seconds(20), u::seconds(30)}));
}

TEST(HrTimerQueue, ManyTimersStayConsistent) {
  k::HrTimerQueue q;
  std::vector<k::HrTimer> timers(500);
  for (std::size_t i = 0; i < timers.size(); ++i) {
    q.arm(timers[i], u::seconds(static_cast<double>((i * 37) % 100)));
  }
  EXPECT_GE(q.validate(), 0);
  // Cancel every third timer.
  for (std::size_t i = 0; i < timers.size(); i += 3) q.cancel(timers[i]);
  EXPECT_GE(q.validate(), 0);
  // Firing everything leaves the queue empty.
  q.fire_due(u::seconds(100));
  EXPECT_TRUE(q.empty());
}

TEST(HrTimerQueue, VersionBumpsOnArmCancelAndFire) {
  k::HrTimerQueue q;
  k::HrTimer a;
  k::HrTimer b;
  EXPECT_EQ(q.version(), 0u);
  q.arm(a, 10);
  q.arm(b, 20);
  EXPECT_EQ(q.version(), 2u);
  q.cancel(b);
  q.cancel(b);  // not armed: no change
  EXPECT_EQ(q.version(), 3u);
  EXPECT_EQ(q.fire_due(5), 0u);
  EXPECT_EQ(q.version(), 3u);
  EXPECT_EQ(q.fire_due(10), 1u);
  EXPECT_EQ(q.version(), 4u);
}
