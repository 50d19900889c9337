#include "kern/hrtimer.hpp"

#include <cassert>

namespace drowsy::kern {

namespace {
const HrTimer* timer_of(const RbNode* node) {
  return rb_entry<HrTimer, &HrTimer::node>(const_cast<RbNode*>(node));
}

HrTimer* timer_of(RbNode* node) { return rb_entry<HrTimer, &HrTimer::node>(node); }

bool timer_less(const HrTimer& a, const HrTimer& b) {
  if (a.expiry != b.expiry) return a.expiry < b.expiry;
  return a.id < b.id;
}
}  // namespace

void HrTimerQueue::arm(HrTimer& timer, util::SimTime expiry) {
  assert(!timer.armed() && "timer already armed");
  timer.expiry = expiry;
  timer.id = next_id_++;
  timer.enqueued = true;
  ++version_;
  tree_.insert(&timer.node, [](const RbNode* a, const RbNode* b) {
    return timer_less(*timer_of(a), *timer_of(b));
  });
}

void HrTimerQueue::cancel(HrTimer& timer) {
  if (!timer.armed()) return;
  timer.enqueued = false;
  ++version_;
  tree_.erase(&timer.node);
}

HrTimer* HrTimerQueue::peek() const {
  RbNode* n = tree_.first();
  return n == nullptr ? nullptr : timer_of(n);
}

HrTimer* HrTimerQueue::peek_filtered(
    const std::function<bool(const HrTimer&)>& keep) const {
  for (RbNode* n = tree_.first(); n != nullptr; n = RbTree::next(n)) {
    HrTimer* t = timer_of(n);
    if (keep(*t)) return t;
  }
  return nullptr;
}

std::size_t HrTimerQueue::fire_due(util::SimTime now) {
  std::size_t fired = 0;
  while (HrTimer* t = peek()) {
    if (t->expiry > now) break;
    t->enqueued = false;
    tree_.erase(&t->node);
    ++version_;
    ++fired;
    if (t->callback) t->callback(now);
  }
  return fired;
}

void HrTimerQueue::for_each(const std::function<void(const HrTimer&)>& visit) const {
  for (RbNode* n = tree_.first(); n != nullptr; n = RbTree::next(n)) visit(*timer_of(n));
}

}  // namespace drowsy::kern
