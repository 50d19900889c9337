// High-resolution timer registry, modelled on the Linux hrtimer subsystem.
//
// Guest processes that sleep register a timer that will wake them; the
// suspending module walks this structure (paper §V-B) to compute the
// earliest waking date, filtering out timers owned by blacklisted
// processes.  Timers are kept in an intrusive red-black tree ordered by
// expiry, exactly like the kernel's timerqueue.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kern/rbtree.hpp"
#include "util/sim_time.hpp"

namespace drowsy::kern {

using Pid = std::int32_t;

/// One armed timer.  Owned by whoever armed it; the registry holds only an
/// intrusive link.  A timer must be cancelled (or fired) before destruction.
struct HrTimer {
  RbNode node;                        ///< intrusive link, managed by HrTimerQueue
  util::SimTime expiry = util::kNever;  ///< absolute expiry instant
  Pid owner_pid = 0;                  ///< process that armed the timer
  std::uint64_t id = 0;               ///< registry-assigned, for stable ordering
  std::function<void(util::SimTime)> callback;  ///< invoked on expiry (may be empty)
  bool enqueued = false;              ///< maintained by HrTimerQueue

  [[nodiscard]] bool armed() const { return enqueued; }
};

/// Red-black-tree timer queue ordered by (expiry, id).
class HrTimerQueue {
 public:
  HrTimerQueue() = default;
  HrTimerQueue(const HrTimerQueue&) = delete;
  HrTimerQueue& operator=(const HrTimerQueue&) = delete;

  /// Arm `timer` to fire at `expiry`.  The timer must not already be armed.
  void arm(HrTimer& timer, util::SimTime expiry);

  /// Cancel an armed timer.  No-op if not armed.
  void cancel(HrTimer& timer);

  /// Earliest armed timer, or nullptr when none.
  [[nodiscard]] HrTimer* peek() const;

  /// Earliest armed timer whose owner passes `keep` (the suspending
  /// module's per-process filter), or nullptr.  O(k) in the number of
  /// filtered-out timers preceding the first kept one.
  [[nodiscard]] HrTimer* peek_filtered(
      const std::function<bool(const HrTimer&)>& keep) const;

  /// Fire (and remove) every timer with expiry <= now, invoking callbacks.
  /// Returns the number fired.
  std::size_t fire_due(util::SimTime now);

  [[nodiscard]] std::size_t size() const { return tree_.size(); }
  [[nodiscard]] bool empty() const { return tree_.empty(); }

  /// Bumped by every arm, every cancel of an armed timer and every firing.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Visit all armed timers in expiry order.
  void for_each(const std::function<void(const HrTimer&)>& visit) const;

  /// Red-black invariant check (test hook); -1 on violation.
  [[nodiscard]] int validate() const { return tree_.validate(); }

 private:
  RbTree tree_;
  std::uint64_t next_id_ = 1;
  std::uint64_t version_ = 0;
};

}  // namespace drowsy::kern
