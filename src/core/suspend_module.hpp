// The suspending module — paper §IV.
//
// One instance monitors one host.  Every check interval it decides whether
// the host is genuinely idle:
//  * a process is only evidence of activity when it is Running and not
//    blacklisted (kernel watchdogs, monitoring agents — "false negatives");
//  * a process blocked on I/O keeps the host awake, as do open sessions
//    (SSH/TCP) — the paper's "false positives";
//  * after every resume a *grace time* (5 s – 2 min, exponentially longer
//    as the host's IP decreases) blocks re-suspension, preventing
//    suspend/resume oscillation.
//
// Before suspending, the module walks every guest's hrtimer tree for the
// earliest timer owned by a non-blacklisted process — the *waking date* —
// and registers it with the waking module.
//
// Decisions are taken on the check grid, but only re-computed when an
// input changed: the Controller calls tick() once per grid instant, and a
// host whose (host epoch, Σ resident guest epochs) key is unchanged since
// its last decision repeats that decision's outcome (see tick()).
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "core/model_builder.hpp"
#include "core/waking_module.hpp"
#include "kern/process.hpp"
#include "sim/cluster.hpp"

namespace drowsy::core {

/// Decision statistics (Fig. 3 effectiveness/overhead evaluation).
struct SuspendStats {
  std::uint64_t checks = 0;
  std::uint64_t suspends = 0;
  std::uint64_t blocked_by_grace = 0;
  std::uint64_t blocked_by_running = 0;
  std::uint64_t blocked_by_io = 0;
  std::uint64_t blocked_by_sessions = 0;
  std::uint64_t blocked_by_imminent_timer = 0;
};

/// Per-host suspend daemon.
class SuspendModule {
 public:
  SuspendModule(sim::Host& host, sim::Cluster& cluster, ModelBuilder& models,
                SuspendConfig config);

  /// Attach the waking module(s) to notify before suspending.
  void set_waking_module(WakingModule* waking) { waking_ = waking; }

  /// The idleness decision, exposed for tests: true when nothing relevant
  /// runs, nothing waits on I/O and no session is open on any resident VM.
  [[nodiscard]] bool host_idle() const;

  /// Earliest relevant guest timer across resident VMs (kNever if none).
  [[nodiscard]] util::SimTime compute_wake_date() const;

  /// Grace duration from the host's idleness probability: g_min when the
  /// host is determined idle, exponentially approaching g_max as the IP
  /// drops ("exponentially increasing as the IP decreases", §IV).
  [[nodiscard]] util::SimTime grace_duration(const util::CalendarTime& c) const;

  /// Host-resume hook: opens the post-resume grace window.
  void on_host_wake();

  /// Run one idleness check right now (also used by benches).
  void check();

  /// One check-grid instant.  Re-runs check() when the host's inputs
  /// changed since the last decision, when its grace window has ended, or
  /// when there is no decision to repeat; otherwise counts the last
  /// outcome again.  Repeating is exact: every outcome but the grace one
  /// holds until an input changes (an imminent timer only gets nearer
  /// until it fires or is re-armed, both of which change the key).
  void tick();

  [[nodiscard]] const SuspendStats& stats() const { return stats_; }
  [[nodiscard]] util::SimTime grace_until() const { return grace_until_; }

 private:
  /// A decision's outcome is the SuspendStats counter it increments;
  /// nullptr counts in `checks` only (disabled, not in S0, unreachable).
  /// A suspend is never repeated: leaving S0 bumps the host epoch.
  using Outcome = std::uint64_t SuspendStats::*;
  /// The exact inputs of a decision: membership changes bump the host
  /// epoch and guest epochs never decrease, so the pair differs whenever
  /// anything check() reads has changed.
  struct InputKey {
    std::uint64_t host = 0;
    std::uint64_t guests = 0;
    bool operator==(const InputKey&) const = default;
  };

  [[nodiscard]] InputKey input_key() const;
  /// The idleness decision, with attribution for the statistics: the
  /// first resident guest's blocker (running, I/O, session), or nullptr.
  [[nodiscard]] Outcome guest_blocker() const;
  Outcome decide();
  void tally(Outcome outcome);

  sim::Host& host_;
  sim::Cluster& cluster_;
  ModelBuilder& models_;
  SuspendConfig config_;
  kern::Blacklist blacklist_ = kern::Blacklist::standard();
  WakingModule* waking_ = nullptr;
  util::SimTime grace_until_ = 0;
  bool decided_ = false;  ///< false: nothing to repeat
  Outcome last_ = nullptr;
  InputKey last_key_;
  SuspendStats stats_;
};

}  // namespace drowsy::core
