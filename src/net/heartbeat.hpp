// Heartbeat-based failure detection for mirrored waking modules.
//
// "All waking modules work in a collaborated manner.  Each waking module
// monitors — via a heart beat mechanism — and mirrors another one.  In
// this way, when a waking module is defective, it is replaced with an
// identical version." (paper §V)
//
// A monitor checks a peer's beats every `interval` and declares it dead
// after `miss_threshold` consecutive checks without one.  Nothing here
// polls: the checks exist only as arithmetic on a computed deadline.  A
// MirroredPair's primary beats are not simulated at all, since its death
// is the only thing that can change the outcome: kill_primary() computes
// the instant the standby's checks would declare it dead and schedules
// the promotion (the standby takes over using the mirrored state) there.
// netsim::WakeFabric sends real beat frames from one fleet tick and fails
// a host over only when a deadline passes with no beat counted.
#pragma once

#include <functional>

#include "net/sdn_switch.hpp"
#include "util/sim_time.hpp"

namespace drowsy::net {

/// Configuration for the heartbeat protocol.
struct HeartbeatConfig {
  util::SimTime interval = util::seconds(1);
  int miss_threshold = 3;  ///< consecutive missed beats before failover
};

/// A primary/standby pair.  From start() at t0 the primary's beats and
/// the standby's checks would fall on the grid t0 + k*I (a check judges
/// the previous interval's beat); only kill_primary() schedules an event.
class MirroredPair {
 public:
  MirroredPair(Dispatcher& dispatcher, HeartbeatConfig config,
               std::function<void()> on_promote_standby);

  /// Begin monitoring; the check grid starts at the current instant.
  void start();

  /// Simulate a crash of the primary.  Killed at T >= t0 (after the beat
  /// of T when T is a grid instant), it last beat at t0 + floor((T-t0)/I)*I,
  /// so the promote lands at t0 + (floor((T-t0)/I) + 1 + miss_threshold)*I.
  /// Killed before start(), it never beats: promote at t0 + miss_threshold*I.
  void kill_primary();

  [[nodiscard]] bool primary_alive() const { return primary_alive_; }
  [[nodiscard]] bool standby_promoted() const { return promoted_; }

 private:
  void schedule_promote(util::SimTime at);

  Dispatcher& dispatcher_;
  HeartbeatConfig config_;
  std::function<void()> on_promote_standby_;
  util::SimTime started_at_ = 0;
  bool started_ = false;
  bool primary_alive_ = true;
  bool promoted_ = false;
};

}  // namespace drowsy::net
