#include "core/suspend_module.hpp"

#include <cassert>
#include <cmath>

#include "util/log.hpp"
#include "util/math.hpp"

namespace drowsy::core {

namespace {
/// Sleeping for less than this is not worth the transition energy; it
/// would be suspend/resume thrash on the suspend side (the grace time
/// handles the resume side).
constexpr util::SimTime kMinWorthwhileSleep = util::seconds(30);
}  // namespace

SuspendModule::SuspendModule(sim::Host& host, sim::Cluster& cluster, ModelBuilder& models,
                             SuspendConfig config)
    : host_(host), cluster_(cluster), models_(models), config_(config) {}

bool SuspendModule::host_idle() const { return guest_blocker() == nullptr; }

SuspendModule::Outcome SuspendModule::guest_blocker() const {
  for (const sim::Vm* vm : host_.vms()) {
    const kern::GuestOs& guest = vm->guest();
    if (guest.any_relevant_running(blacklist_)) return &SuspendStats::blocked_by_running;
    if (guest.any_blocked_on_io()) return &SuspendStats::blocked_by_io;
    if (guest.total_open_sessions() > 0) return &SuspendStats::blocked_by_sessions;
  }
  return nullptr;
}

util::SimTime SuspendModule::compute_wake_date() const {
  util::SimTime earliest = util::kNever;
  for (const sim::Vm* vm : host_.vms()) {
    earliest = std::min(earliest, vm->guest().earliest_relevant_timer(blacklist_));
  }
  return earliest;
}

util::SimTime SuspendModule::grace_duration(const util::CalendarTime& c) const {
  // Normalized IP in [0,1]: 1 = determined idle -> short grace (g_min);
  // 0 = determined active -> long grace (g_max), exponential in between.
  // Raw IPs move at the σ scale, so "determined" is measured against the
  // configured multiple of σ (default 7σ, a week of constant activity).
  const double sigma = 1.0 / (365.0 * 24.0);
  const double scale = config_.grace_ip_scale_sigmas * sigma;
  const double raw = models_.host_ip(host_, c).raw;
  const double ipn = (util::clamp(raw / scale, -1.0, 1.0) + 1.0) / 2.0;
  const double g_min = static_cast<double>(config_.grace_min);
  const double g_max = static_cast<double>(config_.grace_max);
  const double g = g_min * std::pow(g_max / g_min, 1.0 - ipn);
  return static_cast<util::SimTime>(g);
}

void SuspendModule::on_host_wake() {
  if (!config_.use_grace_time) return;
  const util::CalendarTime c = util::calendar_of(cluster_.queue().now());
  grace_until_ = cluster_.queue().now() + grace_duration(c);
  decided_ = false;  // the grace window is an input too
}

SuspendModule::InputKey SuspendModule::input_key() const {
  InputKey key{host_.epoch(), 0};
  for (const sim::Vm* vm : host_.vms()) key.guests += vm->guest().epoch();
  return key;
}

void SuspendModule::tick() {
  const InputKey key = input_key();
  const bool grace_ended =
      last_ == &SuspendStats::blocked_by_grace && cluster_.queue().now() >= grace_until_;
  if (!decided_ || key != last_key_ || grace_ended) {
    check();
  } else {
    tally(last_);
  }
}

void SuspendModule::check() {
  last_key_ = input_key();
  last_ = decide();
  decided_ = true;
  tally(last_);
}

void SuspendModule::tally(Outcome outcome) {
  ++stats_.checks;
  if (outcome != nullptr) ++(stats_.*outcome);
}

SuspendModule::Outcome SuspendModule::decide() {
  if (!config_.enabled || host_.state() != sim::PowerState::S0) return nullptr;
  // A heartbeat-partitioned host must stay up: its NIC could not deliver
  // the WoL frame that would ever bring it back from S3.
  if (!host_.reachable()) return nullptr;
  if (config_.only_empty_hosts && !host_.vms().empty()) return &SuspendStats::blocked_by_running;
  const util::SimTime now = cluster_.queue().now();
  if (config_.use_grace_time && now < grace_until_) return &SuspendStats::blocked_by_grace;

  if (const Outcome blocker = guest_blocker()) return blocker;

  const util::SimTime wake_date = compute_wake_date();
  if (wake_date != util::kNever &&
      wake_date - now < kMinWorthwhileSleep + host_.power_model().suspend_latency) {
    return &SuspendStats::blocked_by_imminent_timer;
  }

  DROWSY_LOG_DEBUG("suspend", "%s suspending; wake date %s", host_.name().c_str(),
                   wake_date == util::kNever ? "none"
                                             : util::format_duration(wake_date).c_str());
  if (waking_ != nullptr) waking_->on_host_suspending(host_, wake_date);
  host_.begin_suspend();
  return &SuspendStats::suspends;
}

}  // namespace drowsy::core
