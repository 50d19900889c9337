#include "net/heartbeat.hpp"

#include "util/log.hpp"

namespace drowsy::net {

MirroredPair::MirroredPair(Dispatcher& dispatcher, HeartbeatConfig config,
                           std::function<void()> on_promote_standby)
    : dispatcher_(dispatcher),
      config_(config),
      on_promote_standby_(std::move(on_promote_standby)) {}

void MirroredPair::start() {
  if (started_) return;
  started_ = true;
  started_at_ = dispatcher_.now();
  if (!primary_alive_) schedule_promote(started_at_ + config_.miss_threshold * config_.interval);
}

void MirroredPair::kill_primary() {
  if (!primary_alive_) return;
  primary_alive_ = false;
  if (!started_) return;
  const auto last_beat = (dispatcher_.now() - started_at_) / config_.interval;
  schedule_promote(started_at_ + (last_beat + 1 + config_.miss_threshold) * config_.interval);
}

void MirroredPair::schedule_promote(util::SimTime at) {
  dispatcher_.schedule_after(
      at - dispatcher_.now(),
      [this] {
        promoted_ = true;
        DROWSY_LOG_INFO("heartbeat", "primary declared dead after %d misses; promoting standby",
                        config_.miss_threshold);
        if (on_promote_standby_) on_promote_standby_();
      },
      obs::EventTag::Heartbeat);
}

}  // namespace drowsy::net
