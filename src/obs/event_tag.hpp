// Event-type tags for event-core attribution (ROADMAP item 2 groundwork).
//
// Every event scheduled on sim::EventQueue carries one of these tags so
// the optional profiling hook can attribute event counts and dispatch
// wall-time to the handful of workload families the simulator generates.
// The set is deliberately small and stable: it mirrors the scheduling
// sites that exist today (guest hrtimers, the suspend checker, request
// arrivals, wake/resume transitions, heartbeats, switch frame
// deliveries), with Other as the catch-all so tag counts always sum to
// the total event count.
//
// This header is dependency-free (included by sim/ and net/ which sit
// below the rest of obs).
#pragma once

#include <array>
#include <cstddef>

namespace drowsy::obs {

enum class EventTag : unsigned char {
  Other = 0,     ///< untagged / miscellaneous (hour loops, test events)
  Hrtimer,       ///< guest timer pumps and scheduled guest work
  SuspendCheck,  ///< the Controller's suspend-check tick, one per grid instant
  Request,       ///< request arrivals injected at the switch
  Wake,          ///< suspend/resume transitions, WoL sends, planned wakes
  Heartbeat,     ///< heartbeat beats, timeouts and mirror probes
  NetsimFrame,   ///< switch frame deliveries (port latency / egress pipe)
};

inline constexpr std::size_t kEventTagCount = 7;

/// Stable lowercase names used in every JSON artifact (bench breakdown,
/// worker metrics snapshots).  Renaming one is a schema change.
[[nodiscard]] constexpr const char* to_string(EventTag tag) {
  switch (tag) {
    case EventTag::Other: return "other";
    case EventTag::Hrtimer: return "hrtimer";
    case EventTag::SuspendCheck: return "suspend-check";
    case EventTag::Request: return "request";
    case EventTag::Wake: return "wake";
    case EventTag::Heartbeat: return "heartbeat";
    case EventTag::NetsimFrame: return "netsim-frame";
  }
  return "?";
}

/// All tags in enum order — the canonical iteration/serialization order.
[[nodiscard]] constexpr std::array<EventTag, kEventTagCount> all_event_tags() {
  return {EventTag::Other,   EventTag::Hrtimer,   EventTag::SuspendCheck,
          EventTag::Request, EventTag::Wake,      EventTag::Heartbeat,
          EventTag::NetsimFrame};
}

}  // namespace drowsy::obs
