// A net::Dispatcher that runs every callback inline, at a fixed instant,
// so switch tests observe deliveries without an event queue.
#pragma once

#include "net/sdn_switch.hpp"

namespace drowsy::net {

class ImmediateDispatcher final : public Dispatcher {
 public:
  using Dispatcher::schedule_after;  // keep the tagged overload visible
  void schedule_after(util::SimTime /*delay*/, util::InlineFn fn) override { fn(); }
  [[nodiscard]] util::SimTime now() const override { return 0; }
};

}  // namespace drowsy::net
