#include "sim/vm.hpp"

#include <cassert>

namespace drowsy::sim {

Vm::Vm(VmId id, VmSpec spec, trace::ActivityTrace trace)
    : id_(id),
      spec_(std::move(spec)),
      ip_(net::Ipv4::for_vm(id)),
      trace_(std::move(trace)),
      vm_class_(trace_.classify()),
      guest_(std::make_unique<kern::GuestOs>()) {
  assert(!trace_.empty() && "a VM needs a workload trace");
  service_pid_ = guest_->spawn_service(spec_.name + "-service");
}

void Vm::set_service_active(bool active) {
  guest_->processes().set_state(service_pid_, active ? kern::ProcState::Running
                                                     : kern::ProcState::Sleeping);
}

kern::Pid Vm::add_scheduled_job(EventQueue& queue, std::string name,
                                std::function<util::SimTime(util::SimTime)> next_occurrence,
                                util::SimTime work_duration,
                                std::function<void(util::SimTime)> on_run) {
  // The pid is only known after add_timer_service returns, but the on_fire
  // closure needs it: route through shared storage.  Runs overlap when the
  // work outlasts the period; only the end of the latest run sleeps the job.
  auto pid_box = std::make_shared<kern::Pid>(0);
  auto runs = std::make_shared<std::uint64_t>(0);
  kern::GuestOs* guest = guest_.get();
  const kern::Pid pid = guest->add_timer_service(
      std::move(name), queue.now(), std::move(next_occurrence),
      [&queue, guest, pid_box, runs, work_duration, on_run = std::move(on_run)](
          util::SimTime fired_at) {
        if (on_run) on_run(fired_at);
        queue.schedule_after(
            work_duration,
            [guest, pid_box, runs, run = ++*runs] {
              if (run == *runs) guest->processes().set_state(*pid_box, kern::ProcState::Sleeping);
            },
            obs::EventTag::Hrtimer);
      });
  *pid_box = pid;
  return pid;
}

double Vm::activity_at_hour(std::int64_t h) const {
  assert(h >= 0);
  return trace_.at_hour(static_cast<std::size_t>(h));
}

void Vm::account_hour(std::int64_t h, double noise_floor) {
  guest_->record_hour(activity_at_hour(h), noise_floor);
}

}  // namespace drowsy::sim
