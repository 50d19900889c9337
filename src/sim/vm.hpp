// Virtual machine entity.
//
// A VM couples resource requirements (vCPUs, memory), a workload trace
// driving its hourly activity, and a guest OS (process table, timers,
// sessions) that the suspending module introspects.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "kern/guest_os.hpp"
#include "net/addr.hpp"
#include "sim/event_queue.hpp"
#include "trace/trace.hpp"
#include "util/sim_time.hpp"

namespace drowsy::sim {

using VmId = std::uint32_t;

/// Static resource requirements of a VM.
struct VmSpec {
  std::string name;
  int vcpus = 2;
  int memory_mb = 6144;  ///< the paper's VMs have 6 GB each (§VI-A-2)
};

/// One virtual machine.
class Vm {
 public:
  Vm(VmId id, VmSpec spec, trace::ActivityTrace trace);

  [[nodiscard]] VmId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] const VmSpec& spec() const { return spec_; }
  [[nodiscard]] net::Ipv4 ip() const { return ip_; }

  [[nodiscard]] const trace::ActivityTrace& workload() const { return trace_; }
  [[nodiscard]] trace::VmClass vm_class() const { return vm_class_; }

  /// Gross activity level in [0,1] for absolute hour index `h` (the trace
  /// extends periodically).
  [[nodiscard]] double activity_at_hour(std::int64_t h) const;

  /// Record hour `h` into the guest's quantum ledger (applies the noise
  /// filter).  Guest timers are fired by the cluster while the host is
  /// awake — a suspended host cannot fire timers until it resumes.
  void account_hour(std::int64_t h, double noise_floor);

  /// The guest OS the suspending module introspects.
  [[nodiscard]] kern::GuestOs& guest() { return *guest_; }
  [[nodiscard]] const kern::GuestOs& guest() const { return *guest_; }

  /// The VM's main service process.
  [[nodiscard]] kern::Pid service_pid() const { return service_pid_; }

  /// Reflect the workload into the guest's scheduler state: the service
  /// process is Running while the trace shows activity, Sleeping otherwise.
  void set_service_active(bool active);

  /// Convenience for timer-driven services (nightly backups, cron jobs):
  /// registers a guest timer service whose process runs for
  /// `work_duration` after each firing and goes back to sleep when the
  /// latest run ends (the sleep transition is scheduled on `queue`; runs
  /// overlap when the work outlasts the period).  `next_occurrence(now)`
  /// returns the next instant the job wants to run (util::kNever stops
  /// the recurrence).  Returns the job's pid.
  kern::Pid add_scheduled_job(EventQueue& queue, std::string name,
                              std::function<util::SimTime(util::SimTime)> next_occurrence,
                              util::SimTime work_duration,
                              std::function<void(util::SimTime)> on_run = {});

  /// Number of live migrations this VM has experienced.
  [[nodiscard]] int migration_count() const { return migrations_; }
  void note_migration() { ++migrations_; }

 private:
  VmId id_;
  VmSpec spec_;
  net::Ipv4 ip_;
  trace::ActivityTrace trace_;
  trace::VmClass vm_class_;
  std::unique_ptr<kern::GuestOs> guest_;
  kern::Pid service_pid_ = 0;
  int migrations_ = 0;
};

}  // namespace drowsy::sim
