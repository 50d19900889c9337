// Decision-instant table for the suspending module under a Controller.
//
// Each case builds a small fleet (one zero-activity VM per host, a
// placement policy that never moves anything), changes one suspend input
// mid-hour from an event the test schedules, and pins every power-state
// edge (time, host, from -> to) plus each host's final SuspendStats.
// Checks run on the grid t0 + k * 30 s from install() at t0 = 0, so:
//  * a host that has nothing blocking it suspends at the first grid
//    instant (Suspending), and reaches S3 5 s later;
//  * an input change between two grid instants is seen by the next one;
//  * an input change *at* a grid instant is seen by that instant's check
//    when the event was scheduled at least one interval earlier (it then
//    precedes the check in (time, seq) order), and by the next one when it
//    was scheduled less than an interval earlier;
//  * hour-boundary work (guest run-states from the traces) runs after the
//    check at the boundary instant.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "trace/trace.hpp"

namespace c = drowsy::core;
namespace s = drowsy::sim;
namespace n = drowsy::net;
namespace k = drowsy::kern;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

/// Keeps every VM where the test put it.
class HoldPlacement final : public c::ConsolidationPolicy {
 public:
  void run_hour(std::int64_t) override {}
  [[nodiscard]] std::string name() const override { return "hold"; }
};

struct Fleet {
  s::EventQueue q;
  s::Cluster cluster{q};
  n::SdnSwitch sw{q};
  HoldPlacement hold;
  std::unique_ptr<c::Controller> controller;
  std::vector<std::string> edges;

  Fleet(std::size_t hosts, const std::vector<double>& first_vm_trace) {
    for (std::size_t i = 0; i < hosts; ++i) {
      const std::string id = std::to_string(i + 1);
      s::Host& h = cluster.add_host(s::HostSpec{"P" + id, 8, 16384, 2});
      std::vector<double> trace(48, 0.0);
      if (i == 0 && !first_vm_trace.empty()) trace = first_vm_trace;
      s::Vm& v = cluster.add_vm(s::VmSpec{"V" + id, 2, 6144}, t::ActivityTrace(trace));
      cluster.place(v.id(), h.id());
    }
  }

  s::Host& host(std::size_t i) { return *cluster.hosts()[i]; }
  s::Vm& vm(std::size_t i) { return *cluster.vms()[i]; }

  void install() {
    controller = std::make_unique<c::Controller>(cluster, sw);
    controller->set_policy(&hold);
    controller->install();
    for (const auto& h : cluster.hosts()) {
      h->add_on_transition([this, name = h->name()](s::PowerState from, s::PowerState to) {
        edges.push_back(name + " " + std::to_string(q.now()) + " " + s::to_string(from) +
                        "->" + s::to_string(to));
      });
    }
  }

  std::vector<std::string> stats() const {
    std::vector<std::string> out;
    for (const auto& h : cluster.hosts()) {
      const c::SuspendStats& st = controller->suspend_module(h->id()).stats();
      out.push_back(h->name() + " checks=" + std::to_string(st.checks) +
                    " suspends=" + std::to_string(st.suspends) +
                    " grace=" + std::to_string(st.blocked_by_grace) +
                    " running=" + std::to_string(st.blocked_by_running) +
                    " io=" + std::to_string(st.blocked_by_io) +
                    " sessions=" + std::to_string(st.blocked_by_sessions) +
                    " timer=" + std::to_string(st.blocked_by_imminent_timer));
    }
    return out;
  }
};

struct Case {
  std::string name;
  std::size_t hosts = 1;
  std::int64_t hours = 1;
  std::vector<double> first_vm_trace;  ///< empty: all-zero activity
  std::function<void(Fleet&)> setup;   ///< runs at t = 0, before install()
  std::vector<std::string> edges;
  std::vector<std::string> stats;
};

/// A job that runs once at `at` for `work`.
void add_one_shot_job(Fleet& f, std::size_t vm, u::SimTime at, u::SimTime work) {
  f.vm(vm).add_scheduled_job(
      f.q, "backup", [at](u::SimTime now) { return now < at ? at : u::kNever; }, work);
}

void open_pinned_session(Fleet& f) { f.vm(0).guest().open_session(f.vm(0).service_pid()); }

void close_pinned_session(Fleet& f) { f.vm(0).guest().close_session(f.vm(0).service_pid()); }

std::vector<Case> cases() {
  std::vector<Case> out;

  // Asleep from 30 s; the waking module sends the WoL 3 s ahead of the
  // job's timer (604 s), the job runs 607-727 s and the host suspends at
  // the first grid instant after it sleeps again.
  out.push_back({"scheduled-job-fires-then-sleeps", 1, 1, {},
                 [](Fleet& f) { add_one_shot_job(f, 0, u::seconds(607), u::minutes(2)); },
                 {"P1 30000 S0->suspending", "P1 35000 suspending->S3",
                  "P1 604000 S3->resuming", "P1 604800 resuming->S0",
                  "P1 750000 S0->suspending", "P1 755000 suspending->S3"},
                 {"P1 checks=120 suspends=2 grace=0 running=4 io=0 sessions=0 timer=0"}});

  // An open session blocks until it closes at 95 s.
  out.push_back({"session-open-then-closed", 1, 1, {},
                 [](Fleet& f) {
                   open_pinned_session(f);
                   f.q.schedule_at(u::seconds(95), [&f] { close_pinned_session(f); });
                 },
                 {"P1 120000 S0->suspending", "P1 125000 suspending->S3"},
                 {"P1 checks=120 suspends=1 grace=0 running=0 io=0 sessions=3 timer=0"}});

  // A second guest process waits on I/O until 200 s, runs until 245 s,
  // then sleeps.
  out.push_back({"blocked-io-then-running-then-sleeping", 1, 1, {},
                 [](Fleet& f) {
                   k::ProcessTable& procs = f.vm(0).guest().processes();
                   const k::Pid pid = procs.spawn("db", k::ProcState::BlockedIo);
                   f.q.schedule_at(u::seconds(200), [&procs, pid] {
                     procs.set_state(pid, k::ProcState::Running);
                   });
                   f.q.schedule_at(u::seconds(245), [&procs, pid] {
                     procs.set_state(pid, k::ProcState::Sleeping);
                   });
                 },
                 {"P1 270000 S0->suspending", "P1 275000 suspending->S3"},
                 {"P1 checks=120 suspends=1 grace=0 running=2 io=6 sessions=0 timer=0"}});

  // Woken at 100 s; the grace window (about 24.5 s for a cold model)
  // blocks the 120 s check.
  out.push_back({"grace-expires-after-resume", 1, 1, {},
                 [](Fleet& f) {
                   f.q.schedule_at(u::seconds(100), [&f] { f.host(0).begin_resume(); });
                 },
                 {"P1 30000 S0->suspending", "P1 35000 suspending->S3",
                  "P1 100000 S3->resuming", "P1 100800 resuming->S0",
                  "P1 150000 S0->suspending", "P1 155000 suspending->S3"},
                 {"P1 checks=120 suspends=2 grace=1 running=0 io=0 sessions=0 timer=0"}});

  // Unreachable 10-100 s: never parked while partitioned.
  out.push_back({"unreachable-then-reachable", 1, 1, {},
                 [](Fleet& f) {
                   f.q.schedule_at(u::seconds(10), [&f] { f.host(0).set_reachable(false); });
                   f.q.schedule_at(u::seconds(100), [&f] { f.host(0).set_reachable(true); });
                 },
                 {"P1 120000 S0->suspending", "P1 125000 suspending->S3"},
                 {"P1 checks=120 suspends=1 grace=0 running=0 io=0 sessions=0 timer=0"}});

  // V2 runs a job.  At 100 s it migrates onto the sleeping P1 (waking it)
  // and off P2; at 1000 s it moves on to P3, leaving P1 empty.
  out.push_back({"migration-onto-and-off", 3, 1, {},
                 [](Fleet& f) {
                   f.vm(1).guest().processes().spawn("job", k::ProcState::Running);
                   f.vm(2).guest().processes().spawn("job", k::ProcState::Running);
                   f.q.schedule_at(u::seconds(100),
                                   [&f] { f.cluster.migrate(f.vm(1).id(), f.host(0).id()); });
                   f.q.schedule_at(u::seconds(1000),
                                   [&f] { f.cluster.migrate(f.vm(1).id(), f.host(2).id()); });
                 },
                 {"P1 30000 S0->suspending", "P1 35000 suspending->S3",
                  "P1 100000 S3->resuming", "P1 100800 resuming->S0",
                  "P2 120000 S0->suspending", "P2 125000 suspending->S3",
                  "P1 1020000 S0->suspending", "P1 1025000 suspending->S3"},
                 {"P1 checks=120 suspends=2 grace=1 running=29 io=0 sessions=0 timer=0",
                  "P2 checks=120 suspends=1 grace=0 running=3 io=0 sessions=0 timer=0",
                  "P3 checks=120 suspends=0 grace=0 running=120 io=0 sessions=0 timer=0"}});

  // A timer 64 s out is imminent at 30 s and at 60 s (less than 30 s of
  // sleep plus the 5 s suspend latency away); the job runs 64-69 s.
  out.push_back({"imminent-timer-blocks", 1, 1, {},
                 [](Fleet& f) { add_one_shot_job(f, 0, u::seconds(64), u::seconds(5)); },
                 {"P1 90000 S0->suspending", "P1 95000 suspending->S3"},
                 {"P1 checks=120 suspends=1 grace=0 running=0 io=0 sessions=0 timer=2"}});

  // The session closes exactly at the 60 s grid instant, from an event
  // scheduled 60 s earlier: the 60 s check already sees it closed.
  out.push_back({"same-instant-change-scheduled-early", 1, 1, {},
                 [](Fleet& f) {
                   open_pinned_session(f);
                   f.q.schedule_at(u::seconds(60), [&f] { close_pinned_session(f); });
                 },
                 {"P1 60000 S0->suspending", "P1 65000 suspending->S3"},
                 {"P1 checks=120 suspends=1 grace=0 running=0 io=0 sessions=1 timer=0"}});

  // Scheduled exactly one interval earlier, at 30 s, by an event that runs
  // before the 30 s check: the close still precedes the 60 s check.
  out.push_back({"same-instant-change-scheduled-one-interval-early", 1, 1, {},
                 [](Fleet& f) {
                   open_pinned_session(f);
                   f.q.schedule_at(u::seconds(30), [&f] {
                     f.q.schedule_at(u::seconds(60), [&f] { close_pinned_session(f); });
                   });
                 },
                 {"P1 60000 S0->suspending", "P1 65000 suspending->S3"},
                 {"P1 checks=120 suspends=1 grace=0 running=0 io=0 sessions=1 timer=0"}});

  // The same close, scheduled at 45 s (15 s ahead): the 60 s check runs
  // first and still sees the session; the 90 s check suspends.
  out.push_back({"same-instant-change-scheduled-late", 1, 1, {},
                 [](Fleet& f) {
                   open_pinned_session(f);
                   f.q.schedule_at(u::seconds(45), [&f] {
                     f.q.schedule_at(u::seconds(60), [&f] { close_pinned_session(f); });
                   });
                 },
                 {"P1 90000 S0->suspending", "P1 95000 suspending->S3"},
                 {"P1 checks=120 suspends=1 grace=0 running=0 io=0 sessions=2 timer=0"}});

  // Active in hour 0, idle from hour 1: the 3600 s check runs before the
  // hour-boundary refresh of the service's run-state.
  std::vector<double> busy_first_hour(48, 0.0);
  busy_first_hour[0] = 0.5;
  out.push_back({"hour-boundary-after-check", 1, 2, busy_first_hour, [](Fleet&) {},
                 {"P1 3630000 S0->suspending", "P1 3635000 suspending->S3"},
                 {"P1 checks=240 suspends=1 grace=0 running=120 io=0 sessions=0 timer=0"}});

  return out;
}

}  // namespace

TEST(SuspendDecisions, DecisionInstantTable) {
  for (const Case& tc : cases()) {
    SCOPED_TRACE(tc.name);
    Fleet f(tc.hosts, tc.first_vm_trace);
    tc.setup(f);
    f.install();
    f.controller->run_hours(tc.hours);
    EXPECT_EQ(f.edges, tc.edges);
    EXPECT_EQ(f.stats(), tc.stats);
  }
}
