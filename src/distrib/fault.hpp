// Named crash points: deterministic fault injection for the sweep fabric.
//
// The distributed layer's central claim is "kill -9 any worker at any
// time and the sweep still converges byte-identically".  Arbitrary kills
// exercise arbitrary *moments*; what the claim actually needs proven is
// every *interesting* moment — just after a claim rename, between the
// two archive renames, halfway through a journal append.  Each such
// moment is a named crash point compiled into the control-plane code
// (`DROWSY_CRASH_POINT("daemon.after_claim")`), and arming one makes the
// process die there, exactly, reproducibly:
//
//   DROWSY_CRASH_AT=daemon.after_claim ./drowsy_sweep shard daemon q ...
//   DROWSY_CRASH_AT=journal.after_append:3 ...   # die on the 3rd hit
//
// A triggered point writes one line to stderr and _exit()s with code 86
// (no stack unwinding, no atexit, no stdio flush — the closest a process
// can get to kill -9 from the inside).  Tests arm points
// programmatically (`fault::arm`) and drive the victim in a forked
// child; the chaos CI job arms via the environment and drives real
// daemon processes.
//
// Crash points live only in control-plane paths (claiming, leases,
// journal appends, archiving, reaping) — never inside the simulation,
// whose determinism contract they could not perturb anyway (a crash
// point either kills the process or does nothing).
//
// The whole layer compiles out with -DDROWSY_FAULT_INJECTION=OFF (the
// default for Release builds): DROWSY_CRASH_POINT expands to nothing,
// arming throws, and the catalogue stays queryable so tooling can
// explain why nothing fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace drowsy::distrib::fault {

/// Exit code of a process killed by a triggered crash point, chosen to
/// be distinguishable from every ordinary CLI exit (0..3) and from
/// signal deaths.
inline constexpr int kCrashExitCode = 86;

/// True when the tree was built with crash points compiled in
/// (-DDROWSY_FAULT_INJECTION, the non-Release default).
[[nodiscard]] bool compiled_in();

/// Every crash point name compiled into the tree, in a fixed
/// documentation order.  Arming validates against this list, so a typo
/// in DROWSY_CRASH_AT fails loudly instead of silently never firing.
[[nodiscard]] const std::vector<std::string>& catalogue();

/// Arm one crash point from a "<point>[:<nth>]" spec (nth >= 1, default
/// 1: die on the nth time execution reaches the point).  Replaces any
/// previously armed point and resets hit counters.  Throws DistribError
/// for an unknown point, a malformed spec, or a fault-injection-disabled
/// build.
void arm(const std::string& spec);

/// Arm from the DROWSY_CRASH_AT environment variable; no-op when unset
/// or empty.  Called once by the drowsy_sweep entry point so every
/// subcommand can be crashed from the outside.
void arm_from_env();

/// Disarm and reset all hit counters (tests re-arm between cases).
void disarm();

/// Record one pass through `point`; returns true when this pass is the
/// armed, fatal one — the caller must then complete any staged damage
/// (e.g. a half-written journal row) and call die().  Returns false
/// always in fault-injection-disabled builds.  `point` must be a
/// catalogue name (unknown names are ignored rather than fatal: the
/// macro is the only intended caller).
[[nodiscard]] bool triggered(const char* point) noexcept;

/// Kill the process the way a crash point does: one stderr line, then
/// _exit(kCrashExitCode).  No unwinding, no flushing.
[[noreturn]] void die(const char* point) noexcept;

}  // namespace drowsy::distrib::fault

/// The crash-point hook.  Compiled to nothing without fault injection;
/// with it, a single branch on a relaxed atomic when the point is cold.
#ifdef DROWSY_FAULT_INJECTION
#define DROWSY_CRASH_POINT(point)                                     \
  do {                                                                \
    if (::drowsy::distrib::fault::triggered(point)) {                 \
      ::drowsy::distrib::fault::die(point);                           \
    }                                                                 \
  } while (0)
#else
#define DROWSY_CRASH_POINT(point) ((void)0)
#endif
