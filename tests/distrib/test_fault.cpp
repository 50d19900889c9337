// distrib::fault contract: the catalogue is the source of truth, arming
// validates against it, the nth-hit counter is exact, and a triggered
// point kills the process with the crash exit code — reproducibly, so
// the chaos suite can assert *where* a victim died.
#include "distrib/fault.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "distrib/shard.hpp"

namespace dt = drowsy::distrib;
namespace fault = drowsy::distrib::fault;

namespace {

/// Every test leaves the process disarmed: a leaked armed point would
/// kill an unrelated later test at its next journal append.
struct FaultFixture : ::testing::Test {
  void SetUp() override { fault::disarm(); }
  void TearDown() override {
    fault::disarm();
    ::unsetenv("DROWSY_CRASH_AT");
  }
};

}  // namespace

TEST_F(FaultFixture, CatalogueIsStable) {
  // Docs and the chaos CI job iterate this list; adding a crash point
  // must extend it (and docs/sweeps.md), never reorder or drop names.
  const std::vector<std::string> expected = {
      "daemon.after_claim",   "daemon.after_lease",    "daemon.after_adopt",
      "journal.after_append", "journal.torn_append",   "daemon.before_archive",
      "daemon.mid_archive",   "reaper.before_commit",  "reaper.after_commit",
      "reaper.after_journal",
  };
  EXPECT_EQ(fault::catalogue(), expected);
}

TEST_F(FaultFixture, ArmRejectsUnknownPointsAndBadCounts) {
  if (!fault::compiled_in()) {
    // Compiled out, arming anything must refuse — including valid names.
    EXPECT_THROW(fault::arm("daemon.after_claim"), dt::DistribError);
    GTEST_SKIP() << "fault injection compiled out";
  }
  EXPECT_THROW(fault::arm("no.such.point"), dt::DistribError);
  EXPECT_THROW(fault::arm("daemon.after_claim:0"), dt::DistribError);
  EXPECT_THROW(fault::arm("daemon.after_claim:x"), dt::DistribError);
  EXPECT_THROW(fault::arm("daemon.after_claim:"), dt::DistribError);
  EXPECT_NO_THROW(fault::arm("daemon.after_claim"));
  EXPECT_NO_THROW(fault::arm("daemon.after_claim:3"));
}

TEST_F(FaultFixture, TriggeredFiresOnExactlyTheNthHit) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  fault::arm("journal.after_append:3");
  EXPECT_FALSE(fault::triggered("journal.after_append"));
  EXPECT_FALSE(fault::triggered("journal.after_append"));
  EXPECT_TRUE(fault::triggered("journal.after_append"));
  // One-shot semantics: the 4th hit is past the armed count.
  EXPECT_FALSE(fault::triggered("journal.after_append"));
  // Unarmed and unknown points never fire.
  EXPECT_FALSE(fault::triggered("daemon.after_claim"));
  EXPECT_FALSE(fault::triggered("no.such.point"));
}

TEST_F(FaultFixture, ReArmingReplacesThePreviousPoint) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  fault::arm("daemon.after_claim");
  fault::arm("daemon.before_archive");  // resets counters, moves the arm
  EXPECT_FALSE(fault::triggered("daemon.after_claim"));
  EXPECT_TRUE(fault::triggered("daemon.before_archive"));
}

TEST_F(FaultFixture, ArmFromEnvReadsDrowsyCrashAt) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  ::unsetenv("DROWSY_CRASH_AT");
  fault::arm_from_env();  // unset: stays disarmed
  EXPECT_FALSE(fault::triggered("daemon.after_claim"));

  ::setenv("DROWSY_CRASH_AT", "daemon.after_claim:2", 1);
  fault::arm_from_env();
  EXPECT_FALSE(fault::triggered("daemon.after_claim"));
  EXPECT_TRUE(fault::triggered("daemon.after_claim"));

  ::setenv("DROWSY_CRASH_AT", "not.a.point", 1);
  EXPECT_THROW(fault::arm_from_env(), dt::DistribError);
}

TEST_F(FaultFixture, DieExitsWithTheCrashCodeNamingThePoint) {
  EXPECT_EXIT(fault::die("daemon.after_claim"),
              ::testing::ExitedWithCode(fault::kCrashExitCode),
              "crash point daemon.after_claim triggered");
}

TEST_F(FaultFixture, CrashPointMacroKillsTheProcessExactlyOnTheNthPass) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  EXPECT_EXIT(
      {
        fault::arm("daemon.mid_archive:2");
        DROWSY_CRASH_POINT("daemon.mid_archive");  // 1st pass: survives
        DROWSY_CRASH_POINT("daemon.mid_archive");  // 2nd pass: dies here
        std::exit(0);                              // never reached
      },
      ::testing::ExitedWithCode(fault::kCrashExitCode),
      "crash point daemon.mid_archive triggered");
}
