// Golden outputs: the committed CSVs in this directory pin the simulator's
// results across commits.  Each test rebuilds one set of files through the
// same library calls `drowsy_sweep run` (emit_results) and `drowsy_sweep
// study run` use, and byte-compares them with the checked-in copies.
//
// A mismatch names the golden file and its first differing line.  When a
// change is meant to move output, regenerate with
//   tests/golden/regen.sh <build-dir>
// and explain the diff in the change description.
#include <gtest/gtest.h>

#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "expctl/report.hpp"
#include "expctl/spec_io.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "study/study.hpp"

namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;
namespace st = drowsy::study;

namespace {

const std::string kRoot = DROWSY_SOURCE_DIR;

/// Fail the current test unless `actual` equals the golden file's bytes,
/// naming the file and the first line (1-based) where they differ.
void expect_golden(const std::string& golden_name, const std::string& actual) {
  const std::string path = "tests/golden/" + golden_name;
  std::string expected;
  try {
    expected = ec::read_file(kRoot + "/" + path);
  } catch (const std::exception& e) {
    ADD_FAILURE() << path << ": cannot read golden file (" << e.what() << ")";
    return;
  }
  if (expected == actual) return;

  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (std::size_t line = 1;; ++line) {
    const bool has_want = static_cast<bool>(std::getline(want, want_line));
    const bool has_got = static_cast<bool>(std::getline(got, got_line));
    if (!has_want && !has_got) {
      // Same lines, different bytes: only the final newline differs.
      ADD_FAILURE() << path << ": differs in its trailing newline";
      return;
    }
    if (!has_want || !has_got || want_line != got_line) {
      ADD_FAILURE() << path << ":" << line << ": first difference\n  golden: "
                    << (has_want ? want_line : "<end of file>")
                    << "\n  actual: " << (has_got ? got_line : "<end of file>");
      return;
    }
  }
}

/// The golden stem as a test name: "sweeps/ci_smoke.json" -> "ci_smoke",
/// "fig3-grace-ablation" -> "fig3_grace_ablation".
std::string stem_of(const std::string& path) {
  std::string name = path.substr(path.rfind('/') + 1);
  if (const auto dot = name.rfind(".json"); dot != std::string::npos) name.resize(dot);
  return name;
}

std::string param_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = stem_of(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class GoldenSweep : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    // Replay scenarios name their traces relative to the repository root.
    ::setenv("DROWSY_TRACE_ROOT", DROWSY_SOURCE_DIR, 0);
  }
};

TEST_P(GoldenSweep, MatchesCommittedCsvs) {
  const std::string sweep_path = GetParam();
  const std::string name = stem_of(sweep_path);

  const ec::SweepSpec sweep = ec::sweep_from_json(
      ec::Json::parse(ec::read_file(kRoot + "/" + sweep_path)),
      sc::ScenarioRegistry::builtin());
  sc::BatchRunner runner;
  const auto results = runner.run(ec::expand(sweep));

  expect_golden(name + "_runs.csv", sc::to_csv(results));
  expect_golden(name + "_stats.csv", ec::to_csv(ec::summarize(results)));
  expect_golden(name + "_verdicts.csv", ec::to_csv(ec::compare_policies(results)));
}

// The sweeps regen.sh renders, in the same order.
INSTANTIATE_TEST_SUITE_P(Sweeps, GoldenSweep,
                         ::testing::Values("sweeps/ci_smoke.json",
                                           "sweeps/netsim_storm.json",
                                           "sweeps/replay_smoke.json",
                                           "sweeps/paper_catalogue.json",
                                           "tests/golden/registry_grid.json"),
                         param_name);

class GoldenStudy : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenStudy, MatchesCommittedFigureCsv) {
  const st::Study& study = st::StudyRegistry::builtin().at(GetParam());
  const st::StudyOutcome outcome = st::run_study(study, study.params);
  expect_golden(study.name + ".csv", outcome.csv);
}

INSTANTIATE_TEST_SUITE_P(Studies, GoldenStudy,
                         ::testing::Values("fig3-grace-ablation",
                                           "table1-suspend-fraction"),
                         param_name);

}  // namespace
