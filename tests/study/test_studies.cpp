// Contract of the study registry: every built-in study expands to a
// valid grid, runs through the BatchRunner on a shrunk parameter set,
// and reduces to a figure CSV whose header matches the study's declared
// schema.  Plus the per-figure invariants the paper anchors: vm3 == vm4
// in fig1, grace-on suspends below grace-off in fig3, table1's per-host
// columns.
#include "study/study.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "util/flags.hpp"

namespace fl = drowsy::util::flags;
namespace sc = drowsy::scenario;
namespace st = drowsy::study;

namespace {

/// Shrunk parameters per study so the whole file stays test-fast.
st::StudyParams small_params(const st::Study& study) {
  st::StudyParams params = study.params;
  params.set("days", 1);
  if (study.name == "fig4-im-efficiency") params.set("years", 1);
  return params;
}

std::vector<std::string> lines_of(const std::string& csv) {
  std::vector<std::string> lines;
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> cells_of(const std::string& line) {
  std::vector<std::string> cells;
  std::istringstream in(line);
  std::string cell;
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  return cells;
}

/// Run a study once per (study, shrunk-params) and memoize — several
/// tests inspect the same figure.
const st::StudyOutcome& outcome_of(const std::string& name) {
  static std::map<std::string, st::StudyOutcome> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const st::Study& study = st::StudyRegistry::builtin().at(name);
    it = cache.emplace(name, st::run_study(study, small_params(study), 2)).first;
  }
  return it->second;
}

TEST(StudyRegistry, BuiltinCatalogueIsSane) {
  const auto& registry = st::StudyRegistry::builtin();
  ASSERT_GE(registry.all().size(), 4u);
  for (const st::Study& study : registry.all()) {
    SCOPED_TRACE(study.name);
    EXPECT_FALSE(study.figure.empty());
    EXPECT_FALSE(study.description.empty());
    EXPECT_FALSE(study.csv_header.empty());
    EXPECT_EQ(registry.find(study.name), &study);
    // The grid must expand and validate under the defaults.
    const auto jobs = st::jobs_for(study, study.params);
    EXPECT_FALSE(jobs.empty());
  }
  EXPECT_EQ(registry.find("no-such-study"), nullptr);
  EXPECT_THROW(static_cast<void>(registry.at("no-such-study")), st::StudyError);
}

TEST(StudyRegistry, EveryStudyRoundTripsOnASmallGrid) {
  for (const st::Study& study : st::StudyRegistry::builtin().all()) {
    SCOPED_TRACE(study.name);
    const st::StudyOutcome& outcome = outcome_of(study.name);
    const std::vector<std::string> lines = lines_of(outcome.csv);
    ASSERT_GT(lines.size(), 1u);  // header + data
    EXPECT_EQ(lines.front(), study.csv_header);
    const std::size_t columns = cells_of(study.csv_header).size();
    for (std::size_t i = 1; i < lines.size(); ++i) {
      EXPECT_EQ(cells_of(lines[i]).size(), columns) << "row " << i;
    }
  }
}

TEST(StudyParams, UnknownNamesAreErrorsBothWays) {
  st::StudyParams params = {{"days", 2.0}};
  EXPECT_EQ(params.get("days"), 2.0);
  params.set("days", 5.0);
  EXPECT_EQ(params.get_int("days"), 5);
  EXPECT_THROW(params.set("dayz", 1.0), st::StudyError);
  EXPECT_THROW(static_cast<void>(params.get("rate")), st::StudyError);
  params.set_from_token("days=3");
  EXPECT_EQ(params.get_int("days"), 3);
  EXPECT_THROW(params.set_from_token("days"), st::StudyError);
  EXPECT_THROW(params.set_from_token("days=abc"), st::StudyError);
}

// `study run|dump|reduce` collect --set tokens wherever they appear and
// apply them after the study lookup, so the order on the command line
// does not matter.
TEST(StudyParams, SetOverridesApplyInEitherArgumentOrder) {
  const auto params_of = [](const std::vector<std::string>& tokens) {
    std::string name;
    std::vector<std::string> sets;
    const fl::Command command{"study run", "", {{"<study>", name}}, [] { return 0; },
                              {fl::strings("--set", "k=v", "", sets)}};
    fl::parse(command, tokens);
    return st::StudyRegistry::builtin().at(name).params_with(sets);
  };
  const st::StudyParams before =
      params_of({"--set", "days=3", "--set", "rate=60", "fig3-grace-ablation"});
  const st::StudyParams after =
      params_of({"fig3-grace-ablation", "--set", "days=3", "--set", "rate=60"});
  EXPECT_EQ(before.items(), after.items());
  EXPECT_EQ(before.get_int("days"), 3);
  EXPECT_EQ(before.get_int("rate"), 60);
  // Repeated overrides of one name apply in order: the last one wins.
  EXPECT_EQ(params_of({"--set", "days=4", "fig3-grace-ablation", "--set", "days=5"})
                .get_int("days"),
            5);
}

TEST(Fig1Study, SharedWorkloadRowsAreIdentical) {
  const std::vector<std::string> lines = lines_of(outcome_of("fig1-workload-profiles").csv);
  ASSERT_EQ(lines.size(), 1u + 6u);
  // vm3 and vm4 share NutanixLike variant 0 with a pinned seed: their
  // rows must agree in every column but the name.
  const std::string vm3 = lines[1].substr(lines[1].find(','));
  const std::string vm4 = lines[2].substr(lines[2].find(','));
  EXPECT_EQ(vm3, vm4);
  // All six reconstructions are LLMI-class.
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(cells_of(lines[i]).at(2), "LLMI") << lines[i];
  }
}

TEST(Fig3Study, GraceOnSuppressesOscillation) {
  const std::vector<std::string> lines = lines_of(outcome_of("fig3-grace-ablation").csv);
  ASSERT_EQ(lines.size(), 1u + 8u);  // 4 grace tops x {on, off}
  long on_suspends = 0, off_suspends = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> cells = cells_of(lines[i]);
    const long suspends = std::atol(cells.at(4).c_str());
    (cells.at(2) == "on" ? on_suspends : off_suspends) += suspends;
  }
  // The paper's §IV point: the grace time prevents hosts from
  // "alternating between fully awake and suspended states".
  EXPECT_LT(on_suspends, off_suspends);
  EXPECT_GT(off_suspends, 0);
}

TEST(Fig4Study, QuarterGridAndLlmuSpecificity) {
  const std::vector<std::string> lines = lines_of(outcome_of("fig4-im-efficiency").csv);
  ASSERT_EQ(lines.size(), 1u + 8u * 4u);  // 8 panels x 4 quarters (years=1)
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> cells = cells_of(lines[i]);
    if (cells.at(0) == "fig4-h") {
      // The always-active LLMU trace: the model must not hallucinate
      // idleness (paper: specificity ~1).
      EXPECT_EQ(cells.at(2), "specificity");
      EXPECT_GT(std::atof(cells.at(7).c_str()), 0.95) << lines[i];
    }
  }
}

TEST(Table1Study, PerHostColumnsComeFromRunResults) {
  const std::vector<std::string> lines = lines_of(outcome_of("table1-suspend-fraction").csv);
  ASSERT_EQ(lines.size(), 1u + 2u);  // drowsy-dc and neat+s3
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> cells = cells_of(lines[i]);
    ASSERT_EQ(cells.size(), 7u) << lines[i];
    for (std::size_t c = 1; c <= 5; ++c) {
      const double pct = std::atof(cells.at(c).c_str());
      EXPECT_GE(pct, 0.0) << lines[i];
      EXPECT_LE(pct, 100.0) << lines[i];
    }
  }
  // The control arm's gain column is zero by construction.
  EXPECT_EQ(cells_of(lines[2]).at(0), "neat+s3");
  EXPECT_EQ(cells_of(lines[2]).at(6), "0.000000");
}

TEST(ReduceStudy, RejectsMismatchedResults) {
  const st::Study& study = st::StudyRegistry::builtin().at("fig3-grace-ablation");
  const st::StudyParams params = small_params(study);
  std::vector<sc::RunResult> results = outcome_of("fig3-grace-ablation").results;

  // The full, faithful vector reduces to the same CSV as run_study did.
  EXPECT_EQ(st::reduce_study(study, params, results),
            outcome_of("fig3-grace-ablation").csv);

  // Truncated results: wrong grid size.
  std::vector<sc::RunResult> truncated(results.begin(), results.end() - 1);
  EXPECT_THROW(static_cast<void>(st::reduce_study(study, params, truncated)),
               st::StudyError);

  // Reordered rows: right size, wrong identities.
  std::vector<sc::RunResult> swapped = results;
  std::swap(swapped.front(), swapped.back());
  EXPECT_THROW(static_cast<void>(st::reduce_study(study, params, swapped)),
               st::StudyError);
}

}  // namespace
