// Declarative paper-figure studies.
//
// A Study is the last mile between the sweep pipeline and a paper
// artifact: a parameterized sweep grid (an expctl::SweepSpec builder)
// plus a post-processing reducer that folds the grid's canonical-order
// RunResults into one figure CSV with study-specific derived columns
// (grace on/off from the policy arm, grace-band seconds from the axis
// suffix, quarterly confusion metrics replayed from the trace recipes,
// per-host suspend percentages, ...).
//
// Because a study *is* a sweep, everything PRs 1-4 built applies
// unchanged: the grid runs on the parallel BatchRunner with a shared
// TraceCache, `drowsy_sweep study dump` emits the grid as a sweep file
// that `shard plan|run|daemon|merge` executes like any other sweep, and
// `study reduce --journal ...` turns the merged journals into the same
// figure CSV — byte-identical to a single-process `study run`, because
// reduce() is a pure function of the canonical result order that both
// paths restore.
//
// Determinism contract: sweep() is a pure function of the parameter set
// (same params -> same grid, same canonical order), and reduce() of
// (params, results).  Any trace replay a reducer performs re-materializes
// the grid's own TraceSpecs, which are seeded — so the figure CSV is a
// deterministic artifact of (study, params).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "expctl/spec_io.hpp"
#include "scenario/batch_runner.hpp"

namespace drowsy::study {

/// Unknown study/parameter names, malformed overrides, or results that
/// do not match the study's grid (wrong params, foreign journal).
class StudyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Ordered name -> value parameter set.  A study declares its knobs with
/// defaults; callers override by name (`--set years=1`).  Unknown names
/// are errors in both directions, so a typo can never silently run the
/// default grid.
class StudyParams {
 public:
  StudyParams() = default;
  StudyParams(std::initializer_list<std::pair<std::string, double>> defaults);

  /// Declare a parameter (registry-building side).
  void declare(const std::string& name, double default_value);

  /// Override an existing parameter; throws StudyError on unknown names,
  /// listing the ones the study declares.
  void set(const std::string& name, double value);

  /// Parse and apply a "name=value" override token (CLI `--set`).
  void set_from_token(const std::string& token);

  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] int get_int(const std::string& name) const;

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& items() const {
    return values_;
  }

  /// "years=3 learn_weights=1" — for listings and run banners.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// One reproducible paper artifact.
struct Study {
  std::string name;         ///< registry key, e.g. "fig3-grace-ablation"
  std::string figure;       ///< paper anchor, e.g. "Figure 3 (1b)"
  std::string description;  ///< one line for `study list`
  /// The figure CSV's exact header line (no trailing newline) — doubles
  /// as documentation and as the contract tests/docs check against.
  std::string csv_header;
  StudyParams params;  ///< declared knobs with their defaults

  /// `params` overridden by `--set name=value` tokens, applied in order.
  [[nodiscard]] StudyParams params_with(const std::vector<std::string>& overrides) const;

  /// Build the sweep grid for a parameter set.  Pure; the resulting
  /// SweepSpec round-trips through expctl::to_json for sharded runs.
  std::function<expctl::SweepSpec(const StudyParams&)> sweep;

  /// Fold canonical-job-order results into the figure CSV (header line
  /// included, '\n'-terminated).  Pure function of (params, results).
  std::function<std::string(const StudyParams&,
                            const std::vector<scenario::RunResult>&)>
      reduce;
};

/// Name-keyed study catalogue (mirrors scenario::ScenarioRegistry).
class StudyRegistry {
 public:
  void add(Study study);
  [[nodiscard]] const Study* find(const std::string& name) const;
  [[nodiscard]] const Study& at(const std::string& name) const;  ///< throws
  [[nodiscard]] const std::vector<Study>& all() const { return studies_; }
  [[nodiscard]] std::vector<std::string> names() const;

  /// The built-in paper-figure catalogue: fig1 workload profiles, the
  /// fig3 grace ablation, fig4 idleness-model efficiency and the Table I
  /// suspend fractions.
  [[nodiscard]] static const StudyRegistry& builtin();

 private:
  std::vector<Study> studies_;
};

/// The study's canonical job grid: expctl::expand over sweep(params).
[[nodiscard]] std::vector<scenario::BatchJob> jobs_for(const Study& study,
                                                       const StudyParams& params);

/// One executed study.
struct StudyOutcome {
  std::vector<scenario::RunResult> results;  ///< canonical job order
  std::string csv;                           ///< the figure CSV
  std::uint64_t trace_hits = 0;
  std::uint64_t trace_misses = 0;
};

/// Expand, execute on a BatchRunner (`threads` 0 = hardware concurrency)
/// and reduce.  The direct path; the sharded path is `study dump` ->
/// shard plan/daemon/merge -> reduce_study over the merged results.
[[nodiscard]] StudyOutcome run_study(const Study& study, const StudyParams& params,
                                     std::size_t threads = 0);

/// Reduce results produced elsewhere (a shard merge, a cached run).
/// Verifies that `results` matches the study's grid row for row —
/// scenario name, policy and resolved seed — so reducing against the
/// wrong parameter set or a foreign journal is an error, not a wrong
/// figure.  Throws StudyError naming the first mismatch.
[[nodiscard]] std::string reduce_study(const Study& study, const StudyParams& params,
                                       const std::vector<scenario::RunResult>& results);

/// Same, against a grid the caller already expanded (the CLI's reduce
/// path expands once for the journal merge and reuses it here).
[[nodiscard]] std::string reduce_study(const Study& study, const StudyParams& params,
                                       const std::vector<scenario::BatchJob>& jobs,
                                       const std::vector<scenario::RunResult>& results);

}  // namespace drowsy::study
