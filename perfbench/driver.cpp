// Sweep benchmark driver: runs one workload's job grid through libdrowsy
// the way users run sweeps, times it from outside the library, checks
// the outputs, and prints one JSON result line (see BENCHMARK.md).
//
//   perfbench_driver --workload catalogue|warmup|netsim-shard --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    [--expect-digest HEX] [--commit ID]
//
// The driver also re-runs itself with --setup-probe 1: such a child only
// sets up and reports readiness, which times setup_s from process start.
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// simulator.  --trace 1 adds a traced pass (spans around every public
// call of run_one's stages and of the fabric) and a profiled pass
// (obs::EventProfile on every queue) for the per-layer metrics.
// Load is a closed loop: min(nproc, 4) workers, each starting its next
// run only after the current one finished.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "distrib/journal.hpp"
#include "distrib/merge.hpp"
#include "distrib/shard.hpp"
#include "distrib/shard_runner.hpp"
#include "expctl/json.hpp"
#include "expctl/report.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "obs/event_profile.hpp"
#include "obs/event_tag.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/trace_cache.hpp"
#include "stats.hpp"
#include "util/sim_time.hpp"
#include "util/thread_pool.hpp"

extern char** environ;  // posix_spawn passes it on to set-up probes

namespace {

namespace sc = drowsy::scenario;
namespace ec = drowsy::expctl;
namespace dt = drowsy::distrib;
namespace obs = drowsy::obs;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using perfbench::median;
using perfbench::percentile;
using perfbench::Span;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- workloads -----------------------------------------------------------------

constexpr const char* kCatalogueFile = "sweeps/paper_catalogue.json";
constexpr std::size_t kShards = 2;               // netsim-shard journals
constexpr std::size_t kNetsimReplicates = 5;     // 2 scenarios x 4 policies x 5
constexpr int kWarmupFleets = 16;                // x 2 replicates = 32 runs
constexpr int kWarmupPretrainDays = 56;          // about 8 weeks of history

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 4;  ///< min(nproc, 4), set by parse()
  std::string work_dir;
  std::string expect_digest;  ///< runs-CSV fnv1a64 at the default seed; "" = none
  std::string commit = "unknown";
  std::string self;          ///< this executable, for set-up probes
  bool setup_probe = false;  ///< child mode: set up, signal readiness, exit
};

bool sharded(const Options& o) { return o.workload == "netsim-shard"; }

/// Seed 0 keeps every scenario's own seed (the sweep files' grid); any
/// other benchmark seed rebases each scenario seed on it.
void rebase_seeds(ec::SweepSpec& sweep, std::uint64_t seed) {
  if (seed == 0) return;
  for (sc::ScenarioSpec& spec : sweep.scenarios) {
    spec.seed = sc::mix_seed(spec.seed, seed);
    if (spec.seed == 0) spec.seed = 1;  // 0 means "unset" to BatchJob
  }
}

/// paper-sim-phases-shaped fleets (48 VMs on 12 hosts) with a long
/// pretrain and one simulated day.  Phase offsets and window lengths come
/// from the seed; one policy and per-fleet seeds keep TraceCache missing.
ec::SweepSpec warmup_sweep(std::uint64_t seed) {
  const sc::ScenarioSpec& base = sc::ScenarioRegistry::builtin().at("paper-sim-phases");
  std::mt19937_64 rng(seed);
  ec::SweepSpec sweep;
  sweep.name = "warmup";
  sweep.policies = {sc::Policy::DrowsyDc};
  sweep.replicates = 2;
  for (int f = 0; f < kWarmupFleets; ++f) {
    sc::ScenarioSpec spec = base;
    spec.name = "warmup-" + std::to_string(f);
    spec.description = "paper-sim-phases-shaped fleet with an 8-week pretrain";
    spec.paper_figure.clear();
    for (sc::VmGroup& group : spec.vms) {
      if (group.workload.kind != sc::TraceKind::PhaseWindow) continue;
      group.workload.hour = static_cast<int>(rng() % 24);
      group.workload.span_hours = 2 + static_cast<int>(rng() % 5);
      group.workload.noise = 0.02;
    }
    spec.pretrain_days = kWarmupPretrainDays;
    spec.duration_days = 1;
    spec.seed = sc::mix_seed(rng(), static_cast<std::uint64_t>(f));
    if (spec.seed == 0) spec.seed = 1;
    sweep.scenarios.push_back(std::move(spec));
  }
  return sweep;
}

/// The workload's sweep document, written where set_up() reads it.
void write_input(const Options& o, const std::string& path) {
  const sc::ScenarioRegistry& registry = sc::ScenarioRegistry::builtin();
  ec::SweepSpec sweep;
  if (o.workload == "catalogue") {
    sweep = ec::sweep_from_json(ec::Json::parse(ec::read_file(kCatalogueFile)), registry);
    rebase_seeds(sweep, o.seed);
  } else if (o.workload == "warmup") {
    sweep = warmup_sweep(o.seed);
  } else {
    sweep.name = "netsim-shard";
    sweep.scenarios = {registry.at("wake-storm-net"), registry.at("netsim-failover")};
    sweep.policies = {sc::Policy::DrowsyDc, sc::Policy::NeatS3, sc::Policy::Oasis,
                      sc::Policy::DrowsyNetBatch};
    sweep.replicates = kNetsimReplicates;
    rebase_seeds(sweep, o.seed);
  }
  if (!sc::write_file(path, ec::to_json(sweep).dump())) {
    throw std::runtime_error("cannot write " + path);
  }
}

// --- spans -----------------------------------------------------------------------

/// In-memory span store shared by the workers of one traced pass.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  /// Open a span starting now; returns its index for children and close().
  std::int64_t open(const char* name, std::int64_t parent, std::int64_t run) {
    const std::int64_t t = now();
    return add(name, parent, run, t, t);
  }
  void close(std::int64_t index) {
    const std::int64_t t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = t;
  }
  std::int64_t add(const char* name, std::int64_t parent, std::int64_t run,
                   std::int64_t start, std::int64_t end) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, end, parent, run});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Only once the pass's workers have joined.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Run `fn` and return its wall time in ms, recording it as a span under
/// `parent` when a tracer is attached.
template <class Fn>
double timed(Tracer* tr, const char* name, std::int64_t parent, Fn&& fn) {
  const std::int64_t span = tr != nullptr ? tr->open(name, parent, -1) : -1;
  const auto t0 = Clock::now();
  fn();
  const double ms = ms_between(t0, Clock::now());
  if (tr != nullptr) tr->close(span);
  return ms;
}

// --- set-up --------------------------------------------------------------------

struct Setup {
  std::vector<sc::BatchJob> jobs;
  std::vector<std::vector<std::size_t>> plan;  ///< netsim-shard only
  double parse_expand_ms = 0.0;  ///< read_file + sweep_from_json + expand
  double plan_ms = 0.0;          ///< plan_shards + journal-directory preparation
};

std::string journal_path(const std::string& dir, std::size_t shard) {
  return dir + "/shard_" + std::to_string(shard) + ".journal.jsonl";
}

Setup set_up(const Options& o, const std::string& dir, Tracer* tr = nullptr,
             std::int64_t parent = -1) {
  Setup s;
  s.parse_expand_ms = timed(tr, "parse_expand", parent, [&] {
    const ec::SweepSpec sweep = ec::sweep_from_json(
        ec::Json::parse(ec::read_file(dir + "/sweep.json")), sc::ScenarioRegistry::builtin());
    s.jobs = ec::expand(sweep);
  });
  if (sharded(o)) {
    s.plan_ms = timed(tr, "plan", parent, [&] {
      s.plan = dt::plan_shards(s.jobs, kShards, dt::ShardStrategy::Balanced);
      fs::remove_all(dir + "/journals");
      fs::create_directories(dir + "/journals");
    });
  }
  return s;
}

// --- the fabric: gather, report, emit --------------------------------------------

struct FabricTimes {
  double read_ms = 0.0;
  double merge_ms = 0.0;
  double report_ms = 0.0;
  double emit_ms = 0.0;
};

std::vector<sc::RunResult> gather(const Setup& s, const std::string& dir, FabricTimes& t,
                                  Tracer* tr = nullptr, std::int64_t parent = -1) {
  std::vector<dt::JournalEntry> entries;
  t.read_ms = timed(tr, "read_journal", parent, [&] {
    for (std::size_t k = 0; k < s.plan.size(); ++k) {
      dt::JournalContents c = dt::read_journal(journal_path(dir + "/journals", k));
      entries.insert(entries.end(), std::make_move_iterator(c.entries.begin()),
                     std::make_move_iterator(c.entries.end()));
    }
  });
  std::vector<sc::RunResult> results;
  t.merge_ms = timed(tr, "merge", parent,
                     [&] { results = dt::merge_journals(s.jobs, entries); });
  return results;
}

/// summarize + compare_policies, then the runs/aggregate/verdict CSVs.
/// Returns the runs CSV: the bytes every output check compares.
std::string report_and_emit(const std::vector<sc::RunResult>& results, const std::string& dir,
                            FabricTimes& t, Tracer* tr = nullptr, std::int64_t parent = -1) {
  std::vector<ec::ReplicateRow> rows;
  std::vector<ec::PolicyComparison> verdicts;
  t.report_ms = timed(tr, "report", parent, [&] {
    rows = ec::summarize(results);
    verdicts = ec::compare_policies(results);
  });
  std::string runs_csv;
  t.emit_ms = timed(tr, "emit", parent, [&] {
    runs_csv = sc::to_csv(results);
    if (!sc::write_file(dir + "/runs.csv", runs_csv) ||
        !sc::write_file(dir + "/aggregate.csv", ec::to_csv(rows)) ||
        !sc::write_file(dir + "/verdicts.csv", ec::to_csv(verdicts))) {
      throw std::runtime_error("cannot write the sweep CSVs to " + dir);
    }
  });
  return runs_csv;
}

// --- untraced sweep ------------------------------------------------------------------

struct SweepOutcome {
  std::vector<sc::RunResult> results;
  std::vector<double> run_wall_ms;  ///< by job index, from the completion callback
  std::string runs_csv;
  double sweep_s = 0.0;      ///< parsed grid .. emitted CSVs
  double run_phase_s = 0.0;  ///< first dispatch .. last run finished
};

SweepOutcome run_untraced(const Options& o, const Setup& s, const std::string& dir) {
  SweepOutcome r;
  r.run_wall_ms.assign(s.jobs.size(), 0.0);
  FabricTimes fabric;
  const auto t0 = Clock::now();
  if (!sharded(o)) {
    sc::BatchRunner runner(o.workers);
    r.results = runner.run(s.jobs, [&](std::size_t i, const sc::RunResult&, double ms) {
      r.run_wall_ms[i] = ms;
    });
  } else {
    for (std::size_t k = 0; k < s.plan.size(); ++k) {
      dt::ShardManifest m;
      m.sweep_name = o.workload;
      m.shard_index = k;
      m.shard_count = s.plan.size();
      m.total_jobs = s.jobs.size();
      m.job_indices = s.plan[k];
      static_cast<void>(dt::run_shard(
          s.jobs, m, journal_path(dir + "/journals", k), o.workers, {},
          [&](const dt::JournalEntry& e) { r.run_wall_ms[e.index] = e.wall_ms; }));
    }
  }
  const auto t1 = Clock::now();
  if (sharded(o)) r.results = gather(s, dir, fabric);
  r.runs_csv = report_and_emit(r.results, dir, fabric);
  const auto t2 = Clock::now();
  r.run_phase_s = ms_between(t0, t1) / 1e3;
  r.sweep_s = (s.plan_ms + ms_between(t0, t2)) / 1e3;
  return r;
}

/// One fabric_s sample: the reduction path alone (plan, gather, report,
/// emit) over an already finished sweep, so that every sample times the
/// same work without re-running simulations.
double fabric_again(const Options& o, const Setup& s, const std::vector<sc::RunResult>& results,
                    const std::string& dir) {
  FabricTimes t;
  const auto t0 = Clock::now();
  if (sharded(o)) {
    static_cast<void>(dt::plan_shards(s.jobs, kShards, dt::ShardStrategy::Balanced));
    static_cast<void>(report_and_emit(gather(s, dir, t), dir, t));
  } else {
    static_cast<void>(report_and_emit(results, dir, t));
  }
  return ms_between(t0, Clock::now()) / 1e3;
}

// --- traced and profiled passes -----------------------------------------------------

/// What only the profiled pass collects.
struct Profiling {
  std::mutex mutex;
  obs::EventProfile profile;
  std::vector<double> cold_build_ms;
  std::vector<double> synth_ms;
};

struct TracedOutcome {
  std::vector<sc::BatchJob> jobs;
  std::vector<sc::RunResult> results;
  std::vector<std::uint64_t> events;  ///< EventQueue::executed() per job
  std::vector<double> append_us;      ///< timed JournalWriter::append calls
  std::string runs_csv;
  double run_phase_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<bool> threw;  ///< by job index
};

/// run_one's stages through their public calls, each under a span; hour
/// spans are cut at run_hours' on_hour_end callback.
sc::RunResult traced_run(const sc::BatchJob& job, std::int64_t id, sc::TraceCache& cache,
                         Tracer& tr, std::int64_t parent, Profiling* prof,
                         std::uint64_t& events) {
  const std::uint64_t seed = job.resolved_seed();
  obs::EventProfile profile;  // outlives the run whose queue points at it
  const std::int64_t run_span = tr.open("run", parent, id);
  std::int64_t span = tr.open("build", run_span, id);
  std::unique_ptr<sc::ScenarioRun> run = sc::build(job.spec, job.policy, seed, &cache);
  tr.close(span);
  if (prof != nullptr) run->queue.set_profile(&profile);
  span = tr.open("pretrain", run_span, id);
  run->controller->pretrain_models(static_cast<std::int64_t>(job.spec.pretrain_days) *
                                   drowsy::util::kHoursPerDay);
  tr.close(span);
  const std::int64_t hours_span = tr.open("run_hours", run_span, id);
  std::int64_t hour_start = tr.now();
  run->controller->run_hours(
      static_cast<std::int64_t>(job.spec.duration_days) * drowsy::util::kHoursPerDay,
      [&](std::int64_t h) {
        const std::int64_t t = tr.now();
        tr.add("hour", hours_span, id, hour_start, t);
        hour_start = t;
        if (run->net) run->net->on_hour_end(h);
      });
  tr.close(hours_span);
  events = run->queue.executed();
  span = tr.open("harvest", run_span, id);
  sc::RunResult result = sc::harvest(job.spec.name, *run);
  tr.close(span);
  run->queue.set_profile(nullptr);
  run.reset();
  tr.close(run_span);
  if (prof != nullptr) {
    // A cold build (fresh cache) against a warm rebuild of the same spec
    // with the same cache: the difference is trace synthesis.
    sc::TraceCache fresh;
    const auto t0 = Clock::now();
    const auto cold = sc::build(job.spec, job.policy, seed, &fresh);
    const auto t1 = Clock::now();
    const auto warm = sc::build(job.spec, job.policy, seed, &fresh);
    const auto t2 = Clock::now();
    const std::lock_guard<std::mutex> lock(prof->mutex);
    prof->profile.merge(profile);
    prof->cold_build_ms.push_back(ms_between(t0, t1));
    prof->synth_ms.push_back(ms_between(t0, t1) - ms_between(t1, t2));
  }
  return result;
}

/// One sweep with every stage under a span.  Runs go through the same
/// worker pool and schedule as BatchRunner (util::parallel_for); on
/// netsim-shard each finished run is journaled like run_shard does, with
/// every append timed.  A run that throws is reported, not fatal.
TracedOutcome run_traced(const Options& o, const std::string& dir, Tracer& tr,
                         Profiling* prof) {
  TracedOutcome r;
  const std::int64_t sweep_span = tr.open("sweep", -1, -1);
  const Setup s = set_up(o, dir, &tr, sweep_span);
  r.jobs = s.jobs;
  r.results.resize(s.jobs.size());
  r.events.assign(s.jobs.size(), 0);
  r.threw.assign(s.jobs.size(), true);
  drowsy::util::ThreadPool pool(o.workers);
  sc::TraceCache cache;
  std::mutex done_mutex;
  const auto run_jobs = [&](const std::vector<std::size_t>& indices, std::int64_t parent,
                            dt::JournalWriter* writer, const std::vector<dt::JobKey>& keys) {
    drowsy::util::parallel_for(pool, indices.size(), [&](std::size_t j) {
      const std::size_t i = indices[j];
      const auto start = Clock::now();
      try {
        r.results[i] = traced_run(s.jobs[i], static_cast<std::int64_t>(i), cache, tr, parent,
                                  prof, r.events[i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "run %zu (%s) threw: %s\n", i, s.jobs[i].spec.name.c_str(),
                     e.what());
        return;
      }
      const double wall_ms = ms_between(start, Clock::now());
      const std::lock_guard<std::mutex> lock(done_mutex);
      r.threw[i] = false;
      if (writer == nullptr) return;
      dt::JournalEntry entry;
      entry.index = i;
      entry.key = keys[i];
      entry.result = r.results[i];
      entry.wall_ms = wall_ms;
      const std::int64_t a = tr.now();
      writer->append(entry);
      const std::int64_t b = tr.now();
      tr.add("journal_append", parent, static_cast<std::int64_t>(i), a, b);
      r.append_us.push_back(static_cast<double>(b - a) / 1e3);
    });
  };
  const auto t0 = Clock::now();
  if (!sharded(o)) {
    std::vector<std::size_t> all(s.jobs.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    run_jobs(all, sweep_span, nullptr, {});
  } else {
    const std::vector<dt::JobKey> keys = dt::job_keys(s.jobs);
    for (std::size_t k = 0; k < s.plan.size(); ++k) {
      const std::int64_t shard_span = tr.open("shard", sweep_span, -1);
      dt::JournalWriter writer(journal_path(dir + "/journals", k), 0);
      run_jobs(s.plan[k], shard_span, &writer, keys);
      tr.close(shard_span);
    }
  }
  r.run_phase_s = ms_between(t0, Clock::now()) / 1e3;
  r.cache_hits = cache.hits();
  r.cache_misses = cache.misses();
  bool complete = true;
  for (const bool threw : r.threw) complete = complete && !threw;
  if (complete) {
    FabricTimes t;
    if (sharded(o)) r.results = gather(s, dir, t, &tr, sweep_span);
    r.runs_csv = report_and_emit(r.results, dir, t, &tr, sweep_span);
  }
  tr.close(sweep_span);
  return r;
}

/// Layer samples pooled over traced passes, read off their spans.
struct LayerSamples {
  std::vector<double> parse_expand_ms, plan_ms, pretrain_ms, run_hours_ms, hour_ms, harvest_ms,
      run_self_ms, read_ms, merge_ms, report_ms, emit_ms, append_us, run_phase_s;
  double run_hours_ns = 0.0;
  std::uint64_t events = 0;
  std::uint64_t runs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
};

void collect(const Tracer& tr, const TracedOutcome& out, LayerSamples& l) {
  const std::vector<Span>& spans = tr.spans();
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  const std::map<std::string, std::vector<double>*> by_name = {
      {"parse_expand", &l.parse_expand_ms}, {"plan", &l.plan_ms},
      {"pretrain", &l.pretrain_ms},         {"run_hours", &l.run_hours_ms},
      {"hour", &l.hour_ms},                 {"harvest", &l.harvest_ms},
      {"read_journal", &l.read_ms},         {"merge", &l.merge_ms},
      {"report", &l.report_ms},             {"emit", &l.emit_ms}};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double ms = static_cast<double>(spans[i].duration_ns()) / 1e6;
    if (const auto it = by_name.find(spans[i].name); it != by_name.end()) {
      it->second->push_back(ms);
    }
    if (spans[i].name == "run") l.run_self_ms.push_back(static_cast<double>(self[i]) / 1e6);
    if (spans[i].name == "run_hours") l.run_hours_ns += ms * 1e6;
  }
  for (const std::uint64_t e : out.events) l.events += e;
  l.runs += out.events.size();
  l.append_us.insert(l.append_us.end(), out.append_us.begin(), out.append_us.end());
  l.run_phase_s.push_back(out.run_phase_s);
  l.cache_hits += out.cache_hits;
  l.cache_lookups += out.cache_hits + out.cache_misses;
}

/// Spans of the last traced pass, one JSON object per line.
void write_spans(const Tracer& tr, const std::string& path) {
  std::string out;
  for (const Span& s : tr.spans()) {
    ec::Json j = ec::Json::object();
    j.set("name", s.name);
    j.set("start_ns", s.start_ns);
    j.set("end_ns", s.end_ns);
    j.set("parent", s.parent);
    j.set("run", s.run);
    out += j.dump(0) + "\n";
  }
  if (!sc::write_file(path, out)) throw std::runtime_error("cannot write " + path);
}

// --- output checks -------------------------------------------------------------------

/// Runs attempted and runs failed (threw or failed an output check), plus
/// checks that concern no single run.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool ok = true;
  int reported = 0;

  void fail(const std::string& what) {
    ok = false;
    if (++reported <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  /// Close one sweep's accounting: `bad[i]` marks job i as failed.
  void account(const std::vector<bool>& bad) {
    attempted += bad.size();
    for (const bool b : bad) failed += b ? 1 : 0;
  }
};

/// Every row: identity, simulated_hours == duration_days x 24, SLA and
/// suspend fractions in [0, 1], kWh > 0.
void check_rows(const std::vector<sc::BatchJob>& jobs, const std::vector<sc::RunResult>& rows,
                std::vector<bool>& bad, Checks& c) {
  if (rows.size() != jobs.size()) {
    c.fail("sweep returned " + std::to_string(rows.size()) + " rows for " +
           std::to_string(jobs.size()) + " jobs");
    bad.assign(jobs.size(), true);
    return;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const sc::RunResult& r = rows[i];
    const sc::BatchJob& job = jobs[i];
    const bool row_ok =
        r.scenario == job.spec.name && r.policy == sc::to_string(job.policy) &&
        r.seed == job.resolved_seed() &&
        r.simulated_hours ==
            static_cast<std::int64_t>(job.spec.duration_days) * drowsy::util::kHoursPerDay &&
        r.sla_attainment >= 0.0 && r.sla_attainment <= 1.0 && r.suspend_fraction >= 0.0 &&
        r.suspend_fraction <= 1.0 && r.kwh > 0.0;
    if (!row_ok) {
      bad[i] = true;
      c.fail("row " + std::to_string(i) + " (" + r.scenario + "/" + r.policy +
             ") breaks a row invariant");
    }
  }
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    out.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// Byte-compare a runs CSV against a reference; rows that differ fail.
void check_same_csv(const std::string& reference, const std::string& csv, const char* what,
                    std::vector<bool>& bad, Checks& c) {
  if (csv == reference) return;
  const std::vector<std::string> a = lines(reference);
  const std::vector<std::string> b = lines(csv);
  if (a.size() != b.size() || a.empty() || a[0] != b[0]) {
    bad.assign(bad.size(), true);
  } else {
    for (std::size_t i = 1; i < a.size() && i - 1 < bad.size(); ++i) {
      if (a[i] != b[i]) bad[i - 1] = true;
    }
  }
  c.fail(std::string(what) + ": runs CSVs differ");
}

/// Paper-shape anchors on paper-testbed: drowsy-dc uses less energy than
/// neat+s3, and its wake p99 stays at the quick-resume figure (~890 ms).
void check_anchors(const std::vector<sc::BatchJob>& jobs, const std::vector<sc::RunResult>& rows,
                   std::vector<bool>& bad, Checks& c) {
  const sc::AggregateRow* drowsy = nullptr;
  const sc::AggregateRow* neat = nullptr;
  const auto agg = sc::aggregate(rows);
  for (const sc::AggregateRow& a : agg) {
    if (a.scenario != "paper-testbed") continue;
    if (a.policy == "drowsy-dc") drowsy = &a;
    if (a.policy == "neat+s3") neat = &a;
  }
  std::string miss;
  if (drowsy == nullptr || neat == nullptr) {
    miss = "paper-testbed drowsy-dc/neat+s3 rows missing";
  } else if (!(drowsy->kwh_mean < neat->kwh_mean)) {
    miss = "paper-testbed drowsy-dc kWh " + std::to_string(drowsy->kwh_mean) +
           " is not below neat+s3 " + std::to_string(neat->kwh_mean);
  } else if (drowsy->wake_p99_ms_mean < 860.0 || drowsy->wake_p99_ms_mean > 920.0) {
    miss = "paper-testbed drowsy-dc wake p99 " + std::to_string(drowsy->wake_p99_ms_mean) +
           " ms is not ~890 ms";
  }
  if (miss.empty()) return;
  c.fail("paper-shape anchor: " + miss);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].spec.name == "paper-testbed") bad[i] = true;
  }
}

// --- reporting ---------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string samples;  ///< what the value is taken over, for people
  std::vector<double> raw{};  ///< the samples themselves, kept in result.json
};

std::string n_of(std::size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

ec::Json build_facts(const Options& o) {
  ec::Json j = ec::Json::object();
#if defined(__clang__)
  j.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  j.set("compiler", std::string("gcc ") + __VERSION__);
#else
  j.set("compiler", "unknown");
#endif
  j.set("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  j.set("ndebug", true);
#else
  j.set("ndebug", false);
#endif
#ifdef __SANITIZE_ADDRESS__
  j.set("asan", true);
#else
  j.set("asan", false);
#endif
#ifdef DROWSY_FAULT_INJECTION
  j.set("fault_injection", true);
#else
  j.set("fault_injection", false);
#endif
  j.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.set("workers", static_cast<std::uint64_t>(o.workers));
  j.set("workload", o.workload);
  j.set("seed", o.seed);
  j.set("trace", o.trace);
  j.set("commit", o.commit);
  return j;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// --- the two modes -------------------------------------------------------------------

constexpr int kProbesPerSweep = 8;  // setup_s samples taken before each sweep
// fabric_s samples are taken back to back after each sweep for at least
// this long and at least kFabricMinRepeats times.  The host's speed for
// this short, single-threaded path wanders on a scale of tens of
// milliseconds, so a longer window gives the fastest sample more chances
// to fall in a quiet stretch.
constexpr double kFabricWindowMs = 250.0;
constexpr int kFabricMinRepeats = 12;
constexpr int kMinSweeps = 3;

/// One setup_s sample: from spawning this driver in --setup-probe mode
/// (a fresh process that sets up and creates the batch runner) to its
/// "ready to dispatch the first job" byte on a pipe.
double probe_setup_s(const Options& o) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {o.self,     "--setup-probe", "1",      "--workload",
                                   o.workload, "--seed",        std::to_string(o.seed),
                                   "--work-dir", o.work_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const auto t0 = Clock::now();
  const int rc = posix_spawn(&pid, o.self.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  char byte = 0;
  ssize_t got = -1;
  if (rc == 0) {
    do {
      got = read(fds[0], &byte, 1);
    } while (got < 0 && errno == EINTR);
  }
  const auto t1 = Clock::now();
  close(fds[0]);
  int status = 0;
  if (rc == 0) waitpid(pid, &status, 0);
  if (rc != 0 || got != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe process failed");
  }
  return ms_between(t0, t1) / 1e3;
}

/// The --setup-probe child: what a sweep process does before its first
/// dispatch, then one byte on stdout.
int setup_probe_main(const Options& o) {
  const Setup s = set_up(o, o.work_dir);
  const sc::BatchRunner runner(o.workers);
  return write(STDOUT_FILENO, "r", 1) == 1 ? 0 : 1;
}

/// Untraced sweeps after one checked warm-up sweep, until `seconds` have
/// passed (at least kMinSweeps).  Every sweep's CSV must equal the
/// warm-up's.
struct UntracedSeries {
  SweepOutcome reference;  ///< the warm-up sweep
  std::vector<double> sweep_s, run_ms_p50, run_ms_p90, fabric_s, setup_s, parse_expand_ms,
      plan_ms, run_phase_s, efficiency;
  std::size_t runs_per_sweep = 0;
};

UntracedSeries untraced_series(const Options& o, const std::string& dir, double seconds,
                               bool probe_setup, Checks& c) {
  UntracedSeries u;
  const auto start = Clock::now();
  for (int n = -1; n < kMinSweeps || ms_between(start, Clock::now()) < seconds * 1e3; ++n) {
    for (int k = 0; probe_setup && k < kProbesPerSweep; ++k) {
      u.setup_s.push_back(probe_setup_s(o));
    }
    const Setup s = set_up(o, dir);
    u.parse_expand_ms.push_back(s.parse_expand_ms);
    if (sharded(o)) u.plan_ms.push_back(s.plan_ms);
    std::vector<bool> bad(s.jobs.size(), false);
    SweepOutcome out;
    try {
      out = run_untraced(o, s, dir);
    } catch (const std::exception& e) {
      c.fail(std::string("untraced sweep threw: ") + e.what());
      bad.assign(bad.size(), true);
      c.account(bad);
      continue;
    }
    check_rows(s.jobs, out.results, bad, c);
    if (n < 0) {
      u.reference = out;
    } else {
      check_same_csv(u.reference.runs_csv, out.runs_csv, "repeated sweep", bad, c);
      u.sweep_s.push_back(out.sweep_s);
      u.run_ms_p50.push_back(percentile(out.run_wall_ms, 50));
      u.run_ms_p90.push_back(percentile(out.run_wall_ms, 90));
      u.runs_per_sweep = out.run_wall_ms.size();
      const auto window = Clock::now();
      for (int k = 0; k < kFabricMinRepeats || ms_between(window, Clock::now()) < kFabricWindowMs;
           ++k) {
        u.fabric_s.push_back(fabric_again(o, s, out.results, dir));
      }
      u.run_phase_s.push_back(out.run_phase_s);
      double busy_ms = 0.0;
      for (const double ms : out.run_wall_ms) busy_ms += ms;
      u.efficiency.push_back(
          ratio(busy_ms, static_cast<double>(o.workers) * out.run_phase_s * 1e3));
    }
    c.account(bad);
  }
  return u;
}

/// Checks made once on the reference sweep: sharded == single process,
/// and at the default seed the recorded digest and the paper anchors.
void check_reference(const Options& o, const std::string& dir, const SweepOutcome& ref,
                     Checks& c) {
  const Setup s = set_up(o, dir);
  std::vector<bool> bad(s.jobs.size(), false);
  if (sharded(o)) {
    sc::BatchRunner runner(o.workers);
    const std::string single = sc::to_csv(runner.run(s.jobs));
    check_same_csv(single, ref.runs_csv, "merged journals vs one BatchRunner", bad, c);
  }
  const std::string digest = ec::hex64(ec::fnv1a64(ref.runs_csv));
  std::printf("runs_csv_fnv1a64 %s\n", digest.c_str());
  if (o.seed == 0 && !o.expect_digest.empty() && digest != o.expect_digest) {
    c.fail("runs CSV digest " + digest + " differs from the recorded " + o.expect_digest);
    bad.assign(bad.size(), true);
  }
  if (o.seed == 0 && o.workload == "catalogue") check_anchors(s.jobs, ref.results, bad, c);
  // The reference sweep was accounted already; only newly failed rows count.
  for (const bool b : bad) c.failed += b ? 1 : 0;
}

std::vector<Metric> end_to_end(const Options& o, const std::string& dir, Checks& c) {
  const UntracedSeries u = untraced_series(o, dir, o.seconds, true, c);
  check_reference(o, dir, u.reference, c);
  // run_ms_p50/p90 are taken within each sweep, then the median over
  // sweeps, so a slow stretch of the host shorter than half the run
  // moves neither.  fabric_s is the fastest reduction instead: it is a
  // few milliseconds of one thread, file calls and allocation, and a busy
  // host slows it by up to 2x for seconds at a time, which moves its
  // median far more than the host moves the fastest sample.
  const std::size_t n = u.runs_per_sweep;
  std::printf("run_ms samples per sweep %zu: %zu beyond p90 (highest percentile with >=10 "
              "beyond: p%.1f)\n",
              n, perfbench::samples_beyond(n, 900), perfbench::tail_permille(n) / 10.0);
  const std::string per_sweep = n_of(u.sweep_s.size(), "sweeps of ") + n_of(n, "runs");
  return {
      {"sweep_s", "s", median(u.sweep_s), n_of(u.sweep_s.size(), "sweeps"), u.sweep_s},
      {"run_ms_p50", "ms", median(u.run_ms_p50), per_sweep, u.run_ms_p50},
      {"run_ms_p90", "ms", median(u.run_ms_p90), per_sweep, u.run_ms_p90},
      {"setup_s", "s", median(u.setup_s), n_of(u.setup_s.size(), "set-up processes"),
       u.setup_s},
      {"peak_rss_mb", "MB", peak_rss_mb(), "1 process"},
      {"fabric_s", "s", percentile(u.fabric_s, 0.0),
       "fastest of " + n_of(u.fabric_s.size(), "reductions"), u.fabric_s},
  };
}

std::vector<Metric> per_layer(const Options& o, const std::string& dir, Checks& c) {
  const UntracedSeries u = untraced_series(o, dir, o.seconds / 2, false, c);
  check_reference(o, dir, u.reference, c);
  const std::string& reference = u.reference.runs_csv;

  const auto checked = [&](const TracedOutcome& out, const char* what) {
    std::vector<bool> bad(out.threw);
    for (std::size_t i = 0; i < bad.size(); ++i) {
      if (bad[i]) c.fail(std::string(what) + ": run " + std::to_string(i) + " threw");
    }
    if (std::find(bad.begin(), bad.end(), true) == bad.end()) {
      check_rows(out.jobs, out.results, bad, c);
      check_same_csv(reference, out.runs_csv, what, bad, c);
    }
    c.account(bad);
  };

  LayerSamples l;
  l.parse_expand_ms = u.parse_expand_ms;
  l.plan_ms = u.plan_ms;
  const auto start = Clock::now();
  do {
    Tracer tr;
    const TracedOutcome out = run_traced(o, dir, tr, nullptr);
    checked(out, "traced pass");
    collect(tr, out, l);
    write_spans(tr, dir + "/spans.jsonl");
  } while (ms_between(start, Clock::now()) < o.seconds / 2 * 1e3);

  Tracer ptr;
  Profiling prof;
  const TracedOutcome pout = run_traced(o, dir, ptr, &prof);
  checked(pout, "profiled pass");
  LayerSamples pl;
  collect(ptr, pout, pl);
  const obs::EventProfile& p = prof.profile;
  if (p.total_events() != pl.events) {
    c.fail("profiled events " + std::to_string(p.total_events()) +
           " != EventQueue::executed() total " + std::to_string(pl.events));
  }
  if (pl.events * l.runs != l.events * pl.runs) {
    c.fail("events per run differ between the traced and the profiled pass");
  }

  std::uint64_t wol_frames = 0;
  double queue_delay_p99 = 0.0;
  for (const sc::RunResult& r : u.reference.results) {
    wol_frames += r.wol_frames;
    queue_delay_p99 = std::max(queue_delay_p99, r.switch_queue_delay_p99_ms);
  }
  const auto runs = static_cast<double>(l.runs);
  const auto pruns = static_cast<double>(pl.runs);
  const std::string traced_runs = n_of(l.runs, "traced runs");
  std::vector<Metric> m = {
      {"expctl.parse_expand_ms", "ms", median(l.parse_expand_ms),
       n_of(l.parse_expand_ms.size(), "set-ups")},
      {"scenario.build_ms", "ms", median(prof.cold_build_ms),
       n_of(prof.cold_build_ms.size(), "cold builds")},
      {"trace.synth_ms", "ms", median(prof.synth_ms),
       n_of(prof.synth_ms.size(), "cold/warm build pairs")},
      {"scenario.trace_cache_hit_ratio", "ratio",
       ratio(static_cast<double>(l.cache_hits), static_cast<double>(l.cache_lookups)),
       n_of(l.cache_lookups, "lookups")},
      {"core.pretrain_ms", "ms", median(l.pretrain_ms), traced_runs},
      {"core.run_hours_ms", "ms", median(l.run_hours_ms), traced_runs},
      {"core.hour_ms_p50", "ms", percentile(l.hour_ms, 50), n_of(l.hour_ms.size(), "hours")},
      {"core.hour_ms_p99", "ms", percentile(l.hour_ms, 99), n_of(l.hour_ms.size(), "hours")},
      {"sim.events_per_run", "count", ratio(static_cast<double>(l.events), runs), traced_runs},
  };
  for (const obs::EventTag tag : obs::all_event_tags()) {
    m.push_back({std::string("sim.events.") + obs::to_string(tag), "count",
                 ratio(static_cast<double>(p.events(tag)), pruns),
                 n_of(pl.runs, "profiled runs")});
  }
  m.push_back({"sim.ns_per_event", "ns", ratio(l.run_hours_ns, static_cast<double>(l.events)),
               traced_runs});
  for (const obs::EventTag tag : obs::all_event_tags()) {
    m.push_back({std::string("sim.dispatch_share.") + obs::to_string(tag), "share",
                 ratio(static_cast<double>(p.dispatch_ns(tag)),
                       static_cast<double>(p.total_dispatch_ns())),
                 n_of(pl.runs, "profiled runs")});
  }
  m.insert(
      m.end(),
      {
          {"core.hour_boundary_share", "share",
           1.0 - ratio(static_cast<double>(p.total_dispatch_ns()), pl.run_hours_ns),
           n_of(pl.runs, "profiled runs")},
          {"net.heartbeat_event_share", "share",
           ratio(static_cast<double>(p.events(obs::EventTag::Heartbeat)),
                 static_cast<double>(p.total_events())),
           n_of(pl.runs, "profiled runs")},
          {"netsim.wol_frames", "count", static_cast<double>(wol_frames), "1 sweep"},
          {"netsim.switch_queue_delay_p99_ms", "ms", queue_delay_p99, "max over 1 sweep"},
          {"scenario.harvest_ms", "ms", median(l.harvest_ms), traced_runs},
          {"scenario.run_self_ms", "ms", median(l.run_self_ms), traced_runs},
          {"scenario.batch.parallel_efficiency", "ratio", median(u.efficiency),
           n_of(u.efficiency.size(), "untraced sweeps")},
          {"distrib.plan_ms", "ms", median(l.plan_ms), n_of(l.plan_ms.size(), "plans")},
          {"distrib.journal_append_us_p50", "us", percentile(l.append_us, 50),
           n_of(l.append_us.size(), "appends")},
          {"distrib.journal_append_us_p90", "us", percentile(l.append_us, 90),
           n_of(l.append_us.size(), "appends")},
          {"distrib.read_journal_ms", "ms", median(l.read_ms), n_of(l.read_ms.size(), "reads")},
          {"distrib.merge_ms", "ms", median(l.merge_ms), n_of(l.merge_ms.size(), "merges")},
          {"expctl.report_ms", "ms", median(l.report_ms), n_of(l.report_ms.size(), "reports")},
          {"expctl.emit_ms", "ms", median(l.emit_ms), n_of(l.emit_ms.size(), "emits")},
          {"perfbench.traced_overhead_share", "share",
           ratio(median(l.run_phase_s), median(u.run_phase_s)) - 1.0,
           n_of(l.run_phase_s.size(), "traced vs ") + n_of(u.run_phase_s.size(), "untraced")},
      });
  return m;
}

// --- command line --------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "catalogue|warmup|netsim-shard --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--expect-digest HEX] [--commit ID]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.self = argv[0];
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  o.workers = static_cast<std::size_t>(std::clamp(nproc, 1L, 4L));
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--expect-digest") {
      o.expect_digest = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else if (flag == "--setup-probe") {
      o.setup_probe = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + flag).c_str());
  }
  if (o.workload != "catalogue" && o.workload != "warmup" && o.workload != "netsim-shard") {
    usage("unknown workload");
  }
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (o.setup_probe) return setup_probe_main(o);
    fs::create_directories(o.work_dir);
    write_input(o, o.work_dir + "/sweep.json");
    const ec::Json facts = build_facts(o);
    std::printf("build %s\n", facts.dump(0).c_str());
    Checks c;
    const std::vector<Metric> metrics =
        o.trace ? per_layer(o, o.work_dir, c) : end_to_end(o, o.work_dir, c);

    ec::Json values = ec::Json::object();
    ec::Json detail = ec::Json::object();
    for (const Metric& m : metrics) {
      std::string spread;
      if (!m.raw.empty()) {
        const auto [q1, q3] = perfbench::quartiles(m.raw);
        char buf[64];
        std::snprintf(buf, sizeof(buf), ", quartiles %.6g .. %.6g", q1, q3);
        spread = buf;
      }
      std::printf("metric %-36s %14.6f %-6s (%s%s)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples.c_str(), spread.c_str());
      ec::Json v = ec::Json::object();
      v.set("value", m.value);
      v.set("unit", m.unit);
      values.set(m.name, v);
      v.set("samples", m.samples);
      if (!m.raw.empty()) {
        ec::Json raw = ec::Json::array();
        for (const double x : m.raw) raw.push_back(x);
        v.set("raw", raw);
      }
      detail.set(m.name, v);
    }
    ec::Json result = ec::Json::object();
    result.set("correct", c.ok && c.failed == 0);
    result.set("attempted", c.attempted);
    result.set("failed", c.failed);
    result.set("metrics", values);

    ec::Json record = ec::Json::object();
    record.set("build", facts);
    record.set("result", result);
    record.set("metrics", detail);
    if (!sc::write_file(o.work_dir + "/result.json", record.dump())) {
      throw std::runtime_error("cannot write " + o.work_dir + "/result.json");
    }
    std::printf("failed_run_share %.6f (%llu of %llu runs)\n",
                ratio(static_cast<double>(c.failed), static_cast<double>(c.attempted)),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.attempted));
    std::printf("%s\n", result.dump(0).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
