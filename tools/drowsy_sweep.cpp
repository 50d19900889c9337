// drowsy_sweep — drive the scenario catalogue from JSON sweep files: run
// a sweep in one process or sharded across machines, reproduce the
// paper's figures as studies, and list the chaos suite's crash points.
//
// `drowsy_sweep --help` lists every subcommand and flag (rendered from the
// command table in main); docs/drowsy_sweep.md is the full reference.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "distrib/cost_model.hpp"
#include "distrib/daemon.hpp"
#include "distrib/fault.hpp"
#include "distrib/merge.hpp"
#include "distrib/reaper.hpp"
#include "distrib/shard.hpp"
#include "distrib/shard_runner.hpp"
#include "expctl/report.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "obs/snapshot.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/probes.hpp"
#include "scenario/registry.hpp"
#include "study/study.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace fl = drowsy::util::flags;
namespace sc = drowsy::scenario;
namespace st = drowsy::study;

namespace {

struct LoadedSweep {
  ec::SweepSpec sweep;
  std::string bytes;  ///< raw file content (hashed into shard manifests)
};

LoadedSweep load_sweep(const std::string& path) {
  LoadedSweep loaded;
  loaded.bytes = ec::read_file(path);
  // Anchor every parse/spec failure at the file it came from: a bad
  // trace kind three levels deep then reads
  //   "bad.json: sweep.scenarios[0]: ... workload.kind: unknown trace
  //    kind \"x\" (known: daily-backup, ...)".
  try {
    const ec::Json doc = ec::Json::parse(loaded.bytes);
    loaded.sweep = ec::sweep_from_json(doc, sc::ScenarioRegistry::builtin());
  } catch (const ec::SpecError& e) {
    throw ec::SpecError(path + ": " + e.what());
  } catch (const ec::JsonError& e) {
    throw ec::SpecError(path + ": " + e.what());
  }
  return loaded;
}

int cmd_list() {
  for (const sc::ScenarioSpec& spec : sc::ScenarioRegistry::builtin().all()) {
    std::printf("%-22s %s\n", spec.name.c_str(), spec.description.c_str());
  }
  return 0;
}

int cmd_dump(const std::vector<std::string>& names) {
  const auto& registry = sc::ScenarioRegistry::builtin();
  ec::Json out = ec::Json::array();
  if (names.empty()) {
    for (const sc::ScenarioSpec& spec : registry.all()) out.push_back(ec::to_json(spec));
  } else {
    for (const std::string& name : names) {
      const sc::ScenarioSpec* spec = registry.find(name);
      if (spec == nullptr) {
        std::fprintf(stderr, "no such scenario: %s (try 'drowsy_sweep list')\n",
                     name.c_str());
        return 1;
      }
      out.push_back(ec::to_json(*spec));
    }
  }
  // A single requested scenario prints as a bare object, ready to paste
  // into a sweep file's "scenarios" array.
  const std::string text = names.size() == 1 ? out.at(std::size_t{0}).dump() : out.dump();
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

int cmd_validate(const std::string& path) {
  const LoadedSweep loaded = load_sweep(path);
  const auto jobs = ec::expand(loaded.sweep);
  std::printf("%s: OK — %zu scenario(s) x %zu policy(ies) -> %zu runs\n",
              loaded.sweep.name.c_str(), loaded.sweep.scenarios.size(),
              loaded.sweep.policies.size(), jobs.size());
  return 0;
}

/// Artifact destinations shared by `run` and `shard merge` — one emission
/// path, so sharded output is byte-identical by construction.
struct EmitOptions {
  double alpha = 0.05;
  std::string stats_csv;
  std::string runs_csv;
  std::string stats_json;
  std::string verdicts_csv;
};

/// `flags` followed by the rows binding `emit`.
std::vector<fl::Flag> with_emit_flags(EmitOptions& emit, std::vector<fl::Flag> flags) {
  flags.insert(flags.end(), {
      fl::real("--alpha", "A", "Welch significance level; default 0.05", emit.alpha,
               {0.0, 1.0, /*open=*/true}),
      fl::string("--csv", "F", "replicate statistics as CSV", emit.stats_csv),
      fl::string("--runs-csv", "F", "one row per run as CSV", emit.runs_csv),
      fl::string("--json", "F", "replicate statistics as JSON", emit.stats_json),
      fl::string("--verdicts-csv", "F", "Welch verdicts as CSV", emit.verdicts_csv),
  });
  return flags;
}

fl::Flag threads_flag(std::size_t& threads) {
  return fl::integer("--threads", "N", "worker threads; 0 (default): all cores", threads);
}

fl::Flag journals_flag(std::vector<std::string>& journals) {
  return fl::required(fl::strings("--journal", "F", "a shard's journal", journals));
}

/// Print the report tables and write the requested artifacts.
bool emit_results(const std::vector<sc::RunResult>& results, const EmitOptions& opts) {
  const auto rows = ec::summarize(results);
  const auto verdicts = ec::compare_policies(results, opts.alpha);
  std::printf("%s\n", ec::stats_table(rows).c_str());
  std::printf("%s", ec::comparison_table(verdicts).c_str());

  bool ok = true;
  if (!opts.stats_csv.empty()) ok &= sc::write_file(opts.stats_csv, ec::to_csv(rows));
  if (!opts.runs_csv.empty()) ok &= sc::write_file(opts.runs_csv, sc::to_csv(results));
  if (!opts.stats_json.empty()) ok &= sc::write_file(opts.stats_json, ec::to_json(rows));
  if (!opts.verdicts_csv.empty()) {
    ok &= sc::write_file(opts.verdicts_csv, ec::to_csv(verdicts));
  }
  return ok;
}

// --- run ----------------------------------------------------------------------

struct RunOptions {
  std::string sweep_path;
  std::size_t threads = 0;  // hardware concurrency
  EmitOptions emit;
  std::string bench_json;
  std::string trace_out;     ///< directory for per-run Perfetto timelines
  std::string metrics_json;  ///< worker metrics snapshot, flushed per run
};

int cmd_run(const RunOptions& opts) {
  const LoadedSweep loaded = load_sweep(opts.sweep_path);
  const auto jobs = ec::expand(loaded.sweep);

  sc::BatchRunner runner(opts.threads);
  std::printf("== %s: %zu runs (%zu threads) ==\n\n", loaded.sweep.name.c_str(),
              jobs.size(), runner.thread_count());

  // Observability side-channels.  Timelines are deterministic (sim-time
  // stamped); the metrics snapshot is wall-clock and advisory, flushed
  // after every finished run so a dashboard can watch a long sweep.
  std::vector<sc::RunProbe> probes;
  if (!opts.trace_out.empty()) probes.push_back(sc::timeline_probe(opts.trace_out));
  drowsy::obs::WorkerSnapshot snap;
  std::mutex snap_mutex;
  snap.worker_id = "drowsy_sweep-run";
  const auto flush_metrics_locked = [&]() {
    snap.updated_unix_ms = drowsy::obs::wall_clock_unix_ms();
    drowsy::obs::write_snapshot_file(opts.metrics_json, snap);
  };
  sc::BatchRunner::CompletionCallback on_complete;
  if (!opts.metrics_json.empty()) {
    probes.push_back(sc::profile_probe([&](const drowsy::obs::EventProfile& p) {
      const std::lock_guard<std::mutex> lock(snap_mutex);
      snap.profile.merge(p);
    }));
    on_complete = [&](std::size_t, const sc::RunResult&, double) {
      const std::lock_guard<std::mutex> lock(snap_mutex);
      ++snap.jobs_done;
      flush_metrics_locked();
    };
  }
  const sc::RunProbe probe =
      probes.empty() ? sc::RunProbe{} : sc::combine_probes(std::move(probes));

  const auto start = std::chrono::steady_clock::now();
  const auto results = runner.run(jobs, on_complete, probe);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  bool ok = emit_results(results, opts.emit);
  std::printf("\ntraces materialized: %llu (reused %llu times)\n",
              static_cast<unsigned long long>(runner.last_trace_misses()),
              static_cast<unsigned long long>(runner.last_trace_hits()));
  if (!opts.trace_out.empty()) {
    std::printf("run timelines: %zu file(s) in %s\n", jobs.size(),
                opts.trace_out.c_str());
  }
  if (!opts.metrics_json.empty()) {
    const std::lock_guard<std::mutex> lock(snap_mutex);
    snap.trace_cache_hits = runner.last_trace_hits();
    snap.trace_cache_misses = runner.last_trace_misses();
    flush_metrics_locked();
  }

  if (!opts.bench_json.empty()) {
    ec::Json bench = ec::Json::object();
    bench.set("sweep", loaded.sweep.name);
    bench.set("runs", static_cast<std::uint64_t>(jobs.size()));
    bench.set("threads", static_cast<std::uint64_t>(runner.thread_count()));
    bench.set("wall_clock_seconds", wall_seconds);
    bench.set("trace_cache_hits", runner.last_trace_hits());
    bench.set("trace_cache_misses", runner.last_trace_misses());
    ok &= sc::write_file(opts.bench_json, bench.dump());
  }
  return ok ? 0 : 1;
}

// --- shard subcommands --------------------------------------------------------

/// <stem>.journal.jsonl next to the manifest ("shard_0.json" ->
/// "shard_0.journal.jsonl").
std::string default_journal_path(const std::string& manifest) {
  const bool json = manifest.size() > 5 && manifest.ends_with(".json");
  return manifest.substr(0, manifest.size() - (json ? 5 : 0)) + ".journal.jsonl";
}

struct PlanOptions {
  std::string sweep_path;
  std::size_t shards = 0;
  std::string strategy = "balanced";
  std::string out_dir = ".";
  std::vector<std::string> cost_journals;
};

int cmd_shard_plan(const PlanOptions& opts) {
  const dt::ShardStrategy strategy = dt::shard_strategy_from_string(opts.strategy);
  const LoadedSweep loaded = load_sweep(opts.sweep_path);
  const auto jobs = ec::expand(loaded.sweep);

  // Static heuristic costs are always computed: without --costs they
  // drive the plan; with --costs they anchor the predicted-vs-measured
  // balance report.
  std::vector<double> static_costs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    static_costs[i] = dt::estimate_job_cost(jobs[i]);
  }

  dt::CostModel::JobCosts priced;
  const bool use_measured = !opts.cost_journals.empty();
  if (use_measured) {
    dt::CostModel model;
    for (const std::string& path : opts.cost_journals) {
      model.add_journal(dt::read_journal(path).entries);
    }
    priced = model.price(jobs);
    std::printf("cost model: %zu journal(s) -> %zu exact, %zu scenario-level,"
                " %zu heuristic job price(s)\n",
                opts.cost_journals.size(), priced.measured, priced.scenario,
                priced.heuristic);
  }
  const std::vector<double>& plan_costs = use_measured ? priced.cost : static_costs;
  const auto plan = dt::plan_shards(jobs, opts.shards, strategy, plan_costs);

  if (mkdir(opts.out_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", opts.out_dir.c_str());
    return 1;
  }

  std::printf("== %s: %zu jobs -> %zu shard(s), %s ==\n", loaded.sweep.name.c_str(),
              jobs.size(), opts.shards, dt::to_string(strategy));
  bool ok = true;
  const std::vector<double> planned_totals = dt::shard_costs(plan, plan_costs);
  const std::vector<double> static_totals = dt::shard_costs(plan, static_costs);
  for (std::size_t s = 0; s < plan.size(); ++s) {
    dt::ShardManifest manifest;
    manifest.sweep_name = loaded.sweep.name;
    manifest.sweep_file = opts.sweep_path;
    manifest.sweep_hash = ec::fnv1a64(loaded.bytes);
    manifest.shard_index = s;
    manifest.shard_count = opts.shards;
    manifest.strategy = strategy;
    manifest.total_jobs = jobs.size();
    manifest.job_indices = plan[s];

    const std::string path = opts.out_dir + "/shard_" + std::to_string(s) + ".json";
    ok &= sc::write_file(path, dt::to_json(manifest).dump());
    if (use_measured) {
      std::printf("  %-28s %4zu job(s)  est. %10.0f ms  (static %10.0f)\n", path.c_str(),
                  plan[s].size(), planned_totals[s], static_totals[s]);
    } else {
      std::printf("  %-28s %4zu job(s)  est. cost %10.0f\n", path.c_str(), plan[s].size(),
                  planned_totals[s]);
    }
  }
  if (use_measured) {
    // Would the old plan have balanced as well?  Evaluate both layouts
    // under the measured model: the static-heuristic plan re-priced with
    // measured costs is what the fleet would actually have experienced.
    const auto static_plan = dt::plan_shards(jobs, opts.shards, strategy, static_costs);
    std::printf("predicted balance (max/min shard cost, measured model):\n"
                "  measured-cost plan    %.3f\n"
                "  static-heuristic plan %.3f\n",
                dt::cost_spread(planned_totals),
                dt::cost_spread(dt::shard_costs(static_plan, priced.cost)));
  }
  return ok ? 0 : 1;
}

struct ShardRunOptions {
  std::string manifest_path;
  std::string sweep_override;
  std::string journal_path;
  std::size_t threads = 0;
};

int cmd_shard_run(const ShardRunOptions& opts) {
  const std::string journal_path = opts.journal_path.empty()
                                       ? default_journal_path(opts.manifest_path)
                                       : opts.journal_path;
  const dt::ShardManifest manifest =
      dt::manifest_from_json(ec::Json::parse(ec::read_file(opts.manifest_path)));
  const std::string sweep_path =
      opts.sweep_override.empty() ? manifest.sweep_file : opts.sweep_override;
  const LoadedSweep loaded = load_sweep(sweep_path);
  const auto jobs = ec::expand(loaded.sweep);
  dt::validate_manifest(manifest, loaded.bytes, jobs.size());

  std::printf("== %s shard %zu/%zu: %zu job(s), journal %s ==\n",
              manifest.sweep_name.c_str(), manifest.shard_index, manifest.shard_count,
              manifest.job_indices.size(), journal_path.c_str());
  const dt::ShardRunOutcome outcome =
      dt::run_shard(jobs, manifest, journal_path, opts.threads);
  std::printf("resumed %zu, executed %zu (traces materialized %llu, reused %llu)\n",
              outcome.resumed, outcome.executed,
              static_cast<unsigned long long>(outcome.trace_misses),
              static_cast<unsigned long long>(outcome.trace_hits));
  return 0;
}

/// Shared by merge/status: sweep path then one or more --journal flags.
struct JournalSetOptions {
  std::string sweep_path;
  std::vector<std::string> journals;
  EmitOptions emit;             ///< merge only
  std::string queue_dir;        ///< status only: scan claimed/ for stale tasks
  bool json = false;            ///< status only: machine-readable report
};

/// Read and concatenate journals; `per_journal` (optional) observes each
/// one as it is read — the hook `shard status` prints its per-journal
/// wall totals from.
std::vector<dt::JournalEntry> read_journal_set(
    const std::vector<std::string>& paths,
    const std::function<void(const std::string&, const dt::JournalContents&)>&
        per_journal = {}) {
  std::vector<dt::JournalEntry> entries;
  for (const std::string& path : paths) {
    const dt::JournalContents contents = dt::read_journal(path);
    if (contents.truncated_tail) {
      DROWSY_LOG_WARN("sweep", "%s has a torn final row (crashed shard?); ignored",
                      path.c_str());
    }
    if (per_journal) per_journal(path, contents);
    entries.insert(entries.end(), contents.entries.begin(), contents.entries.end());
  }
  return entries;
}

int cmd_shard_merge(const JournalSetOptions& opts) {
  const LoadedSweep loaded = load_sweep(opts.sweep_path);
  const auto jobs = ec::expand(loaded.sweep);
  const auto entries = read_journal_set(opts.journals);
  const auto results = dt::merge_journals(jobs, entries);
  std::printf("== %s: merged %zu run(s) from %zu journal(s) ==\n\n",
              loaded.sweep.name.c_str(), results.size(), opts.journals.size());
  return emit_results(results, opts.emit) ? 0 : 1;
}

int cmd_shard_status(const JournalSetOptions& opts) {
  const LoadedSweep loaded = load_sweep(opts.sweep_path);
  const auto jobs = ec::expand(loaded.sweep);
  // Per-journal accounting: progress in wall-clock terms, not just row
  // counts — a shard with 3 of 4 rows done may still own most of the
  // remaining work.
  struct JournalTotals {
    std::string path;
    std::size_t rows = 0;
    double wall_ms = 0.0;
    std::size_t unmeasured = 0;
  };
  std::vector<JournalTotals> totals;
  const auto entries = read_journal_set(
      opts.journals,
      [&](const std::string& path, const dt::JournalContents& contents) {
        JournalTotals t;
        t.path = path;
        t.rows = contents.entries.size();
        for (const dt::JournalEntry& entry : contents.entries) {
          if (entry.has_wall_ms()) {
            t.wall_ms += entry.wall_ms;
          } else {
            ++t.unmeasured;
          }
        }
        if (!opts.json) {
          std::printf("  %-40s %4zu row(s)  wall %10.0f ms", t.path.c_str(), t.rows,
                      t.wall_ms);
          if (t.unmeasured > 0) std::printf("  (%zu unmeasured)", t.unmeasured);
          std::printf("\n");
        }
        totals.push_back(std::move(t));
      });
  const dt::Coverage cov = dt::cover_grid(jobs, entries);
  // Every claim in flight, with its lease evidence — one scan, so the
  // stale list (this filtered by ClaimInfo::expired) and the healthy
  // rows always describe the same snapshot.  Stale claims park their
  // shard until a reaper or a daemon with the same worker id returns.
  std::vector<dt::ClaimInfo> claims;
  // The reap history: how many times this queue recovered a dead
  // worker's claim (reaped/reap.journal.jsonl).
  std::vector<dt::ReapRecord> reaps;
  // The fleet view: every worker's metrics snapshot under
  // <queue>/metrics/, in worker-id order.  Unreadable or torn files are
  // skipped with a warning — status must report the fleet, not die on
  // one worker's bad flush.
  std::vector<drowsy::obs::WorkerSnapshot> workers;
  if (!opts.queue_dir.empty()) {
    claims = dt::list_claims(opts.queue_dir);
    try {
      reaps = dt::read_reap_journal(opts.queue_dir);
    } catch (const std::exception& e) {
      DROWSY_LOG_WARN("sweep", "cannot read reap journal: %s", e.what());
    }
    const std::filesystem::path mdir = std::filesystem::path(opts.queue_dir) / "metrics";
    std::error_code ec_dir;
    if (std::filesystem::is_directory(mdir, ec_dir)) {
      std::vector<std::string> paths;
      for (const auto& entry : std::filesystem::directory_iterator(mdir)) {
        if (entry.is_regular_file() && entry.path().extension() == ".json") {
          paths.push_back(entry.path().string());
        }
      }
      std::sort(paths.begin(), paths.end());
      for (const std::string& path : paths) {
        try {
          workers.push_back(drowsy::obs::read_snapshot_file(path));
        } catch (const std::exception& e) {
          DROWSY_LOG_WARN("sweep", "skipping unreadable worker snapshot %s: %s",
                          path.c_str(), e.what());
        }
      }
    }
  }
  if (opts.json) {
    // One JSON document on stdout; the exit code still carries the
    // complete/incomplete verdict so scripts need not parse to gate.
    ec::Json j = ec::Json::object();
    j.set("sweep", loaded.sweep.name);
    j.set("completed", static_cast<std::uint64_t>(cov.completed));
    j.set("total", static_cast<std::uint64_t>(cov.total));
    j.set("complete", cov.complete());
    j.set("missing", static_cast<std::uint64_t>(cov.missing.size()));
    j.set("duplicates", static_cast<std::uint64_t>(cov.duplicates.size()));
    ec::Json foreign = ec::Json::array();
    for (const std::string& f : cov.foreign) foreign.push_back(f);
    j.set("foreign", std::move(foreign));
    ec::Json journals = ec::Json::array();
    for (const JournalTotals& t : totals) {
      ec::Json row = ec::Json::object();
      row.set("path", t.path);
      row.set("rows", static_cast<std::uint64_t>(t.rows));
      row.set("wall_ms", t.wall_ms);
      row.set("unmeasured", static_cast<std::uint64_t>(t.unmeasured));
      journals.push_back(std::move(row));
    }
    j.set("journals", std::move(journals));
    // One serializer for both claim lists: the lease fields are always
    // present (zeroed without a lease) so consumers can grep/parse a
    // stable schema.
    const auto claim_row = [&](const dt::ClaimInfo& claim) {
      ec::Json row = ec::Json::object();
      row.set("manifest", claim.manifest_path);
      row.set("worker_id", claim.worker_id);
      row.set("age_s", claim.age_s);
      row.set("has_lease", claim.has_lease);
      row.set("lease_ttl_s", claim.lease_ttl_s);
      row.set("lease_remaining_s", claim.lease_remaining_s);
      row.set("queue_dir", opts.queue_dir);
      return row;
    };
    ec::Json all_claims = ec::Json::array();
    for (const dt::ClaimInfo& claim : claims) all_claims.push_back(claim_row(claim));
    j.set("claims", std::move(all_claims));
    ec::Json stale_rows = ec::Json::array();
    for (const dt::ClaimInfo& claim : claims) {
      if (claim.expired()) stale_rows.push_back(claim_row(claim));
    }
    j.set("stale_claims", std::move(stale_rows));
    j.set("reap_count", static_cast<std::uint64_t>(reaps.size()));
    ec::Json fleet = ec::Json::array();
    for (const drowsy::obs::WorkerSnapshot& w : workers) {
      fleet.push_back(drowsy::obs::to_json(w));
    }
    j.set("workers", std::move(fleet));
    std::printf("%s\n", j.dump(2).c_str());
    return cov.complete() ? 0 : 3;
  }
  std::printf("%s: %zu/%zu run(s) complete\n", loaded.sweep.name.c_str(), cov.completed,
              cov.total);
  if (!cov.missing.empty()) {
    std::printf("  missing: %zu (first grid index %zu)\n", cov.missing.size(),
                cov.missing.front());
  }
  if (!cov.duplicates.empty()) {
    std::printf("  duplicates: %zu (first grid index %zu)\n", cov.duplicates.size(),
                cov.duplicates.front());
  }
  if (!cov.foreign.empty()) {
    std::printf("  foreign rows: %zu (e.g. %s)\n", cov.foreign.size(),
                cov.foreign.front().c_str());
  }
  for (const drowsy::obs::WorkerSnapshot& w : workers) {
    std::printf("  worker %-20s %llu job(s), %llu task(s) done, %llu failed, "
                "%llu events profiled\n",
                w.worker_id.c_str(), static_cast<unsigned long long>(w.jobs_done),
                static_cast<unsigned long long>(w.tasks_done),
                static_cast<unsigned long long>(w.tasks_failed),
                static_cast<unsigned long long>(w.profile.total_events()));
  }
  for (const dt::ClaimInfo& claim : claims) {
    if (claim.expired()) continue;  // warned about below
    std::printf("  claim %s (worker %s): lease %.0f s remaining\n",
                claim.manifest_path.c_str(), claim.worker_id.c_str(),
                claim.lease_remaining_s);
  }
  for (const dt::ClaimInfo& claim : claims) {
    if (!claim.expired()) continue;
    std::printf(
        "  warning: stale claim %s (worker %s, %s) — run `shard reap`, "
        "or restart a daemon with --worker-id %s\n",
        claim.manifest_path.c_str(), claim.worker_id.c_str(), claim.expiry().c_str(),
        claim.worker_id.c_str());
  }
  if (!opts.queue_dir.empty() && !reaps.empty()) {
    std::printf("  reaped claims: %zu (last: %s from %s by %s)\n", reaps.size(),
                reaps.back().manifest.c_str(), reaps.back().worker_id.c_str(),
                reaps.back().reaper_id.c_str());
  }
  return cov.complete() ? 0 : 3;  // distinct from hard errors (1) and usage (2)
}

/// "<hostname>-<pid>": the default daemon and reaper id.  The claiming
/// protocol needs worker ids unique per live daemon; a bare pid collides
/// across machines and containers sharing one queue.
std::string host_pid_id() {
  char host[256] = "host";
  static_cast<void>(gethostname(host, sizeof(host) - 1));
  return std::string(host) + "-" + std::to_string(static_cast<long>(getpid()));
}

int cmd_shard_daemon(dt::DaemonOptions opts) {
  // Daemons run unattended; their util::log diagnostics (snapshot write
  // failures, torn journals) must reach the operator's log, timestamped.
  drowsy::util::set_log_level(drowsy::util::LogLevel::Info);

  std::printf("== daemon %s serving %s (poll %u ms, max idle %.1f s) ==\n",
              opts.worker_id.c_str(), opts.queue_dir.c_str(), opts.poll_ms,
              opts.max_idle_s);
  opts.on_event = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);  // daemons run backgrounded; lines must not sit in a buffer
  };
  const dt::DaemonOutcome outcome = dt::run_daemon(opts);
  std::printf("daemon %s: %zu task(s) done, %zu failed, %zu reaped (%s)\n",
              opts.worker_id.c_str(), outcome.completed, outcome.failed, outcome.reaped,
              outcome.exit == dt::DaemonExit::Stopped ? "stopped" : "idle");
  return outcome.failed == 0 ? 0 : 1;
}

int cmd_shard_reap(dt::ReapOptions opts) {
  opts.on_event = [](const std::string& line) { std::printf("%s\n", line.c_str()); };
  const dt::ReapOutcome outcome = dt::reap_queue(opts);
  std::printf("%s%zu claim(s) examined, %zu expired, %zu reaped"
              " (%zu journal row(s) preserved)\n",
              opts.dry_run ? "[dry run] " : "", outcome.examined, outcome.expired,
              outcome.reaped, outcome.rows_preserved);
  return 0;
}

int cmd_fault_list() {
  for (const std::string& point : dt::fault::catalogue()) {
    std::printf("%s\n", point.c_str());
  }
  if (!dt::fault::compiled_in()) {
    std::fprintf(stderr,
                 "note: fault injection is compiled out of this build"
                 " (DROWSY_CRASH_AT cannot fire; build with"
                 " -DDROWSY_FAULT_INJECTION=ON)\n");
    return 1;
  }
  return 0;
}

// --- study subcommands --------------------------------------------------------

/// Shared by run/dump/reduce: the study name, its --set overrides and
/// the verb-specific flags.
struct StudyOptions {
  std::string name;
  std::vector<std::string> sets;  ///< applied in order after the study lookup
  std::size_t threads = 0;
  std::string out_path;
  std::string runs_csv;
  std::vector<std::string> journals;
};

int cmd_study_list() {
  for (const st::Study& study : st::StudyRegistry::builtin().all()) {
    std::printf("%-24s %-22s %s\n", study.name.c_str(), study.figure.c_str(),
                study.description.c_str());
    std::printf("%-24s   params: %s\n", "", study.params.describe().c_str());
  }
  return 0;
}

/// Print the figure CSV and honor --out (exact CSV bytes, no banner).
bool emit_figure_csv(const std::string& csv, const std::string& out_path) {
  std::fwrite(csv.data(), 1, csv.size(), stdout);
  if (out_path.empty()) return true;
  return sc::write_file(out_path, csv);
}

int cmd_study_run(const StudyOptions& opts) {
  const st::Study& study = st::StudyRegistry::builtin().at(opts.name);
  const st::StudyParams params = study.params_with(opts.sets);
  const auto jobs = st::jobs_for(study, params);
  std::printf("== study %s (%s): %zu runs [%s] ==\n", study.name.c_str(),
              study.figure.c_str(), jobs.size(), params.describe().c_str());
  const st::StudyOutcome outcome = st::run_study(study, params, opts.threads);
  bool ok = emit_figure_csv(outcome.csv, opts.out_path);
  if (!opts.runs_csv.empty()) {
    ok &= sc::write_file(opts.runs_csv, sc::to_csv(outcome.results));
  }
  std::printf("\ntraces materialized: %llu (reused %llu times)\n",
              static_cast<unsigned long long>(outcome.trace_misses),
              static_cast<unsigned long long>(outcome.trace_hits));
  return ok ? 0 : 1;
}

int cmd_study_dump(const StudyOptions& opts) {
  const st::Study& study = st::StudyRegistry::builtin().at(opts.name);
  const std::string text = ec::to_json(study.sweep(study.params_with(opts.sets))).dump();
  std::fwrite(text.data(), 1, text.size(), stdout);
  if (!opts.out_path.empty() && !sc::write_file(opts.out_path, text)) return 1;
  return 0;
}

int cmd_study_reduce(const StudyOptions& opts) {
  const st::Study& study = st::StudyRegistry::builtin().at(opts.name);
  const st::StudyParams params = study.params_with(opts.sets);
  const auto jobs = st::jobs_for(study, params);
  const auto entries = read_journal_set(opts.journals);
  // merge_journals proves coverage (missing/duplicate/foreign rows are
  // hard errors) and restores canonical order; reduce_study re-checks the
  // rows against the study grid, so wrong --set parameters cannot
  // silently produce a wrong figure.
  const auto results = dt::merge_journals(jobs, entries);
  const std::string csv = st::reduce_study(study, params, jobs, results);
  return emit_figure_csv(csv, opts.out_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions run;
  std::string validate_path;
  std::vector<std::string> dump_names;
  PlanOptions plan;
  ShardRunOptions shard_run;
  JournalSetOptions merge;
  JournalSetOptions status;
  dt::DaemonOptions daemon;
  daemon.worker_id = host_pid_id();
  dt::ReapOptions reap;
  reap.reaper_id = host_pid_id();
  StudyOptions study;
  const auto set = fl::strings("--set", "k=v", "override a study parameter", study.sets);
  const auto out = fl::string("--out", "F", "also write the output to F", study.out_path);

  std::vector<fl::Command> commands = {
      {"run", "Run a sweep's job grid; print replicate statistics and Welch verdicts.",
       {{"<sweep.json>", run.sweep_path}}, [&] { return cmd_run(run); },
       with_emit_flags(run.emit, {
           threads_flag(run.threads),
           fl::string("--bench-json", "F", "wall clock, cache counters", run.bench_json),
           fl::string("--trace-out", "DIR", "Perfetto timelines per run", run.trace_out),
           fl::string("--metrics-json", "F", "worker metrics, per run", run.metrics_json),
       })},
      {"validate", "Parse and expand a sweep without running it; print the job count.",
       {{"<sweep.json>", validate_path}},
       [&] { return cmd_validate(validate_path); }, {}},
      {"list", "Registry scenario names with descriptions.", {}, cmd_list, {}},
      {"dump", "Registry scenarios (all by default) as JSON.",
       {{"[<scenario>...]", dump_names}}, [&] { return cmd_dump(dump_names); }, {}},
      {"shard plan", "Split a sweep's job grid into shard manifests.",
       {{"<sweep.json>", plan.sweep_path}}, [&] { return cmd_shard_plan(plan); },
       {fl::required(fl::integer("--shards", "N", "number of shards", plan.shards, 1)),
        fl::string("--strategy", "S", "balanced, contiguous or strided", plan.strategy),
        fl::string("--out-dir", "D", "manifest directory; default .", plan.out_dir),
        fl::strings("--costs", "JOURNAL", "price jobs by measured wall_ms",
                    plan.cost_journals)}},
      {"shard run", "Execute a shard's outstanding jobs into its journal (resumable).",
       {{"<manifest.json>", shard_run.manifest_path}},
       [&] { return cmd_shard_run(shard_run); },
       {fl::string("--sweep", "PATH", "sweep file override", shard_run.sweep_override),
        threads_flag(shard_run.threads),
        fl::string("--journal", "F", "default <manifest stem>.journal.jsonl",
                   shard_run.journal_path)}},
      {"shard merge", "Merge shard journals into the same output as `run`.",
       {{"<sweep.json>", merge.sweep_path}}, [&] { return cmd_shard_merge(merge); },
       with_emit_flags(merge.emit, {journals_flag(merge.journals)})},
      {"shard status", "Coverage, per-journal wall clock, stale claims and workers.",
       {{"<sweep.json>", status.sweep_path}}, [&] { return cmd_shard_status(status); },
       {journals_flag(status.journals),
        fl::string("--queue-dir", "D", "also its claims and workers", status.queue_dir),
        fl::toggle("--json", "one JSON document instead of text", status.json)}},
      {"shard daemon", "Serve a queue directory: claim, run and archive shard manifests.",
       {{"<queue-dir>", daemon.queue_dir}}, [&] { return cmd_shard_daemon(daemon); },
       {fl::string("--worker-id", "W", "claim owner; default <hostname>-<pid>",
                   daemon.worker_id),
        threads_flag(daemon.threads),
        fl::integer("--poll-ms", "P", "idle rescan; default 500", daemon.poll_ms, 1),
        fl::real("--max-idle-s", "S", "idle exit; default 60, <= 0: STOP only",
                 daemon.max_idle_s),
        fl::real("--lease-ttl-s", "S", "claim lease TTL; default 900", daemon.lease_ttl_s,
                 {.lo = 0.0, .open = true}),
        fl::toggle("--no-reap", "never reap expired claims", daemon.reap, false)}},
      {"shard reap", "Return dead workers' expired claims to the queue.",
       {{"<queue-dir>", reap.queue_dir}}, [&] { return cmd_shard_reap(reap); },
       {fl::toggle("--dry-run", "report, change nothing", reap.dry_run),
        fl::string("--reaper-id", "R", "reap journal name; default <hostname>-<pid>",
                   reap.reaper_id)}},
      {"fault list", "The crash points DROWSY_CRASH_AT=<point>[:<nth>] arms.", {},
       cmd_fault_list, {}},
      {"study list", "Registered studies with their paper figure and parameters.", {},
       cmd_study_list, {}},
      {"study run", "Run a study's grid and print its figure CSV.",
       {{"<study>", study.name}}, [&] { return cmd_study_run(study); },
       {set, threads_flag(study.threads), out,
        fl::string("--runs-csv", "F", "one row per run as CSV", study.runs_csv)}},
      {"study dump", "A study's grid as a self-contained sweep JSON.",
       {{"<study>", study.name}}, [&] { return cmd_study_dump(study); }, {set, out}},
      {"study reduce", "Merge a sharded study's journals into its figure CSV.",
       {{"<study>", study.name}}, [&] { return cmd_study_reduce(study); },
       {set, journals_flag(study.journals), out}},
  };
  // Arm crash points before any handler runs, so every subcommand —
  // daemon, reap, merge — can be crashed from the outside; a typo'd
  // point name fails the command.
  for (fl::Command& command : commands) {
    command.run = [handler = std::move(command.run)] {
      dt::fault::arm_from_env();
      return handler();
    };
  }
  return fl::dispatch("drowsy_sweep", commands, argc, argv);
}
