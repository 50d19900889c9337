// drowsy_trace — raw cluster datasets in, replayable workloads out:
// convert Azure/Google-style readings into hourly trace CSVs, summarize
// converted traces, and write the seeded raw samples behind traces/.
//
// `drowsy_trace --help` lists every subcommand and flag; docs/replay.md
// is the full reference (formats, manifest schema, workflow).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "expctl/json.hpp"
#include "replay/dataset.hpp"
#include "scenario/batch_runner.hpp"
#include "trace/csv.hpp"
#include "trace/trace.hpp"
#include "util/flags.hpp"

namespace fl = drowsy::util::flags;
namespace rp = drowsy::replay;
namespace sc = drowsy::scenario;
namespace tr = drowsy::trace;
using drowsy::expctl::Json;

namespace {

std::string default_manifest_path(const std::string& out) {
  const bool csv = out.size() > 4 && out.ends_with(".csv");
  return out.substr(0, out.size() - (csv ? 4 : 0)) + ".manifest.json";
}

Json manifest_json(const std::string& source, rp::DatasetFormat format,
                   const std::vector<rp::ColumnSummary>& columns) {
  const rp::ClassCounts counts = rp::count_classes(columns);
  std::size_t hours_total = 0;
  for (const rp::ColumnSummary& c : columns) hours_total += c.hours;

  Json j = Json::object();
  j.set("source", source);
  j.set("format", rp::to_string(format));
  j.set("vms", static_cast<std::uint64_t>(columns.size()));
  j.set("hours_total", static_cast<std::uint64_t>(hours_total));
  Json cc = Json::object();
  cc.set("slmu", static_cast<std::uint64_t>(counts.slmu));
  cc.set("llmu", static_cast<std::uint64_t>(counts.llmu));
  cc.set("llmi", static_cast<std::uint64_t>(counts.llmi));
  j.set("class_counts", std::move(cc));
  Json cols = Json::array();
  for (const rp::ColumnSummary& c : columns) {
    Json col = Json::object();
    col.set("name", c.name);
    col.set("hours", static_cast<std::uint64_t>(c.hours));
    col.set("mean_activity", c.mean_activity);
    col.set("idle_fraction", c.idle_fraction);
    col.set("class", tr::to_string(c.vm_class));
    cols.push_back(std::move(col));
  }
  j.set("columns", std::move(cols));
  return j;
}

void print_summary_table(const std::vector<rp::ColumnSummary>& columns) {
  std::printf("%-16s %8s %14s %14s %6s\n", "vm", "hours", "mean_activity",
              "idle_fraction", "class");
  for (const rp::ColumnSummary& c : columns) {
    std::printf("%-16s %8zu %14.4f %14.4f %6s\n", c.name.c_str(), c.hours,
                c.mean_activity, c.idle_fraction, tr::to_string(c.vm_class));
  }
  const rp::ClassCounts counts = rp::count_classes(columns);
  std::printf("\n%zu VM(s): %zu SLMU, %zu LLMU, %zu LLMI\n", columns.size(),
              counts.slmu, counts.llmu, counts.llmi);
}

/// Every subcommand's flags; only the parsed command's fields are read.
struct Options {
  std::string input;
  std::string format;
  std::string out_path;
  std::string manifest_path;
  rp::SampleOptions sample;
};

int cmd_convert(const Options& opts) {
  const rp::DatasetFormat format = rp::dataset_format_from_string(opts.format);
  const std::string manifest_path = opts.manifest_path.empty()
                                        ? default_manifest_path(opts.out_path)
                                        : opts.manifest_path;

  std::ifstream in(opts.input, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + opts.input);
  const std::vector<tr::ActivityTrace> traces = rp::fold_dataset(format, in);
  tr::save_csv(opts.out_path, traces);

  const auto columns = rp::summarize_columns(traces);
  const std::string manifest = manifest_json(opts.input, format, columns).dump() + "\n";
  if (!sc::write_file(manifest_path, manifest)) {
    throw std::runtime_error("cannot write " + manifest_path);
  }

  const rp::ClassCounts counts = rp::count_classes(columns);
  std::printf("%s: %zu VM(s) -> %s (%zu SLMU, %zu LLMU, %zu LLMI; manifest %s)\n",
              opts.input.c_str(), traces.size(), opts.out_path.c_str(), counts.slmu,
              counts.llmu, counts.llmi, manifest_path.c_str());
  return 0;
}

int cmd_sample(const Options& opts) {
  const rp::DatasetFormat format = rp::dataset_format_from_string(opts.format);
  std::ostringstream out;
  if (format == rp::DatasetFormat::AzureVm) {
    rp::write_azure_sample(out, opts.sample);
  } else {
    rp::write_google_sample(out, opts.sample);
  }
  if (!sc::write_file(opts.out_path, out.str())) {
    throw std::runtime_error("cannot write " + opts.out_path);
  }
  std::printf("%s sample: %d VM(s) x %d day(s), seed %llu -> %s\n", rp::to_string(format),
              opts.sample.vms, opts.sample.days,
              static_cast<unsigned long long>(opts.sample.seed), opts.out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  rp::SampleOptions& sample = opts.sample;
  const std::vector<fl::Command> commands = {
      {"convert", "Fold raw readings into an hourly trace CSV plus a class manifest.",
       {{"<raw.csv>", opts.input}}, [&] { return cmd_convert(opts); },
       {fl::required(fl::string("--format", "azure|google", "raw schema", opts.format)),
        fl::required(fl::string("--out", "<trace.csv>", "trace CSV", opts.out_path)),
        fl::string("--manifest", "<m.json>", "default: --out as .manifest.json",
                   opts.manifest_path)}},
      {"stats", "Per-column digest of a converted trace: hours, activity, class.",
       {{"<trace.csv>", opts.input}},
       [&] {
         print_summary_table(rp::summarize_columns(tr::load_csv(opts.input)));
         return 0;
       },
       {}},
      {"sample", "A seeded, deterministic raw dataset slice in either schema.",
       {{"azure|google", opts.format}}, [&] { return cmd_sample(opts); },
       {fl::required(fl::string("--out", "<raw.csv>", "raw sample CSV", opts.out_path)),
        fl::integer("--vms", "N", "population size; default 6", sample.vms, 1),
        fl::integer("--days", "D", "dataset horizon; default 14", sample.days, 1),
        fl::integer("--interval-s", "S", "Azure reading cadence; default 1800",
                    sample.interval_s, 1),
        fl::integer("--seed", "X", "sample seed; default 7", sample.seed)}},
  };
  return fl::dispatch("drowsy_trace", commands, argc, argv);
}
