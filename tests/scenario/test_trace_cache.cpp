#include "scenario/trace_cache.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <thread>
#include <vector>

#include "scenario/batch_runner.hpp"

namespace sc = drowsy::scenario;

namespace {

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f) << path;
  f << bytes;
}

sc::ScenarioSpec tiny_scenario(std::uint64_t seed) {
  sc::ScenarioSpec s;
  s.name = "cache-tiny";
  s.hosts = 2;
  s.host_template = {"", 8, 16384, 2};
  s.vms = {
      {.name_prefix = "idle",
       .count = 2,
       .workload = {.kind = sc::TraceKind::DailyBackup, .hour = 2}},
      {.name_prefix = "busy",
       .count = 2,
       .workload = {.kind = sc::TraceKind::LlmuConstant, .noise = 0.02}},
  };
  s.pretrain_days = 2;
  s.duration_days = 1;
  s.request_rate_per_hour = 30.0;
  s.seed = seed;
  return s;
}

}  // namespace

TEST(TraceCache, ReturnsExactlyWhatMaterializeWould) {
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::OfficeHours;
  spec.noise = 0.05;
  const auto cached = cache.get(spec, 99);
  const auto direct = sc::materialize(spec, 99);
  EXPECT_EQ(cached->hours(), direct.hours());
  EXPECT_EQ(cached->name(), direct.name());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceCache, HitsOnRepeatAndPinnedSeedNormalization) {
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::DailyBackup;
  const auto first = cache.get(spec, 7);
  const auto again = cache.get(spec, 7);
  EXPECT_EQ(first.get(), again.get());  // same shared object, not a rebuild
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // A pinned seed equal to the fallback collides onto the same entry:
  // materialize() would produce the identical trace either way.
  sc::TraceSpec pinned = spec;
  pinned.seed = 7;
  EXPECT_EQ(cache.get(pinned, 123).get(), first.get());
  EXPECT_EQ(cache.hits(), 2u);

  // Different fallback seed is a distinct trace.
  EXPECT_NE(cache.get(spec, 8).get(), first.get());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(TraceCache, DistinguishesEveryKnob) {
  sc::TraceCache cache;
  sc::TraceSpec base;
  base.kind = sc::TraceKind::DutyCycle;
  static_cast<void>(cache.get(base, 1));
  sc::TraceSpec variant = base;
  variant.span_hours = 7;
  static_cast<void>(cache.get(variant, 1));
  variant.hour = 3;
  static_cast<void>(cache.get(variant, 1));
  EXPECT_EQ(cache.misses(), 3u) << "each knob is its own entry";
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceCache, CachedBuildIsBitIdenticalToUncached) {
  // The determinism contract: routing build() through the cache must not
  // change a single metric.
  const sc::ScenarioSpec spec = tiny_scenario(17);
  sc::TraceCache cache;
  const sc::RunResult cold = sc::run_one(spec, sc::Policy::DrowsyDc, 17, nullptr);
  const sc::RunResult warm = sc::run_one(spec, sc::Policy::DrowsyDc, 17, &cache);
  const sc::RunResult reused = sc::run_one(spec, sc::Policy::DrowsyDc, 17, &cache);
  EXPECT_GT(cache.hits(), 0u);  // second run fed entirely from the cache
  const auto csv = [](const sc::RunResult& r) { return sc::to_csv({r}); };
  EXPECT_EQ(csv(cold), csv(warm));
  EXPECT_EQ(csv(cold), csv(reused));
}

TEST(TraceCache, BatchRunnerSharesTracesAcrossPolicyArms) {
  // 1 scenario x 3 policies x 2 seeds: each of the 4 per-seed traces is
  // materialized once and reused by the other two policy arms.
  sc::BatchRunner runner(2);
  const auto jobs = sc::cross({tiny_scenario(21)},
                              {sc::Policy::DrowsyDc, sc::Policy::NeatS3, sc::Policy::Oasis}, 2);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(runner.last_trace_misses(), 8u);  // 4 VMs x 2 seeds
  EXPECT_EQ(runner.last_trace_hits(), 16u);   // reused by 2 further policies
}

TEST(TraceCache, FileReplayIgnoresSeedsAndKeysByContent) {
  const std::string path = ::testing::TempDir() + "/cache_replay.csv";
  write_file(path, "a,b\n0.1,0.9\n0.2,0.8\n");
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::FileReplay;
  spec.path = path;

  // Distinct fallback seeds (one per VM in a group) must all hit the one
  // entry: replay output is seed-independent.
  const auto first = cache.get(spec, 1);
  EXPECT_EQ(cache.get(spec, 2).get(), first.get());
  EXPECT_EQ(cache.get(spec, 3).get(), first.get());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);

  // select / downsample are part of the identity.
  sc::TraceSpec named = spec;
  named.select = "b";
  EXPECT_NE(cache.get(named, 1).get(), first.get());
  sc::TraceSpec pooled = spec;
  pooled.downsample = 2;
  EXPECT_NE(cache.get(pooled, 1).get(), first.get());
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(TraceCache, SamePathChangedBytesIsAMiss) {
  const std::string path = ::testing::TempDir() + "/cache_replay_edit.csv";
  write_file(path, "a\n0.1\n0.2\n");
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::FileReplay;
  spec.path = path;

  const auto before = cache.get(spec, 1);
  EXPECT_EQ(cache.misses(), 1u);
  write_file(path, "a\n0.5\n0.6\n");
  const auto after = cache.get(spec, 1);
  EXPECT_EQ(cache.misses(), 2u) << "content hash must key the entry, not the path";
  EXPECT_NE(after.get(), before.get());
  EXPECT_DOUBLE_EQ(after->hours()[0], 0.5);
  EXPECT_DOUBLE_EQ(before->hours()[0], 0.1) << "earlier handles keep the bytes they saw";

  // Restoring the original bytes hits the original entry again.
  write_file(path, "a\n0.1\n0.2\n");
  EXPECT_EQ(cache.get(spec, 1).get(), before.get());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(TraceCache, ConcurrentGetsAgree) {
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::GoogleLlmu;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const drowsy::trace::ActivityTrace>> results(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] { results[t] = cache.get(spec, 5); });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.misses(), 1u) << "one entry, whoever built it";
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());
  }
  EXPECT_EQ(cache.hits() + cache.misses(), 8u);
}
