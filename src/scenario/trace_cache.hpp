// Memoized trace materialization for sweeps.
//
// A (TraceSpec, effective seed) pair fully determines the generated
// ActivityTrace, and a sweep replays the same pair many times: every
// policy arm of a (scenario, seed) replicate regenerates the identical
// fleet of traces.  TraceCache materializes each distinct pair once and
// hands out shared read-only copies, so an 11-scenario x 3-policy batch
// synthesizes each year-long trace once instead of three times.
//
// Determinism: the cache stores exactly what materialize() would have
// produced (same spec, same effective seed), so routing build() through
// it cannot change any run's results — cached and uncached batches are
// bit-identical.  Thread safety: get() may be called concurrently from
// BatchRunner workers; a racing miss may materialize twice, but both
// products are identical and only the first insert is kept.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "scenario/scenario.hpp"
#include "trace/trace.hpp"

namespace drowsy::scenario {

/// Value-equality over every generator knob of a TraceSpec plus the
/// effective seed (spec.seed when pinned, else the caller's fallback).
///
/// FileReplay specs are keyed by `content_hash` of the file's bytes —
/// not by path — so the same slice reached via two paths shares one
/// entry, and editing the file between get() calls is a miss rather
/// than a stale hit.  Their seed is normalized to 0 (replay ignores
/// seeds; per-member fallback seeds must not defeat the memo).
struct TraceKey {
  TraceSpec spec;                  ///< spec with seed normalized to `seed`
  std::uint64_t seed = 0;          ///< the seed materialize() will actually use
  std::uint64_t content_hash = 0;  ///< FileReplay: hash of file bytes; else 0

  [[nodiscard]] bool operator==(const TraceKey& other) const;
};

struct TraceKeyHash {
  [[nodiscard]] std::size_t operator()(const TraceKey& key) const;
};

/// Thread-safe memo table over materialize().
class TraceCache {
 public:
  TraceCache() = default;
  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  /// The trace materialize(spec, fallback_seed) would return, built at
  /// most once per distinct (spec, effective seed).  The returned pointer
  /// stays valid for the cache's lifetime.
  [[nodiscard]] std::shared_ptr<const trace::ActivityTrace> get(
      const TraceSpec& spec, std::uint64_t fallback_seed);

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<TraceKey, std::shared_ptr<const trace::ActivityTrace>, TraceKeyHash>
      entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace drowsy::scenario
