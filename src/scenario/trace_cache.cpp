#include "scenario/trace_cache.hpp"

#include "replay/replay.hpp"

namespace drowsy::scenario {

bool TraceKey::operator==(const TraceKey& other) const {
  const TraceSpec& a = spec;
  const TraceSpec& b = other.spec;
  // Deliberately no `a.path == b.path`: for FileReplay the content hash
  // *is* the file's identity, so one slice reached via two paths (say,
  // relative and DROWSY_TRACE_ROOT-resolved) shares a single entry.
  return seed == other.seed && content_hash == other.content_hash &&
         a.kind == b.kind && a.years == b.years && a.noise == b.noise &&
         a.level == b.level && a.hour == b.hour && a.span_hours == b.span_hours &&
         a.period_hours == b.period_hours && a.variant == b.variant &&
         a.select == b.select && a.downsample == b.downsample;
}

std::size_t TraceKeyHash::operator()(const TraceKey& key) const {
  // Chain every knob through the seed mixer; doubles hash by bit pattern,
  // which is exact for the declarative values specs carry.
  const auto bits = [](double v) {
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    __builtin_memcpy(&u, &v, sizeof(u));
    return u;
  };
  std::uint64_t h = mix_seed(key.seed, static_cast<std::uint64_t>(key.spec.kind));
  h = mix_seed(h, key.spec.years);
  h = mix_seed(h, bits(key.spec.noise));
  h = mix_seed(h, bits(key.spec.level));
  h = mix_seed(h, static_cast<std::uint64_t>(key.spec.hour));
  h = mix_seed(h, static_cast<std::uint64_t>(key.spec.span_hours));
  h = mix_seed(h, static_cast<std::uint64_t>(key.spec.period_hours));
  h = mix_seed(h, key.spec.variant);
  h = mix_seed(h, key.content_hash);
  h = mix_seed(h, replay::content_hash(key.spec.select));
  h = mix_seed(h, static_cast<std::uint64_t>(key.spec.downsample));
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const trace::ActivityTrace> TraceCache::get(const TraceSpec& spec,
                                                            std::uint64_t fallback_seed) {
  TraceKey key{spec, spec.seed != 0 ? spec.seed : fallback_seed, 0};
  std::shared_ptr<const replay::ReplayFile> file;
  if (spec.kind == TraceKind::FileReplay) {
    // Replay ignores seeds, so normalize them away — otherwise every VM's
    // distinct fallback seed would be a guaranteed miss.  The file load
    // happens *before* the lookup because the key is the content hash:
    // editing the file between calls must land in the miss path.
    key.seed = 0;
    file = replay::load_replay_file(spec.path);
    key.content_hash = file->hash;
  }
  key.spec.seed = key.seed;  // normalize so pinned and fallback forms collide

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = entries_.find(key); it != entries_.end()) {
      ++hits_;
      return it->second;
    }
  }

  // Materialize outside the lock: trace synthesis is the expensive part
  // and must not serialize the batch workers.  A concurrent miss on the
  // same key builds a duplicate, but the generators are deterministic so
  // both copies are identical; the loser's is discarded below.
  auto built = std::make_shared<const trace::ActivityTrace>(
      file ? replay::select_column(*file, key.spec.select, key.spec.variant,
                                   key.spec.downsample)
           : materialize(key.spec, key.seed));

  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.try_emplace(key, std::move(built));
  if (inserted) {
    ++misses_;
  } else {
    ++hits_;
  }
  return it->second;
}

std::uint64_t TraceCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t TraceCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace drowsy::scenario
