// Claim leases: the liveness contract between a worker and the queue.
//
// The queue daemon claims a manifest by renaming it into
// claimed/<worker>/ — exclusive forever, which is exactly the problem
// when the worker dies: nothing in the filesystem says how long
// "forever" was supposed to be.  A lease makes the contract explicit.
// Next to every claimed manifest the owner writes a small lease file
//
//   claimed/<worker>/<name>.lease.json
//   {"schema": "drowsy-claim-lease-v1", "worker_id": ..., "manifest":
//    ..., "granted_unix_ms": ..., "renewed_unix_ms": ..., "ttl_s": ...}
//
// and rewrites it (atomic tmp+rename) alongside every heartbeat metrics
// flush — each poll cycle and each finished journal row.  The lease
// file's *mtime* is the renewal instant (the same clock the heartbeat
// snapshot already uses, so cross-machine wall-clock skew never enters
// the comparison); `ttl_s` is how long the owner may go silent before
// any reaper may re-enqueue the claim.  The embedded timestamps are for
// humans reading the file.
//
// list_claims() is the one scanner everything liveness-related shares:
// `shard status` renders it (its stale list is this filtered by
// ClaimInfo::expired), and the reaper (reaper.hpp) acts on it.  A
// claim's "last seen" instant is the freshest of its lease renewal and
// its worker's metrics-snapshot heartbeat; a claim with neither
// (written by a pre-lease daemon, or parked by hand) falls back to the
// manifest file's own mtime — which dates from `shard plan` and
// therefore ages even while the owner works, so it is only trusted
// against the caller's generous threshold, never a lease TTL.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expctl/json.hpp"

namespace drowsy::distrib {

/// One claim lease, as serialized to <name>.lease.json.
struct Lease {
  std::string worker_id;
  std::string manifest;  ///< basename of the claimed manifest
  std::uint64_t granted_unix_ms = 0;  ///< first grant (claim/resume time)
  std::uint64_t renewed_unix_ms = 0;  ///< last renewal (matches file mtime)
  double ttl_s = 0.0;                 ///< max silent seconds before reapable
};

/// {"schema": "drowsy-claim-lease-v1", ...} — field order fixed.
[[nodiscard]] expctl::Json to_json(const Lease& lease);
/// Strict inverse (schema checked, every field required, ttl_s > 0).
/// Throws DistribError on malformed input.
[[nodiscard]] Lease lease_from_json(const expctl::Json& j);

/// "<stem>.lease.json" beside "<stem>.json" (the claimed manifest).
[[nodiscard]] std::string lease_path_for(const std::string& manifest_path);

/// Atomically replace `path` with the rendered lease (tmp + rename), so
/// a reaper never reads a torn lease.  Throws DistribError on I/O
/// failure.
void write_lease_file(const std::string& path, const Lease& lease);

/// Read + parse one lease file.  Throws DistribError on I/O or parse
/// failure.
[[nodiscard]] Lease read_lease_file(const std::string& path);

/// One manifest sitting in some worker's claimed/ directory, with its
/// liveness evidence resolved.
struct ClaimInfo {
  std::string manifest_path;  ///< <queue>/claimed/<worker>/<name>.json
  std::string worker_id;
  /// Seconds since the owner was last seen: the freshest of the lease
  /// file's mtime and the worker's metrics-snapshot mtime; the manifest
  /// file's own mtime when neither exists.
  double age_s = 0.0;
  /// true when the metrics snapshot provided the freshest evidence.
  bool from_snapshot = false;
  bool has_lease = false;
  double lease_ttl_s = 0.0;        ///< 0 without a lease
  /// ttl - age: seconds of silence still allowed.  Negative once the
  /// lease has expired; 0 without a lease.
  double lease_remaining_s = 0.0;

  /// Reapable?  A leased claim expires strictly by its own TTL; a
  /// lease-less claim only by the caller's threshold.
  [[nodiscard]] bool expired(double stale_after_s) const {
    return has_lease ? age_s > lease_ttl_s : age_s >= stale_after_s;
  }
};

/// Scan <queue>/claimed/*/ for every claimed manifest, in path order.
/// Only files that parse as shard manifests count (journals, lease
/// files and stray files are ignored).  An unreadable lease file is
/// treated as absent (and logged) — a half-broken lease must degrade to
/// the heartbeat/mtime fallback, not hide the claim.  A queue without a
/// claimed/ directory has no claims; a missing queue root throws
/// DistribError.
[[nodiscard]] std::vector<ClaimInfo> list_claims(const std::string& queue_dir);

}  // namespace drowsy::distrib
