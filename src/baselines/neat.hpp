// OpenStack-Neat-style dynamic VM consolidation (Beloglazov & Buyya).
//
// The paper's comparison baseline (§VI).  Neat splits consolidation into
// four sub-problems (§III-D): (1) underload detection, (2) overload
// detection, (3) VM selection, (4) VM placement.  This implementation
// provides the standard algorithm menu:
//   overload:  THR (static threshold), MAD (median absolute deviation),
//              IQR (interquartile range), LR (local regression forecast);
//   selection: MMT (minimum migration time), HighestUtil, Random;
//   placement: PABFD (power-aware best-fit decreasing).
// Underload handling follows Neat's practice: starting from the least
// utilized host, try to evacuate all of its VMs to other active hosts
// without overloading them.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/consolidation.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace drowsy::baselines {

/// Overload-detection algorithm.
enum class OverloadAlgo { Thr, Mad, Iqr, Lr };
/// VM-selection algorithm.
enum class SelectionAlgo { Mmt, HighestUtil, Random };

/// Neat tunables (defaults follow the OpenStack Neat paper).
struct NeatConfig {
  OverloadAlgo overload = OverloadAlgo::Thr;
  SelectionAlgo selection = SelectionAlgo::Mmt;
  double threshold = 0.9;        ///< THR static utilization threshold
  double safety = 2.5;           ///< MAD/IQR safety parameter s
  double underload = 0.5;        ///< hosts below this try to evacuate (Beloglazov)
  std::size_t history = 24;      ///< utilization history window (hours)
  std::uint64_t seed = 11;       ///< for the Random selector
};

/// Neat as a pluggable consolidation policy.
class NeatConsolidation final : public core::ConsolidationPolicy {
 public:
  NeatConsolidation(sim::Cluster& cluster, NeatConfig config = {});

  void run_hour(std::int64_t next_hour) override;
  [[nodiscard]] std::string name() const override;

  /// Overload verdict for one host (exposed for unit tests).
  [[nodiscard]] bool overloaded(const sim::Host& host, double current_util) const;


 private:
  [[nodiscard]] std::vector<sim::Vm*> select_vms(sim::Host& host,
                                                 std::int64_t next_hour);
  /// Power-aware best-fit-decreasing placement of `vms`; hosts in
  /// `exclude` are not candidates.  Returns the planned moves.
  void place_pabfd(std::vector<sim::Vm*>& vms, std::int64_t next_hour,
                   const sim::Host* exclude);

  sim::Cluster& cluster_;
  NeatConfig config_;
  util::Rng rng_;
  std::unordered_map<sim::HostId, std::deque<double>> history_;
};

}  // namespace drowsy::baselines
