// Prediction-accuracy metrics — paper Table III.
//
// The idleness model's job is to predict whether a VM will be idle during
// the next hour.  "The case is positive when the VM is idle, or predicted
// idle."  Recall catches false negatives, Precision false positives,
// Specificity is "the equivalent of Precision for negative cases"
// (important for LLMU VMs), and the F-measure summarizes Recall and
// Precision — the paper's main score.
#pragma once

#include <cstdint>
#include <deque>

namespace drowsy::metrics {

/// Running confusion counts over all observations.
class ConfusionCounter {
 public:
  /// Record one prediction/outcome pair.  Positive = idle.
  void add(bool predicted_idle, bool actually_idle);

  /// Un-record a pair (sliding-window eviction).
  void remove(bool predicted_idle, bool actually_idle);

  [[nodiscard]] std::uint64_t tp() const { return tp_; }
  [[nodiscard]] std::uint64_t fp() const { return fp_; }
  [[nodiscard]] std::uint64_t tn() const { return tn_; }
  [[nodiscard]] std::uint64_t fn() const { return fn_; }
  [[nodiscard]] std::uint64_t total() const { return tp_ + fp_ + tn_ + fn_; }

  /// TP / (TP + FN); 1.0 when undefined (no positives observed).
  [[nodiscard]] double recall() const;
  /// TP / (TP + FP); 1.0 when undefined (nothing predicted positive).
  [[nodiscard]] double precision() const;
  /// Harmonic mean of recall and precision.
  [[nodiscard]] double f_measure() const;
  /// TN / (TN + FP); 1.0 when undefined.
  [[nodiscard]] double specificity() const;

 private:
  std::uint64_t tp_ = 0, fp_ = 0, tn_ = 0, fn_ = 0;
};

/// Confusion over a sliding window of the most recent observations —
/// Fig. 4 plots the metrics as they evolve over three years.
class WindowedConfusion {
 public:
  explicit WindowedConfusion(std::size_t window) : window_(window) {}

  void add(bool predicted_idle, bool actually_idle);

  [[nodiscard]] const ConfusionCounter& counts() const { return counts_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    bool predicted, actual;
  };
  std::size_t window_;
  std::deque<Entry> entries_;
  ConfusionCounter counts_;
};

}  // namespace drowsy::metrics
