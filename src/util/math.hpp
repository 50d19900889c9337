// Small numeric helpers shared across the library: the logistic damping
// used by the idleness-model update (paper eq. 4), the dot product and
// simplex projection behind the learned time-scale weights (paper §III-C;
// IdlenessModel::learn_weights takes its own gradient steps), and the
// Student-t distribution used for study confidence intervals.
#pragma once

#include <span>

namespace drowsy::util {

/// Clamp x into [lo, hi].
[[nodiscard]] double clamp(double x, double lo, double hi);

/// Logistic damping coefficient of paper eq. (4):
///   u(x) = 1 / (1 + exp(alpha * (x - beta)))
/// For the idleness model, x is |SI*|, alpha the decrease speed and beta
/// the "extreme value" threshold.
[[nodiscard]] double logistic_damping(double x, double alpha, double beta);

/// Dot product of two equally-sized vectors.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Project v in place onto the probability simplex
/// { w : w_i >= 0, sum w_i = 1 } (Duchi et al. 2008, O(n log n)).
void project_to_simplex(std::span<double> v);

/// Regularized incomplete beta function I_x(a, b) for a, b > 0 and
/// x in [0, 1], by the standard continued-fraction expansion (Lentz's
/// method).  The basis for Student-t probabilities below.
[[nodiscard]] double incomplete_beta(double a, double b, double x);

/// Two-sided Student-t p-value: P(|T_df| >= |t|) for df > 0.
/// Non-integer df is supported (Welch–Satterthwaite produces them).
[[nodiscard]] double students_t_two_sided_p(double t, double df);

/// Two-sided critical value: the t with students_t_two_sided_p(t, df) == p
/// (e.g. p = 0.05 gives the 97.5th percentile).  Solved by bisection;
/// plenty for confidence intervals over replicate counts.
[[nodiscard]] double students_t_critical(double p, double df);

}  // namespace drowsy::util
