// Least-squares regression and Student-t inference utilities.
//
// The paper uses (a) log-log least-squares fits to argue the attribute
// value graph degree distribution is power-law (Figure 2) and (b) a
// one-sample t-test over 15 pairwise capture-recapture size estimates to
// bound the Amazon DVD database size with 90% confidence (§5). Both pieces
// of mathematics live here so the estimate/ and graph/ modules share one
// implementation.

#ifndef DEEPCRAWL_UTIL_STATS_H_
#define DEEPCRAWL_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace deepcrawl {

// Result of an ordinary least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  // coefficient of determination
  size_t n = 0;
};

// Fits a line through (x[i], y[i]). Requires x.size() == y.size() >= 2
// and x not constant.
LinearFit FitLeastSquares(const std::vector<double>& x,
                          const std::vector<double>& y);

// Student-t distribution utilities. `df` is degrees of freedom (>0).
//
// CDF computed through the regularized incomplete beta function;
// quantile by monotone bisection on the CDF. Accuracy ~1e-10, far more
// than experiment reporting needs.
double StudentTCdf(double t, double df);
double StudentTQuantile(double p, double df);  // p in (0,1)

// One-sample t inference over `samples`.
struct TTestResult {
  double mean = 0.0;
  double stddev = 0.0;
  size_t n = 0;
  double df = 0.0;
  // Two-sided confidence interval bounds at the requested level.
  double ci_lower = 0.0;
  double ci_upper = 0.0;
  // One-sided upper bound: P(true mean < one_sided_upper) = level.
  double one_sided_upper = 0.0;
};

// Computes mean confidence bounds at `confidence` (e.g. 0.90).
// Requires samples.size() >= 2.
TTestResult OneSampleTTest(const std::vector<double>& samples,
                           double confidence);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_STATS_H_
