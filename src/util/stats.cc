#include "src/util/stats.h"

#include <cmath>
#include <limits>

#include "src/util/logging.h"

namespace deepcrawl {

LinearFit FitLeastSquares(const std::vector<double>& x,
                          const std::vector<double>& y) {
  DEEPCRAWL_CHECK_EQ(x.size(), y.size());
  DEEPCRAWL_CHECK_GE(x.size(), 2u) << "need at least two points to fit";
  size_t n = x.size();
  double sx = 0, sy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  double mx = sx / static_cast<double>(n);
  double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    double dx = x[i] - mx;
    double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  DEEPCRAWL_CHECK_GT(sxx, 0.0) << "x values are constant; cannot fit";
  LinearFit fit;
  fit.n = n;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  if (syy == 0.0) {
    fit.r_squared = 1.0;  // perfectly flat data, perfectly fit
  } else {
    double ss_res = syy - fit.slope * sxy;
    fit.r_squared = 1.0 - ss_res / syy;
  }
  return fit;
}

namespace {

// Regularized incomplete beta function I_x(a, b) via the continued
// fraction expansion (Numerical Recipes style, Lentz's method).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 1e-14;
  constexpr double kTiny = 1e-30;

  double qab = a + b;
  double qap = a + 1.0;
  double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double ln_beta = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  double front = std::exp(ln_beta + a * std::log(x) + b * std::log(1.0 - x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace

double StudentTCdf(double t, double df) {
  DEEPCRAWL_CHECK_GT(df, 0.0);
  double x = df / (df + t * t);
  double p = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t > 0 ? 1.0 - p : p;
}

double StudentTQuantile(double p, double df) {
  DEEPCRAWL_CHECK_GT(p, 0.0);
  DEEPCRAWL_CHECK_LT(p, 1.0);
  if (p == 0.5) return 0.0;
  // Monotone bisection; the t quantile is bounded well inside +/-1e3 for
  // any p we care about (p in [1e-9, 1-1e-9], df >= 1).
  double lo = -1e3, hi = 1e3;
  for (int i = 0; i < 200; ++i) {
    double mid = 0.5 * (lo + hi);
    if (StudentTCdf(mid, df) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * std::max(1.0, std::fabs(lo))) break;
  }
  return 0.5 * (lo + hi);
}

TTestResult OneSampleTTest(const std::vector<double>& samples,
                           double confidence) {
  DEEPCRAWL_CHECK_GE(samples.size(), 2u);
  DEEPCRAWL_CHECK_GT(confidence, 0.0);
  DEEPCRAWL_CHECK_LT(confidence, 1.0);
  // Welford's streaming mean and sum of squared deviations.
  double mean = 0.0;
  double m2 = 0.0;
  size_t count = 0;
  for (double s : samples) {
    ++count;
    double delta = s - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (s - mean);
  }
  TTestResult result;
  result.n = count;
  result.mean = mean;
  result.stddev = std::sqrt(m2 / static_cast<double>(count - 1));
  result.df = static_cast<double>(result.n - 1);
  double se = result.stddev / std::sqrt(static_cast<double>(result.n));
  double t_two = StudentTQuantile(0.5 + confidence / 2.0, result.df);
  double t_one = StudentTQuantile(confidence, result.df);
  result.ci_lower = result.mean - t_two * se;
  result.ci_upper = result.mean + t_two * se;
  result.one_sided_upper = result.mean + t_one * se;
  return result;
}

}  // namespace deepcrawl
