// Tests for the derivative-free COBYLA-style trust-region optimizer on
// standard objectives.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "optim/cobyla.hpp"

namespace qq::optim {
namespace {

double sphere(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v * v;
  return s;
}

double shifted_quadratic(const std::vector<double>& x) {
  // Minimum 1.5 at (1, -2), with a cross term.
  const double a = x[0] - 1.0;
  const double b = x[1] + 2.0;
  return 2.0 * a * a + b * b + 0.5 * a * b + 1.5;
}

double rosenbrock2(const std::vector<double>& x) {
  const double a = 1.0 - x[0];
  const double b = x[1] - x[0] * x[0];
  return a * a + 100.0 * b * b;
}

// --------------------------------------------------------------- COBYLA ----

TEST(Cobyla, MinimizesSphereFromSeveralStarts) {
  for (const double start : {-2.0, -0.5, 0.7, 3.0}) {
    CobylaOptions opts;
    opts.rhobeg = 0.5;
    opts.rhoend = 1e-6;
    opts.maxfun = 400;
    const Result r = cobyla_minimize(sphere, {start, -start, start}, opts);
    EXPECT_LT(r.fx, 1e-4) << "start " << start;
  }
}

TEST(Cobyla, MinimizesShiftedQuadratic) {
  CobylaOptions opts;
  opts.rhobeg = 0.5;
  opts.rhoend = 1e-7;
  opts.maxfun = 600;
  const Result r = cobyla_minimize(shifted_quadratic, {0.0, 0.0}, opts);
  EXPECT_NEAR(r.fx, 1.5, 1e-3);
  EXPECT_NEAR(r.x[0], 1.0, 0.05);
  EXPECT_NEAR(r.x[1], -2.0, 0.05);
}

TEST(Cobyla, MakesProgressOnRosenbrock) {
  CobylaOptions opts;
  opts.rhobeg = 0.5;
  opts.rhoend = 1e-8;
  opts.maxfun = 2000;
  const Result r = cobyla_minimize(rosenbrock2, {-1.2, 1.0}, opts);
  EXPECT_LT(r.fx, rosenbrock2({-1.2, 1.0}) * 0.01);
}

TEST(Cobyla, RespectsEvaluationBudget) {
  int calls = 0;
  const Objective counted = [&calls](const std::vector<double>& x) {
    ++calls;
    return sphere(x);
  };
  CobylaOptions opts;
  opts.maxfun = 25;
  const Result r = cobyla_minimize(counted, {1.0, 1.0, 1.0, 1.0}, opts);
  EXPECT_LE(calls, 25);
  EXPECT_EQ(r.evaluations, calls);
}

TEST(Cobyla, ReportsBestEverPoint) {
  // The returned fx must equal the objective at the returned x, and be the
  // minimum of all evaluations.
  double min_seen = 1e300;
  const Objective tracking = [&min_seen](const std::vector<double>& x) {
    const double v = shifted_quadratic(x);
    min_seen = std::min(min_seen, v);
    return v;
  };
  const Result r = cobyla_minimize(tracking, {3.0, 3.0});
  EXPECT_DOUBLE_EQ(r.fx, min_seen);
  EXPECT_NEAR(shifted_quadratic(r.x), r.fx, 1e-12);
}

TEST(Cobyla, ConvergedFlagWhenRhoExhausted) {
  CobylaOptions opts;
  opts.rhobeg = 0.5;
  opts.rhoend = 1e-2;  // coarse: converges quickly
  opts.maxfun = 10000;
  const Result r = cobyla_minimize(sphere, {0.2, 0.2}, opts);
  EXPECT_TRUE(r.converged);
}

TEST(Cobyla, LargerRhobegEscapesFartherStarts) {
  // From a distant start with a small budget, a larger initial step makes
  // strictly more progress on the sphere — the behaviour the paper's
  // rhobeg sweep (Fig. 3c) probes.
  CobylaOptions small;
  small.rhobeg = 0.01;
  small.maxfun = 30;
  CobylaOptions large = small;
  large.rhobeg = 0.5;
  const std::vector<double> x0 = {5.0, -5.0};
  const Result rs = cobyla_minimize(sphere, x0, small);
  const Result rl = cobyla_minimize(sphere, x0, large);
  EXPECT_LT(rl.fx, rs.fx);
}

TEST(Cobyla, InputValidation) {
  EXPECT_THROW(cobyla_minimize(sphere, {}), std::invalid_argument);
  CobylaOptions bad;
  bad.rhobeg = -1.0;
  EXPECT_THROW(cobyla_minimize(sphere, {1.0}, bad), std::invalid_argument);
  bad = CobylaOptions{};
  bad.rhoend = 2.0 * bad.rhobeg;
  EXPECT_THROW(cobyla_minimize(sphere, {1.0}, bad), std::invalid_argument);
}

// COBYLA on a family of scaled quadratics (parameterized sweep).
class OptimizerFamily : public ::testing::TestWithParam<double> {};

TEST_P(OptimizerFamily, BothFindScaledQuadraticMinimum) {
  const double scale = GetParam();
  const Objective f = [scale](const std::vector<double>& x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - scale * static_cast<double>(i + 1);
      s += (static_cast<double>(i) + 1.0) * d * d;
    }
    return s;
  };
  CobylaOptions copts;
  copts.rhobeg = std::max(0.1, scale);
  copts.rhoend = 1e-7;
  copts.maxfun = 1500;
  const Result rc = cobyla_minimize(f, {0.0, 0.0, 0.0}, copts);
  EXPECT_LT(rc.fx, 1e-3) << "scale " << scale;
}

INSTANTIATE_TEST_SUITE_P(Scales, OptimizerFamily,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0));

// ------------------------------------------------------------- ask/tell ----

TEST(AskTell, StartPointIsFirstAskAndResultBeforeAnyTell) {
  // A caller that stops before the first tell (a cancelled request) still
  // gets a usable result: the start point, with no evaluations counted.
  const std::vector<double> x0 = {0.3, -0.2};
  const Cobyla cobyla(x0);
  ASSERT_NE(cobyla.ask(), nullptr);
  EXPECT_EQ(*cobyla.ask(), x0);
  EXPECT_EQ(cobyla.result().x, x0);
  EXPECT_EQ(cobyla.result().evaluations, 0);
}

TEST(AskTell, TellAfterDoneThrows) {
  CobylaOptions opts;
  opts.maxfun = 3;
  Cobyla cobyla({1.0, 1.0}, opts);
  while (const std::vector<double>* x = cobyla.ask()) cobyla.tell(sphere(*x));
  EXPECT_EQ(cobyla.result().evaluations, 3);
  EXPECT_EQ(cobyla.ask(), nullptr);
  EXPECT_THROW(cobyla.tell(0.0), std::logic_error);
}

// --------------------------------------------------------- golden pins ----
// Exact x, fx, evaluation count and convergence flag of fixed runs.
// EXPECT_EQ on doubles is deliberate: any change to the order or arithmetic
// of the optimizer's evaluations moves these values.

struct Golden {
  std::vector<double> x;
  double fx;
  int evaluations;
  bool converged;
};

void expect_golden(const Result& r, const Golden& g) {
  EXPECT_EQ(r.x, g.x);
  EXPECT_EQ(r.fx, g.fx);
  EXPECT_EQ(r.evaluations, g.evaluations);
  EXPECT_EQ(r.converged, g.converged);
}

TEST(CobylaGolden, Sphere) {
  CobylaOptions opts;
  opts.rhobeg = 0.5;
  opts.rhoend = 1e-6;
  opts.maxfun = 400;
  expect_golden(cobyla_minimize(sphere, {2.0, -1.0, 0.5}, opts),
                {{-2.1185709274237925e-07, -6.7344118409411498e-07,
                  8.1295362168361667e-07},
                 1.1593000471878458e-12,
                 71,
                 true});
  // Default options: converges after five simplex rebuilds.
  expect_golden(cobyla_minimize(sphere, {1.0, 1.0, 1.0, 1.0}),
                {{-4.4556226545219763e-05, 0.00011901566500170896,
                  1.7920907508957174e-05, 4.5868911090020704e-05},
                 1.8575101770276779e-08,
                 51,
                 true});
}

TEST(CobylaGolden, Rosenbrock) {
  CobylaOptions opts;
  opts.rhobeg = 0.5;
  opts.rhoend = 1e-8;
  opts.maxfun = 2000;
  expect_golden(cobyla_minimize(rosenbrock2, {-1.2, 1.0}, opts),
                {{0.84749400665820696, 0.71719338915172626},
                 0.023368896191008692,
                 2000,
                 false});
}

TEST(CobylaGolden, BudgetEndsMidRebuild) {
  // On the 4-d sphere a simplex rebuild starts after 21 evaluations and
  // needs four vertices (evaluations 22-25). The third vertex improves the
  // best point.
  CobylaOptions opts;
  opts.maxfun = 24;  // stops after the third vertex
  expect_golden(cobyla_minimize(sphere, {1.0, 1.0, 1.0, 1.0}, opts),
                {{0.008872874031332894, 0.00079739130988362196,
                  -0.023235649180458156, -0.0043536147807700706},
                 0.00063821308097364499,
                 24,
                 false});
  // The fourth vertex is offset from the point the third vertex found, not
  // from the center the rebuild started at.
  opts.maxfun = 25;
  expect_golden(cobyla_minimize(sphere, {1.0, 1.0, 1.0, 1.0}, opts),
                {{0.008872874031332894, 0.00079739130988362196,
                  -0.023235649180458156, 0.0034588852192299294},
                 0.00063122300627411262,
                 25,
                 false});
}

}  // namespace
}  // namespace qq::optim
