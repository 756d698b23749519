// Tests for the ML layer: graph features, the logistic-regression method
// selector, and the kNN parameter warm start.

#include <gtest/gtest.h>

#include <cmath>

#include "ml/features.hpp"
#include "ml/knn.hpp"
#include "ml/logreg.hpp"
#include "qgraph/generators.hpp"
#include "util/rng.hpp"

namespace qq::ml {
namespace {

// --------------------------------------------------------------- features ----

TEST(Features, CompleteGraphValues) {
  const auto f = graph_features(graph::complete_graph(5));
  EXPECT_DOUBLE_EQ(f[0], 5.0);   // nodes
  EXPECT_DOUBLE_EQ(f[1], 10.0);  // edges
  EXPECT_DOUBLE_EQ(f[2], 1.0);   // density
  EXPECT_DOUBLE_EQ(f[3], 4.0);   // mean degree
  EXPECT_DOUBLE_EQ(f[4], 0.0);   // degree std
  EXPECT_DOUBLE_EQ(f[5], 4.0);   // max degree
  EXPECT_DOUBLE_EQ(f[8], 1.0);   // clustering of a clique
  EXPECT_DOUBLE_EQ(f[9], 0.0);   // unweighted
}

TEST(Features, StarGraphHasZeroClustering) {
  const auto f = graph_features(graph::star_graph(8));
  EXPECT_DOUBLE_EQ(f[8], 0.0);
  EXPECT_DOUBLE_EQ(f[5], 7.0);  // hub degree
}

TEST(Features, TriangleClusteringIsOne) {
  const auto f = graph_features(graph::cycle_graph(3));
  EXPECT_DOUBLE_EQ(f[8], 1.0);
}

TEST(Features, WeightStatistics) {
  graph::Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 4.0);
  const auto f = graph_features(g);
  EXPECT_DOUBLE_EQ(f[6], 3.0);              // mean weight
  EXPECT_NEAR(f[7], std::sqrt(2.0), 1e-12); // sample std
  EXPECT_DOUBLE_EQ(f[9], 1.0);              // weighted
}

TEST(Features, DensityTracksEdgeProbability) {
  util::Rng rng(3);
  const auto g = graph::erdos_renyi(100, 0.25, rng);
  const auto f = graph_features(g);
  EXPECT_NEAR(f[2], 0.25, 0.05);
}

// ----------------------------------------------------------------- logreg ----

TEST(LogReg, LearnsLinearlySeparableData) {
  util::Rng rng(5);
  std::vector<std::vector<double>> X;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    const double a = util::normal(rng);
    const double b = util::normal(rng);
    X.push_back({a, b});
    y.push_back(a + b > 0.0 ? 1 : 0);
  }
  LogisticRegression model;
  model.fit(X, y);
  EXPECT_GE(model.accuracy(X, y), 0.97);
}

TEST(LogReg, RobustToNoisyLabels) {
  util::Rng rng(7);
  std::vector<std::vector<double>> X;
  std::vector<int> y;
  for (int i = 0; i < 600; ++i) {
    const double a = util::normal(rng);
    X.push_back({a, util::normal(rng)});
    const int label = a > 0.0 ? 1 : 0;
    y.push_back(util::bernoulli(rng, 0.1) ? 1 - label : label);
  }
  LogisticRegression model;
  model.fit(X, y);
  EXPECT_GE(model.accuracy(X, y), 0.80);
}

TEST(LogReg, ProbabilitiesAreCalibratedAtExtremes) {
  std::vector<std::vector<double>> X;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    const double v = (i < 50) ? -1.0 - 0.01 * i : 1.0 + 0.01 * i;
    X.push_back({v});
    y.push_back(v > 0 ? 1 : 0);
  }
  LogisticRegression model;
  model.fit(X, y);
  EXPECT_GT(model.predict_proba({5.0}), 0.9);
  EXPECT_LT(model.predict_proba({-5.0}), 0.1);
}

TEST(LogReg, HandlesConstantFeatureWithoutNan) {
  std::vector<std::vector<double>> X;
  std::vector<int> y;
  for (int i = 0; i < 50; ++i) {
    X.push_back({1.0, static_cast<double>(i % 2)});
    y.push_back(i % 2);
  }
  LogisticRegression model;
  model.fit(X, y);
  const double p = model.predict_proba({1.0, 1.0});
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GE(model.accuracy(X, y), 0.95);
}

TEST(LogReg, Validation) {
  LogisticRegression model;
  EXPECT_THROW(model.predict_proba({1.0}), std::logic_error);
  EXPECT_THROW(model.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(model.fit({{1.0}}, {1, 0}), std::invalid_argument);
  EXPECT_THROW(model.fit({{1.0}, {1.0, 2.0}}, {0, 1}), std::invalid_argument);
  model.fit({{0.0}, {1.0}}, {0, 1});
  EXPECT_THROW(model.predict_proba({1.0, 2.0}), std::invalid_argument);
}

// -------------------------------------------------------------------- kNN ----

TEST(Knn, RecallsStoredPointExactly) {
  ParameterKnn store;
  store.add({0.0, 0.0}, {1.0, 2.0});
  store.add({10.0, 10.0}, {3.0, 4.0});
  const auto p = store.predict({0.0, 0.0}, 1);
  EXPECT_NEAR(p[0], 1.0, 1e-6);
  EXPECT_NEAR(p[1], 2.0, 1e-6);
}

TEST(Knn, InterpolatesBetweenNeighbours) {
  ParameterKnn store;
  store.add({0.0}, {0.0});
  store.add({1.0}, {10.0});
  const auto p = store.predict({0.5}, 2);
  EXPECT_NEAR(p[0], 5.0, 0.5);
}

TEST(Knn, KLargerThanStoreIsClamped) {
  ParameterKnn store;
  store.add({0.0}, {1.0});
  store.add({1.0}, {2.0});
  EXPECT_NO_THROW(store.predict({0.5}, 50));
}

TEST(Knn, Validation) {
  ParameterKnn store;
  EXPECT_THROW(store.predict({1.0}, 1), std::logic_error);
  store.add({1.0, 2.0}, {0.5});
  EXPECT_THROW(store.add({1.0}, {0.5}), std::invalid_argument);
  EXPECT_THROW(store.add({1.0, 2.0}, {0.5, 0.6}), std::invalid_argument);
  EXPECT_THROW(store.predict({1.0}, 1), std::invalid_argument);
  EXPECT_THROW(store.predict({1.0, 2.0}, 0), std::invalid_argument);
}

TEST(Knn, NearestDominatesWeighting) {
  ParameterKnn store;
  store.add({0.0}, {100.0});
  store.add({5.0}, {0.0});
  const auto p = store.predict({0.1}, 2);
  EXPECT_GT(p[0], 90.0);
}

}  // namespace
}  // namespace qq::ml
