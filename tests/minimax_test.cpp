// The cutting-plane min-max engine behind delta*'s numerical path
// (min_max_hull_distance in hull/delta_star.h).
#include <gtest/gtest.h>

#include "geometry/simplex_geometry.h"
#include "hull/delta_star.h"
#include "hull/relaxed_hull.h"
#include "sim/rng.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

TEST(MinimaxTest, ZeroWhenHullsIntersect) {
  const std::vector<std::vector<Vec>> sets = {
      {{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}},
      {{1.0, 1.0}, {3.0, 1.0}, {1.0, 3.0}},
  };
  const auto r = min_max_hull_distance(sets, {5.0, 5.0});
  EXPECT_LT(r.value, 1e-8);
  EXPECT_TRUE(r.certified);
}

TEST(MinimaxTest, TwoPointsMidpoint) {
  // Two singleton hulls at distance 2: optimum is the midpoint, value 1.
  const std::vector<std::vector<Vec>> sets = {{{-1.0, 0.0}}, {{1.0, 0.0}}};
  const auto r = min_max_hull_distance(sets, {0.3, 0.7});
  EXPECT_TRUE(r.certified);
  EXPECT_NEAR(r.value, 1.0, 1e-6);
  EXPECT_LE(r.lower, r.value);
  EXPECT_GE(r.lower, 1.0 - 1e-6);
  EXPECT_NEAR(r.point[0], 0.0, 1e-6);
}

TEST(MinimaxTest, MatchesSimplexInradius) {
  // For a simplex's facets, min-max distance = inradius (Lemma 13).
  Rng rng(111);
  for (int rep = 0; rep < 6; ++rep) {
    const std::size_t d = 2 + rep % 3;
    const auto verts = workload::random_simplex(rng, d);
    const auto g = SimplexGeometry::build(verts);
    ASSERT_TRUE(g.has_value());
    const auto r = min_max_hull_distance(drop_f_subsets(verts, 1), mean(verts));
    ASSERT_TRUE(r.certified) << "d=" << d << " rep=" << rep;
    EXPECT_NEAR(r.value, g->inradius(), 1e-6 * g->inradius() + 1e-12)
        << "d=" << d << " rep=" << rep;
    // The certified lower bound never exceeds the true optimum.
    EXPECT_LE(r.lower, g->inradius() * (1.0 + 1e-9));
  }
}

TEST(MinimaxTest, ValueIsUpperBoundAndAchievable) {
  // The reported value must equal the actual max distance at the point.
  Rng rng(113);
  const auto pts = workload::gaussian_cloud(rng, 7, 3);
  const auto sets = drop_f_subsets(pts, 2);
  const auto r = min_max_hull_distance(sets, mean(pts));
  double actual = 0.0;
  for (const auto& s : sets) {
    actual = std::max(actual, project_to_hull(r.point, s).distance);
  }
  EXPECT_NEAR(r.value, actual, 1e-9);
  EXPECT_LE(r.lower, r.value);
}

TEST(MinimaxTest, DeterministicForFixedInput) {
  const std::vector<std::vector<Vec>> sets = {{{-1.0, 0.0}}, {{1.0, 1.0}}};
  const auto a = min_max_hull_distance(sets, {0.0, 0.0});
  const auto b = min_max_hull_distance(sets, {0.0, 0.0});
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(a.point, b.point);
}

TEST(MinimaxTest, RespectsIterationBudget) {
  // One master LP at most: each trial point costs one projection per set.
  DeltaStarOptions opts;
  opts.max_iters = 1;
  Rng rng(117);
  const auto pts = workload::gaussian_cloud(rng, 7, 5);
  const auto sets = drop_f_subsets(pts, 2);
  const auto r = min_max_hull_distance(sets, mean(pts), 2.0, opts);
  EXPECT_LE(r.iters, 1u);
  EXPECT_LE(r.evals, 2u * sets.size());
  EXPECT_LE(r.lower, r.value);
}

TEST(MinimaxTest, EmptySetListThrows) {
  EXPECT_THROW(min_max_hull_distance(std::vector<PointView>{}, {0.0}),
               invalid_argument);
}

}  // namespace
}  // namespace rbvc
