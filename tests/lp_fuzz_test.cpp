// Randomized cross-checks for the LP core: the dense simplex is the
// foundation of every hull oracle, so it gets an independent referee --
// brute-force vertex enumeration on tiny instances, plus invariance checks
// (scaling, row permutation) on larger ones.
#include <gtest/gtest.h>

#include <cmath>

#include "geometry/distance.h"
#include "hull/relaxed_hull.h"
#include "linalg/qr.h"
#include "lp/model.h"
#include "sim/rng.h"
#include "workload/generators.h"

namespace rbvc::lp {
namespace {

// Brute-force optimum of min c.x over {x >= 0 : A x <= b} in 2 variables:
// enumerate all candidate vertices (intersections of constraint/axis pairs)
// and take the best feasible one. Returns nullopt when the feasible region
// is empty or unbounded improvement is detected (by probing rays).
std::optional<double> brute_force_2d(const std::vector<Vec>& rows,
                                     const Vec& b, const Vec& c) {
  std::vector<Vec> lines = rows;  // a.x <= b
  std::vector<double> rhs(b.begin(), b.end());
  // Axes x >= 0 as -x <= 0.
  lines.push_back({-1.0, 0.0});
  rhs.push_back(0.0);
  lines.push_back({0.0, -1.0});
  rhs.push_back(0.0);

  auto feasible = [&](const Vec& x) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (dot(lines[i], x) > rhs[i] + 1e-7) return false;
    }
    return true;
  };

  std::optional<double> best;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double det =
          lines[i][0] * lines[j][1] - lines[i][1] * lines[j][0];
      if (std::abs(det) < 1e-10) continue;
      const Vec x = {(rhs[i] * lines[j][1] - lines[i][1] * rhs[j]) / det,
                     (lines[i][0] * rhs[j] - rhs[i] * lines[j][0]) / det};
      if (!feasible(x)) continue;
      const double v = dot(c, x);
      if (!best || v < *best) best = v;
    }
  }
  return best;
}

TEST(LpFuzzTest, MatchesBruteForceOn2DPolytopes) {
  Rng rng(1409);
  int compared = 0;
  for (int rep = 0; rep < 60; ++rep) {
    // Random bounded-ish polytope: a few random halfplanes plus a box cap
    // so brute force's vertex set is the whole story.
    std::vector<Vec> rows;
    Vec b;
    for (int i = 0; i < 4; ++i) {
      rows.push_back(rng.normal_vec(2));
      b.push_back(rng.uniform(0.5, 3.0));
    }
    rows.push_back({1.0, 0.0});
    b.push_back(5.0);
    rows.push_back({0.0, 1.0});
    b.push_back(5.0);
    Vec c = rng.normal_vec(2);

    Model m;
    const auto x0 = m.add_vars(2);
    m.set_objective_coeff(x0, c[0]);
    m.set_objective_coeff(x0 + 1, c[1]);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      m.add_constraint({{x0, rows[i][0]}, {x0 + 1, rows[i][1]}}, Rel::kLe,
                       b[i]);
    }
    const auto sol = m.solve();
    const auto ref = brute_force_2d(rows, b, c);
    // x = 0 is always feasible here (all rhs >= 0), so both must succeed.
    ASSERT_EQ(sol.status, Status::kOptimal) << "rep " << rep;
    ASSERT_TRUE(ref.has_value()) << "rep " << rep;
    EXPECT_NEAR(sol.objective, *ref, 1e-6) << "rep " << rep;
    ++compared;
  }
  EXPECT_EQ(compared, 60);
}

TEST(LpFuzzTest, ScalingInvariance) {
  // Scaling A, b by a positive constant must not change the argmin; scaling
  // c scales the objective linearly.
  Rng rng(1423);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t nv = 3, mc = 3;
    std::vector<std::vector<Model::Term>> rows(mc);
    Vec rhs(mc);
    Vec obj(nv);
    for (auto& v : obj) v = rng.normal();
    std::vector<std::vector<double>> coef(mc, std::vector<double>(nv));
    for (std::size_t i = 0; i < mc; ++i) {
      rhs[i] = rng.uniform(1.0, 4.0);
      for (std::size_t j = 0; j < nv; ++j) coef[i][j] = rng.normal();
    }
    auto build = [&](double s) {
      Model m;
      const auto x0 = m.add_vars(nv);
      for (std::size_t j = 0; j < nv; ++j) {
        m.set_objective_coeff(x0 + j, obj[j]);
      }
      for (std::size_t i = 0; i < mc; ++i) {
        std::vector<Model::Term> terms;
        for (std::size_t j = 0; j < nv; ++j) {
          terms.push_back({x0 + j, s * coef[i][j]});
        }
        m.add_constraint(terms, Rel::kLe, s * rhs[i]);
      }
      return m.solve();
    };
    const auto a = build(1.0);
    const auto b = build(37.5);
    ASSERT_EQ(a.status, b.status) << "rep " << rep;
    if (a.status == Status::kOptimal) {
      EXPECT_NEAR(a.objective, b.objective, 1e-6) << "rep " << rep;
    }
  }
}

TEST(LpFuzzTest, RowPermutationInvariance) {
  Rng rng(1427);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t nv = 3, mc = 4;
    std::vector<Vec> coef;
    Vec rhs, obj = rng.normal_vec(nv);
    for (std::size_t i = 0; i < mc; ++i) {
      coef.push_back(rng.normal_vec(nv));
      rhs.push_back(rng.uniform(0.5, 3.0));
    }
    std::vector<std::size_t> order(mc);
    for (std::size_t i = 0; i < mc; ++i) order[i] = i;
    auto build = [&](const std::vector<std::size_t>& ord) {
      Model m;
      const auto x0 = m.add_vars(nv);
      for (std::size_t j = 0; j < nv; ++j) {
        m.set_objective_coeff(x0 + j, obj[j]);
      }
      for (std::size_t i : ord) {
        std::vector<Model::Term> terms;
        for (std::size_t j = 0; j < nv; ++j) {
          terms.push_back({x0 + j, coef[i][j]});
        }
        m.add_constraint(terms, Rel::kLe, rhs[i]);
      }
      return m.solve();
    };
    const auto a = build(order);
    rng.shuffle(order);
    const auto b = build(order);
    ASSERT_EQ(a.status, b.status) << "rep " << rep;
    if (a.status == Status::kOptimal) {
      EXPECT_NEAR(a.objective, b.objective, 1e-7) << "rep " << rep;
    }
  }
}

// A Kelley cutting-plane master: min t over free p in a box, with rows
// s_k.p - t <= r_k. The optimum must satisfy every row and equal the largest
// cut at the returned point.
struct KelleyMaster {
  std::vector<Vec> s;
  Vec r;
  Vec lo, hi;

  // Solves the master and checks its optimum; returns the optimal p (empty
  // when the solve failed).
  Vec solve_checked(const std::string& what) const {
    const std::size_t d = lo.size();
    Model m;
    const Model::VarId p0 = m.add_vars(d, 0.0, /*free=*/true);
    const Model::VarId t = m.add_var(1.0);
    for (std::size_t k = 0; k < s.size(); ++k) {
      std::vector<Model::Term> terms;
      for (std::size_t j = 0; j < d; ++j) terms.push_back({p0 + j, s[k][j]});
      terms.push_back({t, -1.0});
      m.add_constraint(terms, Rel::kLe, r[k]);
    }
    for (std::size_t j = 0; j < d; ++j) {
      m.add_constraint({{p0 + j, 1.0}}, Rel::kLe, hi[j]);
      m.add_constraint({{p0 + j, 1.0}}, Rel::kGe, lo[j]);
    }
    const Solution sol = m.solve();
    EXPECT_EQ(sol.status, Status::kOptimal) << what;
    if (sol.status != Status::kOptimal) return {};
    const Vec p(sol.x.begin(), sol.x.begin() + static_cast<std::ptrdiff_t>(d));
    double top = 0.0;
    for (std::size_t k = 0; k < s.size(); ++k) {
      const double row = dot(s[k], p) - r[k];
      EXPECT_LE(row, sol.x[t] + 1e-7) << what << ": cut row " << k;
      top = std::max(top, row);
    }
    EXPECT_NEAR(sol.objective, top, 1e-7) << what;
    for (std::size_t j = 0; j < d; ++j) {
      EXPECT_GE(p[j], lo[j] - 1e-7) << what;
      EXPECT_LE(p[j], hi[j] + 1e-7) << what;
    }
    return p;
  }
};

// Grows a master the way the delta* engine does: the Wolfe cuts of every
// drop-f hull at the cloud's centroid, then at each master's optimum.
void grow_kelley_masters(const std::vector<Vec>& pts, std::size_t f,
                         int solves) {
  const std::size_t d = pts.front().size();
  const auto sets = drop_f_subsets(pts, f);
  KelleyMaster km;
  km.lo = pts.front();
  km.hi = pts.front();
  for (const Vec& v : pts) {
    for (std::size_t j = 0; j < d; ++j) {
      km.lo[j] = std::min(km.lo[j], v[j]);
      km.hi[j] = std::max(km.hi[j], v[j]);
    }
  }
  Vec p = mean(pts);
  for (int it = 0; it < solves && !p.empty(); ++it) {
    for (const auto& h : sets) {
      const HullProjection pr = project_to_hull(p, h);
      if (pr.distance <= 0.0) continue;
      Vec g = sub(p, pr.point);
      for (double& v : g) v /= pr.distance;
      km.r.push_back(dot(g, p) - pr.distance);
      km.s.push_back(std::move(g));
    }
    p = km.solve_checked("solve " + std::to_string(it + 1) + " (" +
                         std::to_string(km.s.size()) + " cuts)");
  }
}

// Regression: on this Conjecture 1 cloud (n = 7, d = 5, f = 2, in its span
// frame) the dense tableau used to drift through the 4th master's pivots
// and report kOptimal with a cut row violated by 0.038.
TEST(LpFuzzTest, KelleyMasterReproducerSatisfiesRows) {
  Rng rng(852);
  std::vector<Vec> cloud;
  for (int i = 0; i < 28; ++i) cloud = workload::gaussian_cloud(rng, 7, 5);
  std::vector<Vec> diffs;
  for (std::size_t i = 0; i + 1 < cloud.size(); ++i) {
    diffs.push_back(sub(cloud[i], cloud.back()));
  }
  const auto basis = orthonormal_basis(diffs, 1e-9);
  std::vector<Vec> coords;
  for (const Vec& v : cloud) {
    coords.push_back(coords_in_basis(basis, sub(v, cloud.back())));
  }
  grow_kelley_masters(coords, 2, 6);
  grow_kelley_masters(cloud, 2, 6);  // ambient frame: drifted by 4.5e-4
}

TEST(LpFuzzTest, KelleyShapedMastersSatisfyRows) {
  Rng rng(1423);
  for (int rep = 0; rep < 12; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    const std::size_t d = rep % 2 ? 5 : 3;
    grow_kelley_masters(workload::gaussian_cloud(rng, 7, d), 2, 5);
  }
}

}  // namespace
}  // namespace rbvc::lp
