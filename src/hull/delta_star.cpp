#include "hull/delta_star.h"

#include <algorithm>
#include <cmath>

#include "geometry/hull.h"
#include "linalg/qr.h"
#include "lp/model.h"
#include "obs/metrics.h"

namespace rbvc {

namespace {

const char* method_label(DeltaStarResult::Method m) {
  switch (m) {
    case DeltaStarResult::Method::kGammaNonempty:
      return "gamma_nonempty";
    case DeltaStarResult::Method::kSimplexInradius:
      return "simplex_inradius";
    case DeltaStarResult::Method::kNumerical:
      return "numerical";
  }
  return "unknown";
}

void record_call(const DeltaStarResult& out) {
  obs::Registry& reg = obs::global();
  if (out.method == DeltaStarResult::Method::kNumerical && out.value > 0.0) {
    static const std::vector<double> kGapBuckets = {1e-12, 1e-10, 1e-8, 1e-6,
                                                    1e-4,  1e-2,  1.0};
    reg.histogram("geom.delta_star.gap", kGapBuckets)
        .observe((out.value - out.lower) / out.value);
  }
  reg.counter("geom.delta_star.calls").inc();
  reg.counter(std::string("geom.delta_star.method.") +
              method_label(out.method))
      .inc();
}

// Builds the span projection into the workspace's reusable SpanFrame slot
// (see workspace.h for the frame's semantics).
SpanFrame& make_frame(const std::vector<Vec>& s, double tol,
                      GeometryWorkspace& ws) {
  SpanFrame& fr = ws.span_frame();
  fr.origin = s.back();
  Vec& tmp = ws.scratch_vec();
  std::vector<Vec> diffs;
  diffs.reserve(s.size() - 1);
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    sub_into(s[i], s.back(), tmp);
    diffs.push_back(tmp);
  }
  fr.basis = orthonormal_basis(diffs, tol);
  fr.coords.clear();
  fr.coords.reserve(s.size());
  for (const Vec& v : s) {
    sub_into(v, fr.origin, tmp);
    fr.coords.push_back(coords_in_basis(fr.basis, tmp));
  }
  return fr;
}

// The drop-f views of `coords`, each listing its distinct points once: a
// hull does not change when a repeated point is dropped, and the Gamma(S)
// LP's columns and the tableau shrink with the point lists (Theorem 12's
// duplicated simplex at d = 5, f = 2: 10 points per view become 5 or 6).
// Without repeated points this is drop_f_views. The views index `storage`,
// which must outlive them.
std::vector<PointView> distinct_point_views(
    const std::vector<Vec>& coords, std::size_t f, GeometryWorkspace& ws,
    std::vector<std::vector<std::size_t>>& storage) {
  const std::size_t n = coords.size();
  std::vector<std::size_t> first(n);
  bool repeats = false;
  for (std::size_t i = 0; i < n; ++i) {
    first[i] = i;
    for (std::size_t j = 0; j < i && first[i] == i; ++j) {
      if (coords[j] == coords[i]) first[i] = j;
    }
    repeats |= first[i] != i;
  }
  if (!repeats) return ws.drop_f_views(coords, f);
  for (const auto& combo : ws.drop_f_indices(n, f)) {
    std::vector<std::size_t> set;
    for (std::size_t i : combo) set.push_back(first[i]);
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    storage.push_back(std::move(set));
  }
  std::vector<PointView> views;
  for (const auto& idx : storage) views.emplace_back(coords, idx);
  return views;
}

// The engine stops once value - lower <= kRelGap * value.
constexpr double kRelGap = 1e-6;

// Cuts kept after their last positive multiplier; older ones leave the
// master LP, which bounds its size.
constexpr std::size_t kKeepInactive = 3;

// Master LPs for finite p != 2. With Frank-Wolfe cuts neither bound moves
// after this many (unchanged to 5 digits from 20 to 200 on d = 5 clouds).
constexpr std::size_t kLpMaxIters = 20;

// One cut  dist_p(y, H) >= s.y + c  with |s|_q = 1 and c = -max_{v in H} s.v
// (valid for every y: s.y + c <= s.(y - v) <= |y - v|_p for all v in H).
struct Cut {
  Vec s;
  double c = 0.0;
  std::size_t last_active = 0;  // last iteration it was new or active
};

// Unit-dual-norm subgradient of |.|_p at z != 0: the gradient
// sign(z_j) |z_j|^(p-1), scaled to unit q-norm (1/p + 1/q = 1).
Vec dual_unit(const Vec& z, double p) {
  if (p == 2.0) return scale(1.0 / norm2(z), z);
  const double q = p / (p - 1.0);
  Vec g(z.size());
  double qsum = 0.0;
  for (std::size_t j = 0; j < z.size(); ++j) {
    g[j] = std::copysign(std::pow(std::abs(z[j]), p - 1.0), z[j]);
    qsum += std::pow(std::abs(g[j]), q);
  }
  return scale(1.0 / std::pow(qsum, 1.0 / q), g);
}

// Adds the cut with subgradient s at hull h, or refreshes an identical one
// already kept (the same facet of the same hull reappears often). Returns
// whether the cut is new.
bool add_cut(std::vector<Cut>& cuts, Vec s, PointView h, std::size_t iter) {
  double support = dot(s, h[0]);
  for (const Vec& v : h) support = std::max(support, dot(s, v));
  const double c = -support;
  for (Cut& k : cuts) {
    if (std::abs(k.c - c) > 1e-12 * (1.0 + std::abs(c))) continue;
    bool same = true;
    for (std::size_t j = 0; j < s.size() && same; ++j) {
      same = std::abs(k.s[j] - s[j]) <= 1e-12;
    }
    if (same) {
      k.last_active = iter;
      return false;
    }
  }
  cuts.push_back(Cut{std::move(s), c, iter});
  return true;
}

// The master LP min_{x in box} max(0, max_k s_k.x + c_k), solved in its
// dual form, which has dim + 1 rows however many cuts are kept:
//   max  sum_k lam_k (c_k + s_k.lo) - sum_j mu_j (hi_j - lo_j)
//   s.t. -sum_k lam_k s_kj - mu_j <= 0   for each j  (multiplier x_j - lo_j)
//         sum_k lam_k               <= 1              (multiplier t)
//        lam, mu >= 0.
// x[k] = lam_k for k < |cuts|; the row multipliers give the next point.
lp::Solution solve_master(const std::vector<Cut>& cuts, const Vec& lo,
                          const Vec& hi) {
  const std::size_t dim = lo.size();
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  for (const Cut& k : cuts) m.add_var(k.c + dot(k.s, lo));
  const lp::Model::VarId mu0 = cuts.size();
  for (std::size_t j = 0; j < dim; ++j) m.add_var(lo[j] - hi[j]);
  std::vector<lp::Model::Term> terms(cuts.size() + 1);
  for (std::size_t j = 0; j < dim; ++j) {
    for (std::size_t k = 0; k < cuts.size(); ++k) terms[k] = {k, -cuts[k].s[j]};
    terms[cuts.size()] = {mu0 + j, -1.0};
    m.add_constraint(terms, lp::Rel::kLe, 0.0);
  }
  terms.resize(cuts.size());
  for (std::size_t k = 0; k < cuts.size(); ++k) terms[k] = {k, 1.0};
  m.add_constraint(terms, lp::Rel::kLe, 1.0);
  return m.solve();
}

// Weak duality: for lam >= 0 with sum(lam) <= 1, every x in the box has
//   max(0, max_k s_k.x + c_k) >= sum_k lam_k c_k + (sum_k lam_k s_k).x,
// so the box minimum of the right side bounds min max_i dist(x, H_i). It
// is evaluated here rather than read off the LP's objective, and lam is
// clamped and renormalized, so a sloppy LP weakens the bound but cannot
// make it wrong.
double dual_bound(const std::vector<Cut>& cuts, const Vec& lam,
                  const Vec& lo, const Vec& hi) {
  double sum = 0.0;
  for (std::size_t k = 0; k < cuts.size(); ++k) sum += std::max(0.0, lam[k]);
  const double norm = std::max(1.0, sum);
  Vec g = zeros(lo.size());
  double bound = 0.0;
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const double l = std::max(0.0, lam[k]) / norm;
    bound += l * cuts[k].c;
    axpy(l, cuts[k].s, g);
  }
  for (std::size_t j = 0; j < g.size(); ++j) {
    bound += std::min(g[j] * lo[j], g[j] * hi[j]);
  }
  return bound;
}

}  // namespace

MinMaxResult min_max_hull_distance(const std::vector<std::vector<Vec>>& sets,
                                   Vec init, double p,
                                   const DeltaStarOptions& opts, double tol) {
  return min_max_hull_distance(std::vector<PointView>(sets.begin(), sets.end()),
                               std::move(init), p, opts, tol);
}

MinMaxResult min_max_hull_distance(const std::vector<PointView>& sets,
                                   Vec init, double p,
                                   const DeltaStarOptions& opts, double tol) {
  RBVC_REQUIRE(!sets.empty(), "min_max_hull_distance: no sets");
  RBVC_REQUIRE(p > 1.0 && p < kInfNorm,
               "min_max_hull_distance: p must be finite and > 1");
  obs::global().counter("opt.minimax.calls").inc();
  obs::ScopedTimer timer(obs::global(), "opt.minimax.seconds");
  const std::size_t dim = init.size();
  Vec lo = init, hi = init;
  for (const PointView& h : sets) {
    for (const Vec& v : h) {
      for (std::size_t j = 0; j < dim; ++j) {
        lo[j] = std::min(lo[j], v[j]);
        hi[j] = std::max(hi[j], v[j]);
      }
    }
  }
  double width = 1.0;
  for (std::size_t j = 0; j < dim; ++j) width = std::max(width, hi[j] - lo[j]);
  // Distances below this floor count as zero: the scale at which the
  // Gamma(S) LP already reports an intersection.
  const double floor = tol * width;

  MinMaxResult out;
  out.value = kInfNorm;
  auto closed = [&] {
    return out.value - out.lower <= std::max(kRelGap * out.value, floor);
  };
  std::vector<Cut> cuts;
  Vec x = std::move(init);
  for (std::size_t iter = 0;; ++iter) {
    double fx = 0.0;
    bool fresh = false;
    for (const PointView& h : sets) {
      const HullProjection pr = project_to_hull_p(x, h, p, tol);
      ++out.evals;
      fx = std::max(fx, pr.distance);
      if (pr.distance > floor) {
        fresh |= add_cut(cuts, dual_unit(sub(x, pr.point), p), h, iter);
      }
    }
    if (fx < out.value) {
      out.value = fx;
      out.point = x;
    }
    if (closed()) break;
    // No new cut means the master would return this point again.
    if (!fresh || iter == opts.max_iters) break;

    std::erase_if(cuts, [&](const Cut& k) {
      return k.last_active + kKeepInactive < iter;
    });
    const lp::Solution sol = solve_master(cuts, lo, hi);
    ++out.iters;
    if (sol.status != lp::Status::kOptimal || sol.duals.empty()) break;
    out.lower = std::max(out.lower, dual_bound(cuts, sol.x, lo, hi));
    if (closed()) break;
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      if (sol.x[k] > 0.0) cuts[k].last_active = iter;
    }
    for (std::size_t j = 0; j < dim; ++j) {
      x[j] = std::clamp(lo[j] + sol.duals[j], lo[j], hi[j]);
    }
  }
  out.lower = std::min(out.lower, out.value);
  out.certified = closed();
  obs::global().counter("opt.minimax.evals").inc(out.evals);
  return out;
}

DeltaStarResult delta_star_2(const std::vector<Vec>& s, std::size_t f,
                             double tol, const DeltaStarOptions& opts,
                             GeometryWorkspace& ws) {
  RBVC_REQUIRE(f >= 1 && f < s.size(), "delta_star_2: need 1 <= f < |S|");
  obs::ScopedTimer timer(obs::global(), "geom.delta_star.seconds");
  DeltaStarResult out;

  const SpanFrame& fr = make_frame(s, tol, ws);
  const std::size_t dprime = fr.basis.size();
  if (dprime == 0) {  // all inputs identical
    out.value = 0.0;
    out.point = s.front();
    out.exact = true;
    out.method = DeltaStarResult::Method::kGammaNonempty;
    record_call(out);
    return out;
  }

  std::vector<std::vector<std::size_t>> storage;
  const std::vector<PointView> hulls =
      distinct_point_views(fr.coords, f, ws, storage);

  // Case 1: the classic safe area Gamma(S) is already non-empty.
  if (auto g = hull_intersection_point(hulls, tol)) {
    out.value = 0.0;
    out.point = fr.lift(*g);
    out.exact = true;
    out.method = DeltaStarResult::Method::kGammaNonempty;
    record_call(out);
    return out;
  }

  // Case 2: Lemma 13 -- for f = 1 and a full simplex in the span, delta* is
  // exactly the inradius and the incenter is the canonical witness.
  if (f == 1 && s.size() == dprime + 1) {
    if (auto geom = SimplexGeometry::build(fr.coords, tol)) {
      out.value = geom->inradius();
      out.lower = out.value;
      out.point = fr.lift(geom->incenter());
      out.exact = true;
      out.method = DeltaStarResult::Method::kSimplexInradius;
      record_call(out);
      return out;
    }
  }

  // Case 3: cutting planes over the drop-f hulls, inside the span.
  const MinMaxResult mm =
      min_max_hull_distance(hulls, mean(fr.coords), 2.0, opts, tol);
  if (!mm.certified) obs::global().counter("geom.delta_star.uncertified").inc();
  out.value = mm.value;
  out.lower = mm.lower;
  out.point = fr.lift(mm.point);
  out.exact = mm.certified;
  out.method = DeltaStarResult::Method::kNumerical;
  record_call(out);
  return out;
}

DeltaStarResult delta_star_linear(const std::vector<Vec>& s, std::size_t f,
                                  double p, double tol, GeometryWorkspace& ws) {
  RBVC_REQUIRE(f >= 1 && f < s.size(), "delta_star_linear: need 1 <= f < |S|");
  RBVC_REQUIRE(p == 1.0 || p >= kInfNorm,
               "delta_star_linear: p must be 1 or inf");
  obs::ScopedTimer timer(obs::global(), "geom.delta_star.seconds");
  DeltaStarResult out;
  if (auto g = gamma_point(s, f, tol, ws)) {
    out.value = 0.0;
    out.point = *g;
    out.exact = true;
    out.method = DeltaStarResult::Method::kGammaNonempty;
    record_call(out);
    return out;
  }
  double lo = 0.0;
  double hi = gamma_excess(mean(s), s, f, p, tol, ws);
  Vec witness = mean(s);
  const double scale = std::max(1.0, hi);

  // One feasibility LP, many right-hand sides: build the probe once, prime
  // its basis at a comfortably feasible delta (the mean witnesses
  // delta = hi), then every bisection iteration re-solves warm -- dual
  // simplex from the retained basis instead of Phase-1-from-scratch.
  GammaDeltaProbe probe(s, f, p, tol, ws);
  probe.probe(hi + scale);
  while (hi - lo > tol * scale) {
    obs::global().counter("geom.delta_star.bisect_iters").inc();
    const double mid = 0.5 * (lo + hi);
    if (auto w = probe.probe(mid)) {
      hi = mid;
      witness = *w;
    } else {
      lo = mid;
    }
  }
  out.value = hi;
  out.lower = lo;
  out.point = witness;
  out.exact = true;  // LP bisection: certified to within tol*scale
  out.method = DeltaStarResult::Method::kNumerical;
  record_call(out);
  return out;
}

DeltaStarResult delta_star_p(const std::vector<Vec>& s, std::size_t f,
                             double p, double tol,
                             const DeltaStarOptions& opts,
                             GeometryWorkspace& ws) {
  RBVC_REQUIRE(f >= 1 && f < s.size(), "delta_star_p: need 1 <= f < |S|");
  if (p == 2.0) return delta_star_2(s, f, tol, opts, ws);
  if (p == 1.0 || p >= kInfNorm) return delta_star_linear(s, f, p, tol, ws);
  obs::ScopedTimer timer(obs::global(), "geom.delta_star.seconds");
  DeltaStarResult out;
  if (auto g = gamma_point(s, f, tol, ws)) {
    out.value = 0.0;
    out.point = *g;
    out.exact = true;
    out.method = DeltaStarResult::Method::kGammaNonempty;
    record_call(out);
    return out;
  }
  // Lp norms are not preserved by orthogonal projection, so both loops run
  // in the ambient space. The Lp loop starts from the L2 minimizer: its
  // Frank-Wolfe directions are too coarse to find good points from far
  // away, and for p > 2 that start alone gives delta*_p <= delta*_2.
  const std::vector<PointView> views = ws.drop_f_views(s, f);
  const MinMaxResult l2 = min_max_hull_distance(views, mean(s), 2.0, opts, tol);
  DeltaStarOptions lp_opts = opts;
  lp_opts.max_iters = std::min(opts.max_iters, kLpMaxIters);
  const MinMaxResult mm =
      min_max_hull_distance(views, l2.point, p, lp_opts, tol);
  out.value = mm.value;
  out.lower = mm.lower;
  out.point = mm.point;
  out.exact = mm.certified;
  out.method = DeltaStarResult::Method::kNumerical;
  record_call(out);
  return out;
}

}  // namespace rbvc
