// delta*(S): the smallest relaxation for which Gamma_(delta,p)(S) is
// non-empty -- the quantity ALGO (paper Sec. 9) minimizes in its Step 2,
// and the quantity Theorems 8, 9, 12 and Conjectures 1-3 upper-bound.
//
// Computation strategy (all cases first project S isometrically onto the
// affine span of its points, per the paper's Case II arguments):
//   1. Gamma(S) non-empty (LP)            -> delta* = 0, exact.
//   2. f = 1 and S a full simplex in span -> delta* = inradius (Lemma 13),
//      point = incenter, exact.
//   3. otherwise                          -> cutting-plane min-max over the
//      drop-f hulls: a certified bracket [lower, value] closed to a relative
//      gap (min_max_hull_distance below). For p in {1, inf} an exact LP
//      bisection replaces it.
#pragma once

#include <optional>

#include "geometry/simplex_geometry.h"
#include "geometry/workspace.h"
#include "hull/gamma.h"

namespace rbvc {

/// Budget of the cutting-plane engine, which otherwise stops once its
/// bracket closes to a relative gap of 1e-6 (or to tol times the widest
/// side of the box, below which distances count as zero).
struct DeltaStarOptions {
  std::size_t max_iters = 200;  // master LPs before stopping uncertified
};

struct MinMaxResult {
  double value = 0.0;      // max_i dist_p(point, H_i): an upper bound
  double lower = 0.0;      // lower bound on the minimum (weak duality)
  Vec point;               // the best point evaluated
  bool certified = false;  // value - lower closed to a relative gap of 1e-6
  std::size_t iters = 0;   // master LPs solved
  std::size_t evals = 0;   // hull projections performed
};

/// min_x max_i dist_p(x, H(sets[i])) by Kelley's cutting-plane method over
/// the bounding box of the sets' points (some minimizer lies in it:
/// clamping x to the box moves it no further from any point inside).
///
/// Each trial point x is evaluated against every hull; a hull at distance
/// > 0 yields the cut dist_p(y, H_i) >= s.y - max_{v in H_i} s.v with s the
/// unit-dual-norm subgradient at x. The cut holds for any unit s, so an
/// inexact projection weakens it but never invalidates the lower bound. The
/// next point minimizes the max of the cuts over the box (an LP, solved in
/// dual form); the lower bound is the dual value of the cut multipliers,
/// evaluated directly. Cuts inactive for a few iterations are dropped,
/// which bounds the LP. Exact for p = 2 (Wolfe projections); for other finite p > 1 the
/// Frank-Wolfe projections overestimate distances, so `value` carries
/// their error. Deterministic for fixed arguments.
MinMaxResult min_max_hull_distance(const std::vector<PointView>& sets,
                                   Vec init, double p = 2.0,
                                   const DeltaStarOptions& opts = {},
                                   double tol = kTol);
MinMaxResult min_max_hull_distance(const std::vector<std::vector<Vec>>& sets,
                                   Vec init, double p = 2.0,
                                   const DeltaStarOptions& opts = {},
                                   double tol = kTol);

struct DeltaStarResult {
  double value = 0.0;  // delta*(S), or the upper bound `point` achieves
  double lower = 0.0;  // lower bound on delta*(S) (== value when exact)
  Vec point;           // deterministic witness: gamma_(value,p)(S) member
  bool exact = false;  // [lower, value] certified: LP, closed form, or a
                       // cutting-plane bracket closed to 1e-6
  enum class Method {
    kGammaNonempty,    // delta* = 0
    kSimplexInradius,  // Lemma 13 closed form (possibly in a subspace)
    kNumerical,        // cutting planes (p = 2, other p) / LP bisection
  } method = Method::kNumerical;
};

/// delta*_2(S) for f faults. Requires 1 <= f < |S|. All entry points thread
/// a GeometryWorkspace (subset index views, reusable SpanFrame storage,
/// warm-started LP solvers); results do not depend on workspace history.
DeltaStarResult delta_star_2(const std::vector<Vec>& s, std::size_t f,
                             double tol = kTol,
                             const DeltaStarOptions& opts = {},
                             GeometryWorkspace& ws = GeometryWorkspace::local());

/// delta*_p(S) for p = 1 or inf: exact bisection on LP feasibility. The
/// bisection re-solves one LP warm across iterations (only the delta
/// right-hand sides move between probes).
DeltaStarResult delta_star_linear(
    const std::vector<Vec>& s, std::size_t f, double p, double tol = kTol,
    GeometryWorkspace& ws = GeometryWorkspace::local());

/// delta*_p(S) for general finite p > 1: the cutting-plane loop in the
/// ambient space with Frank-Wolfe projections, started from the L2
/// minimizer. [lower, value] stays a valid bracket, but the approximate
/// projections rarely let it close (exact = false then).
DeltaStarResult delta_star_p(const std::vector<Vec>& s, std::size_t f,
                             double p, double tol = kTol,
                             const DeltaStarOptions& opts = {},
                             GeometryWorkspace& ws = GeometryWorkspace::local());

}  // namespace rbvc
