// The Gamma operators (paper Sec. 3 and Sec. 9):
//
//   Gamma(Y)          = intersection over |T| = |Y|-f of H(T)
//   Gamma_(delta,p)(Y) = intersection over |T| = |Y|-f of H_(delta,p)(T)
//
// Gamma(Y) is the classic Byzantine "safe area" (non-empty whenever
// |Y| >= (d+1)f + 1 by Tverberg); the (delta,p) variant is what ALGO
// (Sec. 9) intersects after relaxation.
//
// Each query threads a GeometryWorkspace (defaulting to the thread-local
// one) for subset index views and warm-started LP re-solves; results are
// independent of workspace history (solvers are reset per entry point).
#pragma once

#include <optional>

#include "hull/relaxed_hull.h"
#include "lp/model.h"

namespace rbvc {

/// A point of Gamma(Y) (deterministic for fixed input), or nullopt when the
/// intersection is empty.
std::optional<Vec> gamma_point(const std::vector<Vec>& y, std::size_t f,
                               double tol = kTol,
                               GeometryWorkspace& ws = GeometryWorkspace::local());

/// A point of Gamma_(delta,p)(Y) for p = 1 or p = inf (exact, via LP), or
/// nullopt when empty.
std::optional<Vec> gamma_delta_point_linear(
    const std::vector<Vec>& y, std::size_t f, double delta, double p,
    double tol = kTol, GeometryWorkspace& ws = GeometryWorkspace::local());

/// max_i dist_p(u, H(T_i)) over the size-(|Y|-f) sub-multisets: u lies in
/// Gamma_(delta,p)(Y) iff this is <= delta. For p in {1, inf} the per-subset
/// distance LPs share one warm-started solver (same shape, basis reuse).
double gamma_excess(const Vec& u, const std::vector<Vec>& y, std::size_t f,
                    double p, double tol = kTol,
                    GeometryWorkspace& ws = GeometryWorkspace::local());

/// Reusable feasibility probe for "is Gamma_(delta,p)(Y) non-empty?" across
/// many values of delta (the delta* bisection). The LP is built once; delta
/// only appears on the right-hand side of the norm rows, so after the first
/// (cold) solve every probe is a warm dual-simplex re-solve on the
/// workspace's dedicated bisection solver. Verdicts and witnesses are
/// identical to gamma_delta_point_linear's (the solver falls back to a cold
/// solve of the same LP whenever warm state is unusable, and infeasible
/// verdicts keep the basis warm).
///
/// At most one probe per workspace may be alive at a time (it owns the
/// workspace's bisect_solver slot); the borrowed `y` must outlive it.
class GammaDeltaProbe {
 public:
  GammaDeltaProbe(const std::vector<Vec>& y, std::size_t f, double p,
                  double tol, GeometryWorkspace& ws = GeometryWorkspace::local());

  /// Witness point of Gamma_(delta,p)(Y), or nullopt when empty. The first
  /// call is a cold solve; later calls re-solve warm.
  std::optional<Vec> probe(double delta);

 private:
  lp::Model model_;
  std::vector<lp::Model::RowId> delta_rows_;
  lp::IncrementalSolver& solver_;
  std::size_t d_ = 0;
  bool primed_ = false;
};

}  // namespace rbvc
