#include "hull/gamma.h"

#include <algorithm>

#include "geometry/hull.h"

namespace rbvc {

std::optional<Vec> gamma_point(const std::vector<Vec>& y, std::size_t f,
                               double tol, GeometryWorkspace& ws) {
  return hull_intersection_point(ws.drop_f_views(y, f), tol);
}

GammaDeltaProbe::GammaDeltaProbe(const std::vector<Vec>& y, std::size_t f,
                                 double p, double tol, GeometryWorkspace& ws)
    : solver_(ws.bisect_solver()) {
  RBVC_REQUIRE(p == 1.0 || p >= kInfNorm,
               "gamma_delta_point_linear: p must be 1 or inf");
  d_ = y.front().size();
  const auto views = ws.drop_f_views(y, f);

  const auto u0 = model_.add_vars(d_, 0.0, /*free=*/true);
  for (const PointView& t : views) {
    const auto lambda0 = model_.add_vars(t.size());
    // Residual split: s = s+ - s- with s+, s- >= 0.
    const auto sp0 = model_.add_vars(d_);
    const auto sm0 = model_.add_vars(d_);
    for (std::size_t r = 0; r < d_; ++r) {
      // u[r] - sum_j lambda_j t_j[r] - s+[r] + s-[r] = 0
      std::vector<lp::Model::Term> row;
      row.push_back({u0 + r, 1.0});
      for (std::size_t j = 0; j < t.size(); ++j) {
        row.push_back({lambda0 + j, -t[j][r]});
      }
      row.push_back({sp0 + r, -1.0});
      row.push_back({sm0 + r, 1.0});
      model_.add_constraint(row, lp::Rel::kEq, 0.0);
    }
    std::vector<lp::Model::Term> sum_row;
    for (std::size_t j = 0; j < t.size(); ++j) sum_row.push_back({lambda0 + j, 1.0});
    model_.add_constraint(sum_row, lp::Rel::kEq, 1.0);

    if (p == 1.0) {
      // sum_r (s+[r] + s-[r]) <= delta
      std::vector<lp::Model::Term> norm_row;
      for (std::size_t r = 0; r < d_; ++r) {
        norm_row.push_back({sp0 + r, 1.0});
        norm_row.push_back({sm0 + r, 1.0});
      }
      delta_rows_.push_back(model_.add_constraint(norm_row, lp::Rel::kLe, 0.0));
    } else {
      // s+[r] + s-[r] <= delta per coordinate (with both >= 0, at the
      // optimum at most one side is active, so this bounds |s_r|).
      for (std::size_t r = 0; r < d_; ++r) {
        delta_rows_.push_back(model_.add_constraint(
            {{sp0 + r, 1.0}, {sm0 + r, 1.0}}, lp::Rel::kLe, 0.0));
      }
    }
  }

  lp::SimplexOptions opts;
  opts.tol = std::min(tol, 1e-8);
  solver_.set_options(opts);
  solver_.reset();  // results must not depend on prior workspace history
}

std::optional<Vec> GammaDeltaProbe::probe(double delta) {
  RBVC_REQUIRE(delta >= 0.0, "gamma_delta_point_linear: delta must be >= 0");
  for (lp::Model::RowId row : delta_rows_) model_.set_rhs(row, delta);
  lp::Solution sol;
  if (!primed_) {
    sol = model_.solve_with(solver_);
    primed_ = true;
  } else {
    sol = model_.resolve_rhs_with(solver_);
  }
  if (sol.status != lp::Status::kOptimal) return std::nullopt;
  return Vec(sol.x.begin(), sol.x.begin() + static_cast<std::ptrdiff_t>(d_));
}

std::optional<Vec> gamma_delta_point_linear(const std::vector<Vec>& y,
                                            std::size_t f, double delta,
                                            double p, double tol,
                                            GeometryWorkspace& ws) {
  RBVC_REQUIRE(p == 1.0 || p >= kInfNorm,
               "gamma_delta_point_linear: p must be 1 or inf");
  RBVC_REQUIRE(delta >= 0.0, "gamma_delta_point_linear: delta must be >= 0");
  GammaDeltaProbe probe(y, f, p, tol, ws);
  return probe.probe(delta);
}

double gamma_excess(const Vec& u, const std::vector<Vec>& y, std::size_t f,
                    double p, double tol, GeometryWorkspace& ws) {
  const auto views = ws.drop_f_views(y, f);
  double worst = 0.0;
  if (p == 1.0 || p >= kInfNorm) {
    // The per-subset distance LPs all have the same shape (only f of the
    // points differ between consecutive subsets), so one warm solver's
    // retained basis carries across them.
    lp::IncrementalSolver& solver = ws.solver();
    solver.reset();  // results must not depend on prior workspace history
    for (const PointView& t : views) {
      worst = std::max(
          worst, detail::lp_projection_via_lp(u, t, p, tol, &solver).distance);
    }
  } else {
    for (const PointView& t : views) {
      worst = std::max(worst, distance_to_hull(u, t, p, tol));
    }
  }
  return worst;
}

}  // namespace rbvc
