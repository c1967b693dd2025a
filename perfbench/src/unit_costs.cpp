// Unit costs of single library calls, measured on a workload's own input
// multisets after its measured window: one Wolfe projection onto a drop-f
// subset, one warm GammaDeltaProbe::probe, one cold gamma_point solve, and
// one wire encode+frame+unframe+decode round trip. The exclusive-time
// report multiplies the Wolfe cost (a mean) by the window's evaluation
// count, since the library counts evaluations but does not time them; the
// probe and solve costs are medians (a typical call, robust to the rare
// multi-second cold-fallback probe).
#include "unit_costs.h"

#include <algorithm>

#include "geometry/distance.h"
#include "geometry/point_view.h"
#include "hull/gamma.h"
#include "hull/relaxed_hull.h"
#include "net/wire.h"

namespace perfbench {

namespace {

rbvc::Vec centroid(const std::vector<rbvc::Vec>& s) {
  rbvc::Vec c(s.front().size(), 0.0);
  for (const rbvc::Vec& v : s) {
    for (std::size_t i = 0; i < c.size(); ++i) c[i] += v[i];
  }
  for (double& x : c) x /= static_cast<double>(s.size());
  return c;
}

}  // namespace

double wolfe_us_per_call(const std::vector<std::vector<rbvc::Vec>>& inputs,
                         const std::vector<rbvc::Vec>& points, std::size_t f,
                         double budget_s) {
  const Clock::time_point t0 = Clock::now();
  std::size_t calls = 0;
  double spent = 0.0;
  double sink = 0.0;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const std::vector<rbvc::Vec>& s = inputs[k];
    if (s.size() <= f) continue;
    const rbvc::Vec u = k < points.size() ? points[k] : centroid(s);
    for (const auto& idx : rbvc::subsets_minus_f(s.size(), f)) {
      const Clock::time_point a = Clock::now();
      sink += rbvc::detail::wolfe_min_norm(u, rbvc::PointView(s, idx),
                                           rbvc::kTol)
                  .distance;
      spent += seconds_since(a);
      ++calls;
    }
    if (seconds_since(t0) > budget_s) break;
  }
  if (sink < 0) return -1.0;  // keeps the projections observable
  return calls ? 1e6 * spent / static_cast<double>(calls) : 0.0;
}

double probe_us_per_call(const std::vector<std::vector<rbvc::Vec>>& inputs,
                         std::size_t f, double budget_s) {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> us;
  for (const auto& s : inputs) {
    if (s.size() <= f || seconds_since(t0) > budget_s) break;
    // delta_star_linear's bisection, probe for probe: prime cold at a
    // feasible delta (not timed), then time the warm re-solves.
    double lo = 0.0;
    double hi = rbvc::gamma_excess(centroid(s), s, f, rbvc::kInfNorm);
    const double scale = std::max(1.0, hi);
    rbvc::GammaDeltaProbe probe(s, f, rbvc::kInfNorm, rbvc::kTol);
    probe.probe(hi + scale);
    while (hi - lo > rbvc::kTol * scale && seconds_since(t0) <= budget_s) {
      const double mid = 0.5 * (lo + hi);
      const Clock::time_point a = Clock::now();
      const bool feasible = probe.probe(mid).has_value();
      us.push_back(1e6 * seconds_since(a));
      (feasible ? hi : lo) = mid;
    }
  }
  return median(us);
}

double gamma_point_us_per_call(const std::vector<std::vector<rbvc::Vec>>& inputs,
                               std::size_t f, double budget_s) {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> us;
  for (const auto& s : inputs) {
    if (s.size() <= f || seconds_since(t0) > budget_s) break;
    const Clock::time_point a = Clock::now();
    (void)rbvc::gamma_point(s, f, rbvc::kTol);
    us.push_back(1e6 * seconds_since(a));
  }
  return median(us);
}

double codec_us_per_frame(const std::vector<rbvc::sim::Message>& msgs,
                          double budget_s) {
  if (msgs.empty()) return 0.0;
  const Clock::time_point t0 = Clock::now();
  std::size_t frames = 0;
  std::size_t sink = 0;
  do {
    for (const rbvc::sim::Message& m : msgs) {
      std::string buf = rbvc::net::wire::frame(
          rbvc::net::wire::FrameType::kMessage,
          rbvc::net::wire::encode_message(m));
      auto fr = rbvc::net::wire::try_unframe(buf);
      sink += rbvc::net::wire::decode_message(fr->body).payload.size();
      ++frames;
    }
  } while (seconds_since(t0) < budget_s);
  const double spent = seconds_since(t0);
  return sink == static_cast<std::size_t>(-1)
             ? -1.0
             : 1e6 * spent / static_cast<double>(frames);
}

double set_unit_costs(LayerMetrics& lm,
                      const std::vector<std::vector<rbvc::Vec>>& inputs,
                      const std::vector<rbvc::Vec>& points, std::size_t f,
                      double budget_s) {
  const double wolfe_us = wolfe_us_per_call(inputs, points, f, budget_s);
  lm.set("opt.wolfe_us_per_eval", wolfe_us);
  lm.set("lp.probe_us", probe_us_per_call(inputs, f, budget_s));
  lm.set("lp.solve_us", gamma_point_us_per_call(inputs, f, budget_s));
  return wolfe_us;
}

}  // namespace perfbench
