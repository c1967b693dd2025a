#include "checks.h"

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "consensus/verifier.h"
#include "geometry/projection.h"
#include "geometry/simplex_geometry.h"
#include "hull/gamma.h"
#include "hull/relaxed_hull.h"

namespace perfbench {

void Tally::fail(std::string why) {
  ++failed;
  if (failures.size() < 5) failures.push_back(std::move(why));
}

double table1_budget(const std::vector<rbvc::Vec>& s, std::size_t f,
                     double p) {
  const std::size_t n = s.size();
  const std::size_t d = s.front().size();
  // Worst honest max-edge over every size-f faulty index set.
  double worst = rbvc::kInfNorm;
  for (const auto& faulty : rbvc::k_subsets(n, f)) {
    std::vector<rbvc::Vec> honest;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::find(faulty.begin(), faulty.end(), i) == faulty.end()) {
        honest.push_back(s[i]);
      }
    }
    worst = std::min(worst, rbvc::edge_extremes(honest, p).max_edge);
  }
  const double factor =
      p >= rbvc::kInfNorm ? std::sqrt(static_cast<double>(d))
                          : std::pow(static_cast<double>(d), 0.5 - 1.0 / p);
  const double denom = static_cast<double>(n / f) - 2.0;
  return factor * worst / denom;
}

void check_delta(const DeltaRecord& r, Tally& t) {
  ++t.attempted;
  if (!std::isfinite(r.value) || r.value < 0.0) {
    t.fail(r.label + ": delta* is not a finite non-negative number");
    return;
  }
  if (r.point.size() != r.input.front().size()) {
    t.fail(r.label + ": delta* witness has the wrong dimension");
    return;
  }
  const double excess = rbvc::gamma_excess(r.point, r.input, r.f, r.p);
  const double slack = 1e-6 * std::max(1.0, r.value);
  if (!(excess <= r.value + slack)) {
    t.fail(r.label + ": delta* witness is " + std::to_string(excess) +
           " from a drop-f hull, above delta* = " + std::to_string(r.value));
    return;
  }
  t.ratio_sum += r.value / table1_budget(r.input, r.f, r.p);
  ++t.ratio_n;
}

double instance_delta_ratio(const std::vector<rbvc::Vec>& decisions,
                            const std::vector<rbvc::Vec>& honest_inputs,
                            double kappa) {
  const double budget =
      std::max(1e-9, rbvc::input_dependent_delta(honest_inputs, kappa, 2.0));
  double worst = 0.0;
  for (const rbvc::Vec& v : decisions) {
    worst = std::max(worst, rbvc::hull_distance(v, honest_inputs, 2.0));
  }
  return worst / budget;
}

void check_instance(const InstanceRecord& r, std::size_t nodes, double eps,
                    double kappa, Tally& t) {
  ++t.attempted;
  if (r.stalled) {
    t.fail("instance stalled: no quorum of decisions before the deadline");
    return;
  }
  if (r.reports > r.decisions.size()) {
    t.fail("instance failed at " +
           std::to_string(r.reports - r.decisions.size()) + " of " +
           std::to_string(nodes) + " correct nodes");
    return;
  }
  if (r.decisions.size() < nodes) {
    t.fail("instance decided at only " + std::to_string(r.decisions.size()) +
           " of " + std::to_string(nodes) + " correct nodes");
    return;
  }
  if (!rbvc::check_epsilon_agreement(r.decisions, eps)) {
    t.fail("instance decisions disagree by more than eps");
    return;
  }
  const double ratio = instance_delta_ratio(r.decisions, r.honest_inputs, kappa);
  if (ratio > 1.0 + 1e-6) {
    t.fail("instance decision leaves the delta-relaxed honest hull (ratio " +
           std::to_string(ratio) + ")");
    return;
  }
  t.ratio_sum += ratio;
  ++t.ratio_n;
}

}  // namespace perfbench
