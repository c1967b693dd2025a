// Checker self-test: plants a perturbed delta* witness, a pair of
// disagreeing cluster decisions, a stalled instance, a failed report at a
// correct node and a missing decision among good outputs, and requires the
// checkers to count exactly those as failed ops while still judging every
// other op.
#include <cstdio>

#include "bench.h"
#include "checks.h"
#include "hull/delta_star.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

int expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  return ok ? 0 : 1;
}

}  // namespace

int run_selftest() {
  int bad = 0;

  // delta* witness check.
  {
    rbvc::Rng rng(7);
    Tally t;
    for (const double p : {2.0, rbvc::kInfNorm}) {
      DeltaRecord good;
      good.input = rbvc::workload::gaussian_cloud(rng, 7, 3);
      good.f = 2;
      good.p = p;
      const rbvc::DeltaStarResult r =
          p == 2.0 ? rbvc::delta_star_2(good.input, 2)
                   : rbvc::delta_star_linear(good.input, 2, p);
      good.value = r.value;
      good.point = r.point;
      DeltaRecord perturbed = good;
      perturbed.point[0] += 1.0;
      check_delta(good, t);
      check_delta(perturbed, t);
    }
    bad += expect(t.attempted == 4, "delta*: every decision is judged");
    bad += expect(t.failed == 2, "delta*: both perturbed witnesses fail");
    bad += expect(t.ratio_n == 2 && t.ratio_mean() > 0,
                  "delta*: good decisions feed delta_ratio_mean");
  }

  // Cluster instance check.
  {
    const std::vector<rbvc::Vec> honest = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
    const rbvc::Vec inside = {0.25, 0.25};
    const rbvc::Vec outside = {-0.2, 0.3};  // 0.2 out, budget 1.414
    InstanceRecord ok{honest, {inside, inside, outside, inside}, 4, false};
    InstanceRecord disagree{honest, {inside, inside, {5.0, 5.0}, inside}, 4,
                            false};
    InstanceRecord stalled{honest, {inside}, 1, true};
    InstanceRecord failed_report{honest, {inside, inside, inside}, 4, false};
    InstanceRecord missing{honest, {inside, inside, inside}, 3, false};
    InstanceRecord invalid{
        honest, {{3.0, 3.0}, {3.0, 3.0}, {3.0, 3.0}, {3.0, 3.0}}, 4, false};
    Tally t;
    for (const InstanceRecord* r : {&ok, &disagree, &stalled, &failed_report,
                                    &missing, &invalid, &ok}) {
      check_instance(*r, 4, 0.5, 1.0, t);
    }
    bad += expect(t.attempted == 7, "cluster: every instance is judged");
    bad += expect(t.failed == 5,
                  "cluster: disagreement, stall, a failed report at a "
                  "correct node, a missing decision and an invalid decision "
                  "all fail");
    bad += expect(t.ratio_n == 2 && t.ratio_mean() > 0.1 &&
                      t.ratio_mean() < 0.2,
                  "cluster: good instances feed delta_ratio_mean");
    bad += expect(t.failures.size() == 5, "cluster: every failure is named");
  }

  // Table 1 budget: Thm 12 at d = 3, f = 2 is max-edge(E+) / (d - 1).
  {
    rbvc::Rng rng(11);
    const auto s = rbvc::workload::duplicated_simplex(rng, 3, 2);
    bad += expect(table1_budget(s, 2, 2.0) > 0,
                  "table1_budget is positive on the Thm 12 instance");
  }

  std::printf("%s\n", bad ? "selftest FAILED" : "selftest passed");
  return bad ? 1 : 0;
}

}  // namespace perfbench
