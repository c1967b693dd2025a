// algo_l2 / algo_linf: streams of ALGO Step-2 decisions (delta_star_2, or
// delta_star_linear at p = inf) on seeded inputs from the numerical rows of
// the paper's Table 1. Each stream cycles through the regimes in a fixed
// order, so every run sees the same mix; the seed only changes the draws.
//
// algo_l2 runs one stream per core: on a shared 4-vCPU host one thread's
// speed drifts by 20-30% over tens of seconds, and four streams average
// that out (their spread across runs is what the gate compares). algo_linf
// keeps one stream, so its traced run can attribute LP pivots to single
// decisions.
#include <cstdio>
#include <latch>
#include <string>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "hull/delta_star.h"
#include "unit_costs.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

constexpr int kSetupsPerStream = 50;
constexpr std::uint64_t kWarmSeed = 0x5E7;

struct Regime {
  const char* name;
  std::size_t n, d, f;
  bool dup;  // Thm 12 duplicated simplex; otherwise a Gaussian cloud
};

// Conjecture 1: Gaussian clouds, n = 7, f = 2 (3f+1 <= n < (d+1)f).
// Theorem 12: the tight duplicated simplex, n = (d+1)f, f = 2.
const std::vector<Regime>& regimes(bool linf) {
  static const std::vector<Regime> l2 = {{"conj1_d3", 7, 3, 2, false},
                                         {"conj1_d5", 7, 5, 2, false},
                                         {"thm12_d3", 8, 3, 2, true},
                                         {"thm12_d5", 12, 5, 2, true}};
  static const std::vector<Regime> inf = {{"conj1_d3", 7, 3, 2, false},
                                          {"conj1_d5", 7, 5, 2, false},
                                          {"thm12_d3", 8, 3, 2, true}};
  return linf ? inf : l2;
}

/// One seeded decision stream: op i draws regime i mod |regimes| from the
/// stream's own Rng.
class InputStream {
 public:
  InputStream(std::uint64_t seed, std::size_t stream, bool linf)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0xA160 + 0x1000 * stream),
        rs_(regimes(linf)) {}
  const Regime& regime(std::size_t i) const { return rs_[i % rs_.size()]; }
  std::vector<rbvc::Vec> next(std::size_t i) {
    const Regime& r = regime(i);
    return r.dup ? rbvc::workload::duplicated_simplex(rng_, r.d, r.f)
                 : rbvc::workload::gaussian_cloud(rng_, r.n, r.d);
  }
  std::size_t cycle() const { return rs_.size(); }

 private:
  rbvc::Rng rng_;
  const std::vector<Regime>& rs_;
};

rbvc::DeltaStarResult decide(
    const std::vector<rbvc::Vec>& s, std::size_t f, bool linf,
    rbvc::GeometryWorkspace& ws = rbvc::GeometryWorkspace::local()) {
  return linf ? rbvc::delta_star_linear(s, f, rbvc::kInfNorm, rbvc::kTol, ws)
              : rbvc::delta_star_2(s, f, rbvc::kTol, {}, ws);
}

struct Stream {
  std::size_t id = 0;
  InputStream in;
  std::size_t next_op = 0;  // continues across windows
};

struct Window {
  std::vector<DeltaRecord> records;
  std::vector<double> latencies_ms;
  std::vector<double> dual_pivots;  // per decision, traced 1-stream windows
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ObsSnapshot obs;  // counter deltas over the window
  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(records.size()) / wall_s : 0.0;
  }
};

/// One stream's share of a window: whole cycles until `seconds` pass (or
/// exactly `ops` decisions when nonzero), so every window holds the same
/// regime mix. With `per_op_counts` the obs counters are snapshotted around
/// every decision (meaningful only while no other stream runs).
void run_stream(Stream& st, bool linf, Clock::time_point t0, double seconds,
                std::size_t ops, bool per_op_counts, Window& w) {
  std::size_t done = 0;
  while (ops ? done < ops
             : (done % st.in.cycle() != 0 || seconds_since(t0) < seconds)) {
    const std::size_t i = st.next_op++;
    DeltaRecord rec;
    rec.input = st.in.next(i);
    rec.f = st.in.regime(i).f;
    rec.p = linf ? rbvc::kInfNorm : 2.0;
    rec.label = "stream " + std::to_string(st.id) + " op " + std::to_string(i) +
                " (" + st.in.regime(i).name + ")";
    const ObsSnapshot before = per_op_counts ? ObsSnapshot::take() : ObsSnapshot();
    const Clock::time_point a = Clock::now();
    rbvc::DeltaStarResult res = decide(rec.input, rec.f, linf);
    w.latencies_ms.push_back(1e3 * seconds_since(a));
    if (per_op_counts) {
      w.dual_pivots.push_back(
          ObsSnapshot::take().minus(before).count("lp.warm.dual_pivots"));
    }
    rec.value = res.value;
    rec.point = std::move(res.point);
    w.records.push_back(std::move(rec));
    ++done;
  }
}

/// Runs every stream (one thread each when there are several) for one
/// window and merges their decisions in stream order.
Window run_window(std::vector<Stream>& streams, bool linf, double seconds,
                  std::size_t ops, bool traced) {
  const ObsSnapshot before = ObsSnapshot::take();
  const Usage u0 = Usage::now();
  const Clock::time_point t0 = Clock::now();
  std::vector<Window> parts(streams.size());
  if (streams.size() == 1) {
    run_stream(streams[0], linf, t0, seconds, ops, traced, parts[0]);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < streams.size(); ++k) {
      threads.emplace_back([&, k] {
        run_stream(streams[k], linf, t0, seconds, ops, false, parts[k]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  Window w;
  w.wall_s = seconds_since(t0);
  w.cpu_s = Usage::now().cpu_s - u0.cpu_s;
  w.obs = ObsSnapshot::take().minus(before);
  for (Window& p : parts) {
    for (DeltaRecord& r : p.records) w.records.push_back(std::move(r));
    w.latencies_ms.insert(w.latencies_ms.end(), p.latencies_ms.begin(),
                          p.latencies_ms.end());
    w.dual_pivots.insert(w.dual_pivots.end(), p.dual_pivots.begin(),
                         p.dual_pivots.end());
  }
  return w;
}

}  // namespace

Report run_algo(const Options& opt, bool linf) {
  Report rep;
  EndToEnd e;
  e.tail = linf ? TailSpec{0.97, "p97"} : TailSpec{0.90, "p90"};
  const std::size_t n_streams =
      opt.jobs ? opt.jobs
               : linf ? 1 : std::max(1u, std::thread::hardware_concurrency());

  // Set-up: what a stream does before its first measured decision -- seed
  // its input stream, draw one regime cycle, and bring a fresh geometry
  // workspace to ready: the drop-f index lists of every regime shape, and
  // one decision on each of two small fixed inputs (the LP and closed-form
  // paths; the numerical path costs a whole decision, a latency sample
  // rather than set-up). Every stream's thread sets up repeatedly, all at
  // once as the run starts them; the median over all set-ups is reported.
  // One thread alone would read whichever vCPU it landed on: on the host
  // this was written on, set-ups on vCPU 0 (which takes the interrupts)
  // took 1.6x as long as on the others.
  //
  // Warm-up, after every set-up: every thread decides the largest regime,
  // all starting at once. Such a decision holds a transient allocation of
  // several MB near its start (RSS +5 MB for under 0.1 s at n = 12,
  // d = 5); in the measured window the streams drift apart, so how many of
  // these coincide -- and with it the process's peak RSS -- would be left
  // to chance. Starting them together makes peak_rss_mb the worst case of
  // all streams at once.
  {
    const Regime* big = &regimes(linf).front();
    for (const Regime& r : regimes(linf)) {
      if (r.n * r.d > big->n * big->d) big = &r;
    }
    rbvc::Rng big_rng(kWarmSeed);
    const std::vector<rbvc::Vec> big_input =
        big->dup ? rbvc::workload::duplicated_simplex(big_rng, big->d, big->f)
                 : rbvc::workload::gaussian_cloud(big_rng, big->n, big->d);
    std::vector<std::vector<double>> times(n_streams);
    std::latch start(static_cast<std::ptrdiff_t>(n_streams));
    std::latch warm(static_cast<std::ptrdiff_t>(n_streams));
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < n_streams; ++k) {
      threads.emplace_back([&, k] {
        start.arrive_and_wait();
        for (int rep_i = 0; rep_i < kSetupsPerStream; ++rep_i) {
          const Clock::time_point t0 = Clock::now();
          {
            rbvc::GeometryWorkspace ws;
            InputStream in(opt.seed, k, linf);
            for (std::size_t i = 0; i < in.cycle(); ++i) {
              (void)in.next(i);
              (void)ws.drop_f_indices(in.regime(i).n, in.regime(i).f);
            }
            rbvc::Rng rng(kWarmSeed);
            (void)decide(rbvc::workload::gaussian_cloud(rng, 6, 3), 1, linf,
                         ws);
            (void)decide(rbvc::workload::gaussian_cloud(rng, 5, 4), 1, linf,
                         ws);
          }
          times[k].push_back(seconds_since(t0));
        }
        warm.arrive_and_wait();
        (void)decide(big_input, big->f, linf);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::vector<double>& t : times) {
      e.setup_s.insert(e.setup_s.end(), t.begin(), t.end());
    }
  }

  std::vector<Stream> streams;
  for (std::size_t k = 0; k < n_streams; ++k) {
    streams.push_back(Stream{k, InputStream(opt.seed, k, linf), 0});
  }
  Tally tally;
  if (!opt.trace) {
    Window w = run_window(streams, linf, opt.seconds, opt.ops, false);
    for (const DeltaRecord& r : w.records) check_delta(r, tally);
    e.ops = w.records.size();
    e.wall_s = w.wall_s;
    e.latencies_ms = w.latencies_ms;
    e.cpu_s = w.cpu_s;
    e.delta_ratio_mean = tally.ratio_mean();
    e.attempted = tally.attempted;
    e.failed = tally.failed;
    fill_end_to_end(e, rep);
    double max_ms = 0.0;
    std::size_t over_1s = 0;
    for (double ms : w.latencies_ms) {
      max_ms = std::max(max_ms, ms);
      over_1s += ms > 1000.0;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "latency_max_ms = %.3f; decisions over 1 s: %zu of %zu",
                  max_ms, over_1s, w.records.size());
    rep.notes.push_back(buf);
  } else {
    // Traced run: an untraced half for the overhead baseline, then a
    // traced half for the layer metrics (with one stream, also counter
    // snapshots around every decision).
    const double half = opt.seconds / 2.0;
    Window base = run_window(streams, linf, half, opt.ops, false);
    for (const DeltaRecord& r : base.records) check_delta(r, tally);
    Window w = run_window(streams, linf, half, opt.ops, true);
    const ObsSnapshot& d = w.obs;
    for (const DeltaRecord& r : w.records) check_delta(r, tally);

    const double ops = static_cast<double>(w.records.size());
    LayerMetrics lm;
    fill_counter_layers(d, ops, lm);
    std::vector<std::vector<rbvc::Vec>> inputs;
    std::vector<rbvc::Vec> witnesses;  // where the minimax iterates end up
    for (const DeltaRecord& r : w.records) {
      inputs.push_back(r.input);
      witnesses.push_back(r.point);
    }
    const std::size_t f = regimes(linf).front().f;
    set_unit_costs(lm, inputs, witnesses, f, 0.3);
    // The Wolfe cost feeds the exclusive split of the minimax, so measure
    // it for longer and on as many threads as the window ran streams: a
    // lone thread on a quieter host reads a different unit cost.
    std::vector<double> wolfe(streams.size());
    {
      std::vector<std::thread> threads;
      for (std::size_t k = 0; k < streams.size(); ++k) {
        threads.emplace_back([&, k] {
          wolfe[k] = wolfe_us_per_call(inputs, witnesses, f, 1.0);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double wolfe_us = mean(wolfe);
    lm.set("opt.wolfe_us_per_eval", wolfe_us);

    const double op_us = 1e3 * mean(w.latencies_ms);
    const double hull_us = 1e6 * d.seconds("geom.delta_star.seconds") / ops;
    const double mm_us = 1e6 * d.seconds("opt.minimax.seconds") / ops;
    const double lp_us = 1e6 * d.seconds("lp.seconds") / ops;
    const double wolfe_total_us = lm.get("opt.wolfe_evals_per_op") * wolfe_us;
    lm.set("opt.self_ms_per_op", 1e-3 * (mm_us - wolfe_total_us));
    const double base_ops_s = base.ops_per_s();
    const double traced_ops_s = w.ops_per_s();
    lm.set("obs.trace_overhead_pct", overhead_pct(base_ops_s, traced_ops_s));
    set_exclusive(
        rep, "mean decision latency", op_us,
        {{"hull.delta_star", "measured (timer)", hull_us,
          hull_us - mm_us - lp_us},
         {"opt.minimax", "measured (timer)", mm_us, mm_us - wolfe_total_us},
         {"geometry.wolfe", "evals x unit cost", wolfe_total_us,
          wolfe_total_us},
         {"lp", "measured (timer)", lp_us, lp_us}},
        hull_us);
    lm.emit(rep);
    rep.attempted = tally.attempted;
    rep.failed = tally.failed;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "traced half: %zu decisions, %.4f ops/s; untraced half: "
                  "%zu decisions, %.4f ops/s",
                  w.records.size(), traced_ops_s, base.records.size(),
                  base_ops_s);
    rep.notes.push_back(buf);
    if (!w.dual_pivots.empty()) {
      std::size_t slow = 0;
      for (std::size_t k = 1; k < w.latencies_ms.size(); ++k) {
        if (w.latencies_ms[k] > w.latencies_ms[slow]) slow = k;
      }
      std::snprintf(buf, sizeof buf,
                    "slowest traced decision: %s, %.3f ms, %.0f dual pivots "
                    "(median decision: %.0f dual pivots)",
                    w.records[slow].label.c_str(), w.latencies_ms[slow],
                    w.dual_pivots[slow], median(w.dual_pivots));
      rep.notes.push_back(buf);
    }
    rep.notes.push_back(
        "net, consensus, sim, harness and exec do no work on this workload "
        "(their metrics read 0)");
  }
  for (const std::string& why : tally.failures) rep.notes.push_back("FAILED: " + why);
  rep.correct = tally.failed == 0 && tally.attempted > 0;
  return rep;
}

}  // namespace perfbench
