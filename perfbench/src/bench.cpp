#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("peak_rss_mb: no VmHWM in /proc/self/status");
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double rank = std::max(0.0, std::min(n - 1, std::ceil(q * n) - 1));
  return v[static_cast<std::size_t>(rank)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// obs snapshots.
// ---------------------------------------------------------------------------

namespace {

// The counters and ScopedTimer histograms the per-layer metrics read.
const char* const kCounters[] = {
    "geom.delta_star.calls",
    "geom.delta_star.method.gamma_nonempty",
    "geom.delta_star.method.simplex_inradius",
    "geom.delta_star.method.numerical",
    "geom.delta_star.bisect_iters",
    "geom.workspace.subset_cache.hits",
    "geom.workspace.subset_cache.misses",
    "opt.minimax.calls",
    "opt.minimax.evals",
    "lp.solves",
    "lp.pivots",
    "lp.warm.attempts",
    "lp.warm.hits",
    "lp.warm.dual_pivots",
    "lp.warm.fallback_cold",
    "lp.warm.refactors",
    "protocols.rbc.deliveries",
    "protocols.rbc.echo_quorums",
    "protocols.rbc.ready_amplifications",
    "sim.async.messages_delivered",
    "sim.async.scheduler_picks",
    "net.frames_sent",
    "net.bytes_sent",
    "net.send_drops",
    "exec.steals",
};

const char* const kTimers[] = {
    "geom.delta_star.seconds",
    "opt.minimax.seconds",
    "lp.seconds",
};

}  // namespace

ObsSnapshot ObsSnapshot::take() {
  const rbvc::obs::Registry& reg = rbvc::obs::global();
  ObsSnapshot s;
  for (const char* name : kCounters) {
    const rbvc::obs::Counter* c = reg.find_counter(name);
    s.counters_[name] = c ? static_cast<double>(c->value()) : 0.0;
  }
  for (const char* name : kTimers) {
    const rbvc::obs::Histogram* h = reg.find_histogram(name);
    s.timers_[name] = h ? h->sum() : 0.0;
  }
  return s;
}

ObsSnapshot ObsSnapshot::minus(const ObsSnapshot& before) const {
  ObsSnapshot d = *this;
  for (auto& [k, v] : d.counters_) v -= before.count(k);
  for (auto& [k, v] : d.timers_) v -= before.seconds(k);
  return d;
}

double ObsSnapshot::count(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double ObsSnapshot::seconds(const std::string& name) const {
  auto it = timers_.find(name);
  return it == timers_.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// Metric names.
// ---------------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"net.frames_per_op", "count"},
      {"net.bytes_per_op", "B"},
      {"net.send_us_per_op", "us"},
      {"net.recv_us_per_op", "us"},
      {"net.codec_us_per_frame", "us"},
      {"net.send_drops_per_op", "count"},
      {"consensus.step_busy_us_per_op", "us"},
      {"consensus.step_idle_frac", "frac"},
      {"consensus.node_busy_frac_max", "frac"},
      {"protocols.rbc_deliveries_per_op", "count"},
      {"protocols.rbc_echo_quorums_per_op", "count"},
      {"protocols.rbc_ready_amplifications_per_op", "count"},
      {"hull.delta_star_calls_per_op", "count"},
      {"hull.method_numerical_frac", "frac"},
      {"hull.method_inradius_frac", "frac"},
      {"hull.method_gamma_frac", "frac"},
      {"hull.bisect_iters_per_op", "count"},
      {"hull.subset_cache_hit_frac", "frac"},
      {"opt.minimax_calls_per_op", "count"},
      {"opt.wolfe_evals_per_op", "count"},
      {"opt.wolfe_us_per_eval", "us"},
      {"opt.self_ms_per_op", "ms"},
      {"lp.solves_per_op", "count"},
      {"lp.pivots_per_op", "count"},
      {"lp.dual_pivots_per_op", "count"},
      {"lp.warm_hit_frac", "frac"},
      {"lp.fallback_cold_frac", "frac"},
      {"lp.refactors_per_op", "count"},
      {"lp.probe_us", "us"},
      {"lp.solve_us", "us"},
      {"sim.deliveries_per_op", "count"},
      {"sim.scheduler_picks_per_op", "count"},
      {"sim.run_ms_per_op", "ms"},
      {"harness.generate_us_per_op", "us"},
      {"harness.oracle_us_per_op", "us"},
      {"exec.busy_frac", "frac"},
      {"exec.steals_per_op", "count"},
      {"exec.tail_idle_s", "s"},
      {"obs.trace_overhead_pct", "%"},
  };
  return names;
}

// ---------------------------------------------------------------------------
// Report assembly.
// ---------------------------------------------------------------------------

void fill_end_to_end(const EndToEnd& e, Report& r) {
  const double ops = static_cast<double>(std::max<std::size_t>(e.ops, 1));
  const double failed_frac =
      e.attempted ? static_cast<double>(e.failed) /
                        static_cast<double>(e.attempted)
                  : 1.0;
  r.attempted = e.attempted;
  r.failed = e.failed;
  double ops_per_s = e.wall_s > 0 ? ops / e.wall_s : 0.0;
  double tail = percentile(e.latencies_ms, e.tail.q);
  if (e.windows > 1 && e.end_s.size() == e.latencies_ms.size()) {
    const double slice = e.wall_s / static_cast<double>(e.windows);
    std::vector<std::vector<double>> lat(e.windows);
    for (std::size_t i = 0; i < e.end_s.size(); ++i) {
      const auto w = static_cast<std::size_t>(e.end_s[i] / slice);
      lat[std::min(w, e.windows - 1)].push_back(e.latencies_ms[i]);
    }
    std::vector<double> rates, tails;
    for (const std::vector<double>& l : lat) {
      rates.push_back(static_cast<double>(l.size()) / slice);
      tails.push_back(percentile(l, e.tail.q));
    }
    ops_per_s = median(rates);
    tail = median(tails);
  }
  r.metrics = {
      {"ops_per_s", ops_per_s, "1/s"},
      {"latency_p50_ms", percentile(e.latencies_ms, 0.50), "ms"},
      {"latency_tail_ms", tail, "ms"},
      {"cpu_ms_per_op", 1e3 * e.cpu_s / ops, "ms"},
      {"delta_ratio_mean", e.delta_ratio_mean, "ratio"},
      // failed_frac is gated as its complement, which is never 0.
      {"ok_frac", 1.0 - failed_frac, "frac"},
      {"setup_s", median(e.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  // Samples beyond the tail percentile in one slice (the whole window when
  // windows == 1); the percentile is fixed so a full run keeps this >= 10.
  const std::size_t n = e.latencies_ms.size() / e.windows;
  const std::size_t beyond =
      n - static_cast<std::size_t>(std::max(
              0.0, std::ceil(e.tail.q * static_cast<double>(n))));
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "latency_tail_ms is %s of %zu slice(s) of ~%zu samples "
                "(~%zu beyond it per slice); %zu samples in all",
                e.tail.label, e.windows, n, beyond, e.latencies_ms.size());
  r.notes.push_back(buf);
  if (e.windows > 1) {
    std::snprintf(buf, sizeof buf,
                  "ops_per_s and latency_tail_ms are medians over %zu slices "
                  "of %.3g s; whole-window ops_per_s = %.6g",
                  e.windows, e.wall_s / static_cast<double>(e.windows),
                  e.wall_s > 0 ? ops / e.wall_s : 0.0);
    r.notes.push_back(buf);
  }
  std::string q = "latency quantiles ms:";
  for (const double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    std::snprintf(buf, sizeof buf, " p%g=%.4g", 100 * p,
                  percentile(e.latencies_ms, p));
    q += buf;
  }
  r.notes.push_back(q);
  std::snprintf(buf, sizeof buf, "failed_frac = %.6g (%zu of %zu ops failed)",
                failed_frac, e.failed, e.attempted);
  r.notes.push_back(buf);
  std::snprintf(buf, sizeof buf, "setup_s is the median of %zu set-ups",
                e.setup_s.size());
  r.notes.push_back(buf);
}

void LayerMetrics::set(const std::string& name, double v) { v_[name] = v; }

double LayerMetrics::get(const std::string& name) const {
  auto it = v_.find(name);
  return it == v_.end() ? 0.0 : it->second;
}

void LayerMetrics::emit(Report& r) const {
  r.metrics.clear();
  for (const auto& [name, unit] : per_layer_names()) {
    r.metrics.push_back({name, get(name), unit});
  }
}

void fill_counter_layers(const ObsSnapshot& d, double ops, LayerMetrics& lm) {
  ops = std::max(ops, 1.0);
  auto per_op = [&](const char* counter) { return d.count(counter) / ops; };
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  lm.set("net.frames_per_op", per_op("net.frames_sent"));
  lm.set("net.bytes_per_op", per_op("net.bytes_sent"));
  lm.set("net.send_drops_per_op", per_op("net.send_drops"));

  lm.set("protocols.rbc_deliveries_per_op", per_op("protocols.rbc.deliveries"));
  lm.set("protocols.rbc_echo_quorums_per_op",
         per_op("protocols.rbc.echo_quorums"));
  lm.set("protocols.rbc_ready_amplifications_per_op",
         per_op("protocols.rbc.ready_amplifications"));

  const double calls = d.count("geom.delta_star.calls");
  lm.set("hull.delta_star_calls_per_op", calls / ops);
  lm.set("hull.method_numerical_frac",
         frac(d.count("geom.delta_star.method.numerical"), calls));
  lm.set("hull.method_inradius_frac",
         frac(d.count("geom.delta_star.method.simplex_inradius"), calls));
  lm.set("hull.method_gamma_frac",
         frac(d.count("geom.delta_star.method.gamma_nonempty"), calls));
  lm.set("hull.bisect_iters_per_op", per_op("geom.delta_star.bisect_iters"));
  const double hits = d.count("geom.workspace.subset_cache.hits");
  lm.set("hull.subset_cache_hit_frac",
         frac(hits, hits + d.count("geom.workspace.subset_cache.misses")));

  lm.set("opt.minimax_calls_per_op", per_op("opt.minimax.calls"));
  lm.set("opt.wolfe_evals_per_op", per_op("opt.minimax.evals"));

  const double attempts = d.count("lp.warm.attempts");
  lm.set("lp.solves_per_op", per_op("lp.solves"));
  lm.set("lp.pivots_per_op", per_op("lp.pivots"));
  lm.set("lp.dual_pivots_per_op", per_op("lp.warm.dual_pivots"));
  lm.set("lp.warm_hit_frac", frac(d.count("lp.warm.hits"), attempts));
  lm.set("lp.fallback_cold_frac",
         frac(d.count("lp.warm.fallback_cold"), attempts));
  lm.set("lp.refactors_per_op", per_op("lp.warm.refactors"));

  lm.set("sim.deliveries_per_op", per_op("sim.async.messages_delivered"));
  lm.set("sim.scheduler_picks_per_op", per_op("sim.async.scheduler_picks"));

  lm.set("exec.steals_per_op", per_op("exec.steals"));
}

void set_exclusive(Report& r, const std::string& op_label, double op_time_us,
                   std::vector<ExclusiveRow> rows, double top_level_total_us) {
  r.op_time_label = op_label;
  r.op_time_us = op_time_us;
  r.exclusive = std::move(rows);
  r.residual_us = op_time_us - top_level_total_us;
}

void print_report(const Options& opt, const Report& r) {
  std::printf("# workload=%s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  if (!r.exclusive.empty()) {
    std::printf("# exclusive time per op (%s = %.3f us)\n",
                r.op_time_label.c_str(), r.op_time_us);
    std::printf("#   %-22s %-20s %14s %14s\n", "module", "total from",
                "total us/op", "exclusive us/op");
    double sum = 0.0;
    for (const ExclusiveRow& row : r.exclusive) {
      std::printf("#   %-22s %-20s %14.3f %14.3f\n", row.module.c_str(),
                  row.source.c_str(), row.total_us, row.exclusive_us);
      sum += row.exclusive_us;
    }
    std::printf("#   %-22s %-20s %14s %14.3f\n", "residual",
                "op - top-level", "", r.residual_us);
    std::printf("#   %-22s %-20s %14s %14.3f\n", "sum", "", "",
                sum + r.residual_us);
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
