// Shared pieces of the benchmark binary: run options, timing, sample
// statistics, obs-counter snapshots, and the report every workload fills
// in (end-to-end metrics, per-layer metrics, exclusive-time rows).
//
// The benchmark reaches the library only through its public headers; every
// per-layer time is measured from outside (wrappers around the calls into
// a layer, or the library's own always-on obs counters and timers read as
// deltas around the measured window).
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// When nonzero, run exactly this many ops instead of a timed window
  /// (the exact-count determinism test uses it).
  std::size_t ops = 0;
  /// Executor width of sweep_async, decision streams of algo_* (0 = the
  /// workload's default: hardware concurrency, or one algo_linf stream).
  std::size_t jobs = 0;
};

/// Process CPU (user + system) seconds, from getrusage.
struct Usage {
  double cpu_s = 0.0;
  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    return u;
  }
};

/// This process image's peak resident set (VmHWM of /proc/self/status), in
/// MB. Not getrusage's ru_maxrss: Linux carries that across execve, so it
/// would report the launching Python process's footprint whenever that is
/// the larger one.
double peak_rss_mb();

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The tail percentile a workload reports: fixed per workload, chosen so a
/// full-length run leaves at least ten samples beyond it.
struct TailSpec {
  double q = 0.99;
  const char* label = "p99";
};

/// Deltas of the library's always-on obs counters and timer histograms
/// (obs::global()) over a window.
class ObsSnapshot {
 public:
  static ObsSnapshot take();
  /// this - before, per counter / histogram sum (missing entries read 0).
  ObsSnapshot minus(const ObsSnapshot& before) const;
  double count(const std::string& name) const;
  /// Sum, in seconds, of a ScopedTimer histogram.
  double seconds(const std::string& name) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> timers_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the exclusive-time report: a module's total time per op,
/// how that total was obtained, and what is left after its children.
struct ExclusiveRow {
  std::string module;
  std::string source;  // where the total comes from
  double total_us = 0.0;
  double exclusive_us = 0.0;
};

struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;       // what the JSON line carries
  std::vector<std::string> notes;    // printed above the JSON line
  std::vector<ExclusiveRow> exclusive;
  double op_time_us = 0.0;           // what the exclusive rows add up to
  double residual_us = 0.0;
  std::string op_time_label;
};

/// The per-layer metric names (a traced run reports every one; layers a
/// workload does not exercise read 0).
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

/// Prints the human-readable lines and, last, the one-line JSON result.
void print_report(const Options& opt, const Report& r);

/// End-to-end metric block shared by every workload.
struct EndToEnd {
  std::vector<double> latencies_ms;  // one per completed op
  std::vector<double> end_s;         // its completion, from window start
  double wall_s = 0.0;               // measured window length
  /// With windows > 1, ops_per_s and latency_tail_ms are the medians of
  /// their values over that many equal slices of the window, so a
  /// transient stall of the machine moves one slice, not the result.
  std::size_t windows = 1;
  TailSpec tail;
  double cpu_s = 0.0;                // over the measured window
  std::size_t ops = 0;               // completed ops in the window
  double delta_ratio_mean = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> setup_s;       // one per set-up repetition
};

/// Fills `r` with the end-to-end metrics (and the notes that go with them).
void fill_end_to_end(const EndToEnd& e, Report& r);

/// Per-layer metrics by name; unset names read 0.
class LayerMetrics {
 public:
  void set(const std::string& name, double v);
  double get(const std::string& name) const;
  /// Moves every per-layer metric (in per_layer_names() order) into `r`.
  void emit(Report& r) const;

 private:
  std::map<std::string, double> v_;
};

/// obs.trace_overhead_pct: how much slower the traced half ran, in %.
inline double overhead_pct(double untraced_ops_s, double traced_ops_s) {
  return untraced_ops_s > 0
             ? 100.0 * (untraced_ops_s - traced_ops_s) / untraced_ops_s
             : 0.0;
}

/// Counter-derived per-layer metrics common to every workload (hull, opt,
/// lp, protocols, sim, net counts), normalised by `ops`.
void fill_counter_layers(const ObsSnapshot& d, double ops, LayerMetrics& lm);

/// Appends the exclusive-time rows; exclusive times plus the residual add
/// up to `op_time_us` by construction (residual = op time minus the sum of
/// the top-level totals).
void set_exclusive(Report& r, const std::string& op_label, double op_time_us,
                   std::vector<ExclusiveRow> rows, double top_level_total_us);

// Workloads. Each runs one kind of run (end-to-end or traced) and fills
// the report; checks happen after the measured window.
Report run_cluster_tcp(const Options& opt);
Report run_sweep_async(const Options& opt);
Report run_algo(const Options& opt, bool linf);

/// Checker self-test: planted bad outputs must be counted as failed ops.
int run_selftest();

}  // namespace perfbench
