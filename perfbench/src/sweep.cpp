// sweep_async: the property-sweep path behind rbvc-sweep. Relaxed Verified
// Averaging episodes (n = 4, f = 1, d = 2, R = 4, L2 rule) with one
// Byzantine outlier-input process under the random scheduler, each run by
// harness::detail::episode_fails with decide_agree_valid_oracle, fanned
// across an exec::ParallelExecutor in batches until the window closes.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "exec/parallel_executor.h"
#include "harness/property.h"
#include "unit_costs.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using rbvc::harness::AsyncProperty;

constexpr std::size_t kBatchPerJob = 16;
constexpr double kEps = 0.5;    // agreement, as the rbvc-sweep property
constexpr double kKappa = 1.0;  // validity budget factor
// Episodes per window whose honest inputs are kept for the unit costs.
constexpr std::size_t kKeptInputs = 256;

AsyncProperty sweep_property(std::uint64_t seed) {
  AsyncProperty prop;
  prop.name = "perfbench_sweep_async";
  prop.base_seed = seed;
  prop.generate = [](rbvc::Rng& rng) {
    rbvc::workload::AsyncExperiment e;
    e.prm.n = 4;
    e.prm.f = 1;
    e.prm.rounds = 4;
    e.d = 2;
    e.honest_inputs = rbvc::workload::gaussian_cloud(rng, 3, 2);
    e.byzantine_ids = {rng.below(4)};
    e.strategy = rbvc::workload::AsyncStrategy::kOutlierInput;
    e.seed = rng.next_u64();
    return e;
  };
  prop.oracle = rbvc::harness::decide_agree_valid_oracle(kEps, kKappa);
  return prop;
}

/// What one episode left behind for the checks and the per-layer timings
/// (filled by the generate/oracle wrappers). The outcome vectors are
/// reduced to `delta_ratio` as soon as the episode ends, so the benchmark's
/// own memory does not grow with the episode count and move peak RSS.
struct EpisodeSlot {
  std::vector<rbvc::Vec> honest_inputs;  // kept for kKeptInputs episodes
  std::vector<rbvc::Vec> decisions;
  double delta_ratio = 0.0;
  bool failed = false;
  double total_s = 0.0;
  double generate_s = 0.0;
  double run_s = 0.0;
  double oracle_s = 0.0;
  std::size_t worker = 0;
  Clock::time_point end;
};

// The episode a worker thread is running, for the wrappers.
thread_local EpisodeSlot* t_slot = nullptr;
thread_local Clock::time_point t_generated;

std::size_t worker_index() {
  static std::mutex mu;
  static std::vector<std::thread::id> ids;
  const std::lock_guard<std::mutex> lock(mu);
  const std::thread::id me = std::this_thread::get_id();
  auto it = std::find(ids.begin(), ids.end(), me);
  if (it != ids.end()) return static_cast<std::size_t>(it - ids.begin());
  ids.push_back(me);
  return ids.size() - 1;
}

/// Wraps the property so every episode records its outcome; a traced
/// property also times generate, the recorded run (from the end of
/// generate to the start of the oracle) and the oracle.
AsyncProperty instrumented(AsyncProperty prop, bool traced) {
  auto gen = prop.generate;
  auto oracle = prop.oracle;
  if (traced) {
    prop.generate = [gen](rbvc::Rng& rng) {
      const Clock::time_point a = Clock::now();
      auto e = gen(rng);
      t_generated = Clock::now();
      t_slot->generate_s = std::chrono::duration<double>(t_generated - a).count();
      return e;
    };
  }
  prop.oracle = [oracle, traced](const rbvc::workload::AsyncExperiment& e,
                                 const rbvc::workload::AsyncOutcome& out) {
    const Clock::time_point a = Clock::now();
    std::string verdict = oracle(e, out);
    EpisodeSlot& slot = *t_slot;
    if (traced) {
      slot.run_s = std::chrono::duration<double>(a - t_generated).count();
      slot.oracle_s = seconds_since(a);
    }
    slot.honest_inputs = out.honest_inputs;
    slot.decisions = out.decisions;
    return verdict;
  };
  return prop;
}

struct Window {
  std::vector<EpisodeSlot> slots;
  Clock::time_point start;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double tail_idle_s = 0.0;
  ObsSnapshot obs;
};

/// Runs batches of episodes [first, ...) until `seconds` pass (or exactly
/// `ops` episodes when nonzero).
Window run_window(rbvc::exec::ParallelExecutor& pool, const AsyncProperty& prop,
                  std::size_t& next_ep, double seconds, std::size_t ops) {
  Window w;
  const std::size_t batch = kBatchPerJob * pool.jobs();
  // Reserved up front (untouched pages cost no RSS): growing by doubling
  // would add a multi-MB step to peak RSS whenever a run's episode count
  // crosses a power of two.
  w.slots.reserve(ops ? ops : static_cast<std::size_t>(seconds * 20000) + batch);
  const ObsSnapshot before = ObsSnapshot::take();
  const Usage u0 = Usage::now();
  const Clock::time_point t0 = Clock::now();
  w.start = t0;
  while (ops ? w.slots.size() < ops : seconds_since(t0) < seconds) {
    const std::size_t n = ops ? std::min(batch, ops - w.slots.size()) : batch;
    std::vector<EpisodeSlot> slots(n);
    const std::size_t first = next_ep;
    const std::size_t kept = w.slots.size();
    pool.parallel_for(n, [&](std::size_t k) {
      EpisodeSlot& slot = slots[k];
      t_slot = &slot;
      const Clock::time_point a = Clock::now();
      slot.failed = rbvc::harness::detail::episode_fails(prop, first + k);
      slot.end = Clock::now();
      slot.total_s = std::chrono::duration<double>(slot.end - a).count();
      slot.worker = worker_index();
      t_slot = nullptr;
      if (!slot.failed) {
        slot.delta_ratio =
            instance_delta_ratio(slot.decisions, slot.honest_inputs, kKappa);
      }
      slot.decisions = std::vector<rbvc::Vec>();
      if (kept + k >= kKeptInputs) slot.honest_inputs = std::vector<rbvc::Vec>();
    });
    const Clock::time_point batch_end = Clock::now();
    next_ep += n;
    // Tail idle: from the first worker to run out of work (its last
    // episode's end) to the end of the batch.
    std::vector<Clock::time_point> last_end;
    for (const EpisodeSlot& s : slots) {
      if (s.worker >= last_end.size()) last_end.resize(s.worker + 1, Clock::time_point{});
      last_end[s.worker] = std::max(last_end[s.worker], s.end);
    }
    Clock::time_point first_idle = batch_end;
    for (const Clock::time_point& t : last_end) {
      if (t != Clock::time_point{}) first_idle = std::min(first_idle, t);
    }
    w.tail_idle_s += std::chrono::duration<double>(batch_end - first_idle).count();
    for (EpisodeSlot& s : slots) w.slots.push_back(std::move(s));
  }
  w.wall_s = seconds_since(t0);
  w.cpu_s = Usage::now().cpu_s - u0.cpu_s;
  w.obs = ObsSnapshot::take().minus(before);
  return w;
}

void check(const Window& w, Tally& t) {
  for (const EpisodeSlot& s : w.slots) {
    ++t.attempted;
    if (s.failed) {
      t.fail("episode failed decide_agree_valid_oracle");
      continue;
    }
    t.ratio_sum += s.delta_ratio;
    ++t.ratio_n;
  }
}

void fill_latencies(const Window& w, EndToEnd& e) {
  for (const EpisodeSlot& s : w.slots) {
    e.latencies_ms.push_back(1e3 * s.total_s);
    e.end_s.push_back(std::chrono::duration<double>(s.end - w.start).count());
  }
  e.wall_s = w.wall_s;
}

}  // namespace

Report run_sweep_async(const Options& opt) {
  const std::size_t jobs =
      opt.jobs ? opt.jobs : std::max(1u, std::thread::hardware_concurrency());
  const AsyncProperty base = sweep_property(opt.seed);
  Report rep;
  EndToEnd e;
  e.tail = TailSpec{0.95, "p95"};

  // Set-up: start the executor's workers and run one warm-up batch
  // (episode indices far from the measured range); repeated, median.
  const AsyncProperty warm_prop = instrumented(base, false);
  for (int rep_i = 0; rep_i < 15; ++rep_i) {
    const Clock::time_point t0 = Clock::now();
    rbvc::exec::ParallelExecutor warm(jobs);
    std::size_t warm_ep = std::size_t{1} << 40;
    (void)run_window(warm, warm_prop, warm_ep, 0.0, kBatchPerJob * jobs);
    e.setup_s.push_back(seconds_since(t0));
  }

  rbvc::exec::ParallelExecutor pool(jobs);
  std::size_t next_ep = 0;
  Tally tally;
  if (!opt.trace) {
    const Window w = run_window(pool, instrumented(base, false), next_ep,
                                opt.seconds, opt.ops);
    check(w, tally);
    e.ops = w.slots.size();
    e.windows = 10;
    fill_latencies(w, e);
    e.cpu_s = w.cpu_s;
    e.delta_ratio_mean = tally.ratio_mean();
    e.attempted = tally.attempted;
    e.failed = tally.failed;
    fill_end_to_end(e, rep);
  } else {
    const double half = opt.seconds / 2.0;
    const Window b = run_window(pool, instrumented(base, false), next_ep,
                                half, opt.ops);
    check(b, tally);
    const Window w = run_window(pool, instrumented(base, true), next_ep, half,
                                opt.ops);
    check(w, tally);
    const double ops = static_cast<double>(w.slots.size());
    const ObsSnapshot& d = w.obs;
    LayerMetrics lm;
    fill_counter_layers(d, ops, lm);

    double total = 0, gen = 0, run = 0, orc = 0;
    for (const EpisodeSlot& s : w.slots) {
      total += s.total_s;
      gen += s.generate_s;
      run += s.run_s;
      orc += s.oracle_s;
    }
    lm.set("sim.run_ms_per_op", 1e3 * run / ops);
    lm.set("harness.generate_us_per_op", 1e6 * gen / ops);
    lm.set("harness.oracle_us_per_op", 1e6 * orc / ops);
    lm.set("exec.busy_frac",
           total / (static_cast<double>(jobs) * w.wall_s));
    lm.set("exec.tail_idle_s", w.tail_idle_s);

    std::vector<std::vector<rbvc::Vec>> inputs;
    for (std::size_t k = 0; k < w.slots.size() && k < kKeptInputs; ++k) {
      // The generated multiset: honest inputs (the outlier is drawn inside
      // the Byzantine process, so unit costs use the honest views).
      inputs.push_back(w.slots[k].honest_inputs);
    }
    set_unit_costs(lm, inputs, {}, 1, 0.2);

    const double base_ops_s = static_cast<double>(b.slots.size()) / b.wall_s;
    const double traced_ops_s = ops / w.wall_s;
    lm.set("obs.trace_overhead_pct", overhead_pct(base_ops_s, traced_ops_s));

    const double op_us = 1e6 * total / ops;
    const double gen_us = 1e6 * gen / ops;
    const double run_us = 1e6 * run / ops;
    const double orc_us = 1e6 * orc / ops;
    const double hull_us = 1e6 * d.seconds("geom.delta_star.seconds") / ops;
    const double lp_us = 1e6 * d.seconds("lp.seconds") / ops;
    set_exclusive(rep, "mean episode time", op_us,
                  {{"harness.generate", "measured (wrapper)", gen_us, gen_us},
                   {"sim.run_recorded", "measured (wrapper)", run_us,
                    run_us - hull_us},
                   {"hull.delta_star", "measured (timer)", hull_us,
                    hull_us - lp_us},
                   {"lp", "measured (timer)", lp_us, lp_us},
                   {"harness.oracle", "measured (wrapper)", orc_us, orc_us}},
                  gen_us + run_us + orc_us);
    lm.emit(rep);
    rep.attempted = tally.attempted;
    rep.failed = tally.failed;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "traced half: %zu episodes, %.4f ops/s; untraced half: "
                  "%zu episodes, %.4f ops/s; %zu jobs",
                  w.slots.size(), traced_ops_s, b.slots.size(), base_ops_s,
                  jobs);
    rep.notes.push_back(buf);
    rep.notes.push_back(
        "sim.run_recorded's exclusive row holds the sim engine, protocols "
        "and consensus processes; net and consensus.step read 0 here");
  }
  for (const std::string& why : tally.failures) rep.notes.push_back("FAILED: " + why);
  rep.correct = tally.failed == 0 && tally.attempted > 0;
  return rep;
}

}  // namespace perfbench
