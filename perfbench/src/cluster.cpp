// cluster_tcp: four ConsensusNodes (n = 4, f = 1, R = 2, L2 rule, d = 2)
// over loopback TcpTransport, driven by one ClusterClient in a closed loop
// with 8 instances in flight -- how rbvc-node / rbvc-client are deployed.
// No network delay is injected, so latency is processor time plus the
// loopback socket path. One node per instance (rotating) is given an
// outlier input (25 x a standard normal vector, as the sweep's Byzantine
// outlier) so the decisions are judged against the three honest inputs:
// eps-agreement and the input-dependent (delta,2)-relaxed validity budget.
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "net/node.h"
#include "net/tcp_transport.h"
#include "sim/rng.h"
#include "unit_costs.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kFaults = 1;
constexpr std::size_t kQuorum = kNodes - kFaults;
constexpr std::size_t kWindow = 8;
constexpr int kPollMs = 20;              // serve()'s default poll
constexpr double kStallS = 5.0;          // per-instance decision deadline
constexpr double kEps = 0.5;             // agreement, as the sweep property
constexpr double kKappa = 1.0;           // validity budget factor
constexpr std::size_t kWarmupInstances = 200;
constexpr std::size_t kCapturedFrames = 4096;

/// Timing decorator: forwards to the wrapped transport and, while the
/// measured window is open, accumulates the time spent in send() and
/// receive(). Each instance is used by one node thread only.
class TimedTransport final : public rbvc::net::Transport {
 public:
  TimedTransport(rbvc::net::Transport& inner,
                 const std::atomic<bool>& measuring)
      : inner_(inner), measuring_(measuring) {}

  void send(rbvc::net::ProcessId to, rbvc::net::Message m) override {
    if (!measuring_.load(std::memory_order_acquire)) {
      inner_.send(to, std::move(m));
      return;
    }
    if (captured.size() < kCapturedFrames) captured.push_back(m);
    const Clock::time_point a = Clock::now();
    inner_.send(to, std::move(m));
    send_s += seconds_since(a);
  }
  std::optional<rbvc::net::Message> receive(int timeout_ms) override {
    if (!measuring_.load(std::memory_order_acquire)) {
      return inner_.receive(timeout_ms);
    }
    const Clock::time_point a = Clock::now();
    auto m = inner_.receive(timeout_ms);
    const double s = seconds_since(a);
    recv_s += s;
    if (m) recv_hit_s += s;
    return m;
  }
  rbvc::net::ProcessId self() const override { return inner_.self(); }
  std::size_t size() const override { return inner_.size(); }
  bool closed() const override { return inner_.closed(); }

  double send_s = 0.0;
  double recv_s = 0.0;      // every receive() call, idle polls included
  double recv_hit_s = 0.0;  // receive() calls that returned a message
  std::vector<rbvc::net::Message> captured;  // sent messages, for the codec

 private:
  rbvc::net::Transport& inner_;
  const std::atomic<bool>& measuring_;
};

struct NodeTimes {
  double step_s = 0.0;
};

/// A running cluster: transports, optional decorators, nodes and their
/// step() loops (the body of ConsensusNode::serve, timed when traced).
class Cluster {
 public:
  explicit Cluster(bool traced) {
    tcp_ = rbvc::net::TcpTransport::make_local_cluster(kNodes + 1);
    for (std::size_t id = 0; id < kNodes; ++id) {
      tcp_[id]->wait_connected(kNodes, 10000);
    }
    rbvc::net::ConsensusNode::Params p;
    p.prm.n = kNodes;
    p.prm.f = kFaults;
    p.prm.rounds = 2;
    p.prm.rule = rbvc::consensus::AsyncAveragingProcess::Round0Rule::kRelaxedL2;
    times_.resize(kNodes);
    for (std::size_t id = 0; id < kNodes; ++id) {
      rbvc::net::Transport* t = tcp_[id].get();
      if (traced) {
        timed_.push_back(std::make_unique<TimedTransport>(*t, measuring_));
        t = timed_.back().get();
      }
      nodes_.push_back(std::make_unique<rbvc::net::ConsensusNode>(p, *t));
    }
    for (std::size_t id = 0; id < kNodes; ++id) {
      threads_.emplace_back([this, id, traced] {
        rbvc::net::ConsensusNode& node = *nodes_[id];
        while (!stop_.load(std::memory_order_acquire) && !node.crashed() &&
               !node.transport().closed()) {
          if (traced && measuring_.load(std::memory_order_acquire)) {
            const Clock::time_point a = Clock::now();
            node.step(kPollMs);
            times_[id].step_s += seconds_since(a);
          } else {
            node.step(kPollMs);
          }
        }
      });
    }
    client_ = std::make_unique<rbvc::net::ClusterClient>(*tcp_[kNodes], kNodes);
  }
  ~Cluster() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
    for (auto& t : tcp_) t->close();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  rbvc::net::ClusterClient& client() { return *client_; }
  /// Raised by the load loop for the measured window only.
  std::atomic<bool>& measuring() { return measuring_; }
  const std::vector<std::unique_ptr<TimedTransport>>& timed() const {
    return timed_;
  }
  /// Node step times; read only after stop().
  const std::vector<NodeTimes>& times() const { return times_; }
  void stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

 private:
  std::vector<std::unique_ptr<rbvc::net::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<TimedTransport>> timed_;
  std::vector<std::unique_ptr<rbvc::net::ConsensusNode>> nodes_;
  std::vector<NodeTimes> times_;
  std::atomic<bool> measuring_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // declared after what they use
  std::unique_ptr<rbvc::net::ClusterClient> client_;
};

/// Seeded per-instance inputs: three honest Gaussian inputs and one
/// outlier. The outlier's node rotates with the instance id, so no node
/// thread's speed decides how often the outlier reaches the views.
class InputStream {
 public:
  explicit InputStream(std::uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0xC1u) {}
  static std::size_t outlier_node(int instance) {
    return static_cast<std::size_t>(instance) % kNodes;
  }
  std::vector<rbvc::Vec> next(int instance) {
    std::vector<rbvc::Vec> in = rbvc::workload::gaussian_cloud(rng_, 3, 2);
    rbvc::Vec outlier = rng_.normal_vec(2);
    for (double& x : outlier) x *= 25.0;
    in.insert(in.begin() + static_cast<std::ptrdiff_t>(outlier_node(instance)),
              std::move(outlier));
    return in;
  }

 private:
  rbvc::Rng rng_;
};

struct Flying {
  Clock::time_point started;
  InstanceRecord rec;
};

struct LoadResult {
  std::vector<double> latencies_ms;  // decided inside the window
  std::vector<double> end_s;         // their decide times, from window start
  std::size_t decided = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ObsSnapshot obs;
  std::vector<InstanceRecord> records;  // every instance launched
};

/// Closed loop: keeps kWindow instances unresolved, proposing a new one as
/// each resolves (quorum of ok decisions, every node reported without a
/// quorum, or the stall deadline). Runs `ops` decided instances when
/// nonzero, else until `seconds` pass; then stops proposing and waits for
/// every node's report of every instance (up to the stall deadline).
/// `measuring`, when given, is raised for exactly the measured window.
LoadResult drive(rbvc::net::ClusterClient& client, InputStream& in,
                 int& next_instance, double seconds, std::size_t ops,
                 std::atomic<bool>* measuring = nullptr) {
  LoadResult res;
  std::map<int, Flying> flying;  // every instance, for late reports
  std::set<int> open;            // the unresolved ones
  std::size_t reports = 0;       // over every instance in `flying`
  const ObsSnapshot before = ObsSnapshot::take();
  const Usage u0 = Usage::now();
  const Clock::time_point t0 = Clock::now();
  if (measuring) measuring->store(true, std::memory_order_release);
  bool window_open = true;
  Clock::time_point stall_check = t0;
  auto launch = [&] {
    const int id = next_instance++;
    Flying& f = flying[id];
    std::vector<rbvc::Vec> inputs = in.next(id);
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i != InputStream::outlier_node(id)) {
        f.rec.honest_inputs.push_back(inputs[i]);
      }
    }
    f.started = Clock::now();
    client.propose(id, inputs);
    open.insert(id);
  };
  for (;;) {
    if (window_open && (ops ? res.decided >= ops : seconds_since(t0) >= seconds)) {
      window_open = false;
      if (measuring) measuring->store(false, std::memory_order_release);
      res.wall_s = seconds_since(t0);
      res.cpu_s = Usage::now().cpu_s - u0.cpu_s;
      res.obs = ObsSnapshot::take().minus(before);
    }
    if (window_open) {
      while (open.size() < kWindow) launch();
    } else if (open.empty()) {
      break;
    }
    // Deadlines are checked even while other instances keep deciding, so
    // a stalled instance cannot hold a window slot unnoticed.
    if (seconds_since(stall_check) > 0.05) {
      stall_check = Clock::now();
      for (auto it = open.begin(); it != open.end();) {
        Flying& f = flying[*it];
        if (seconds_since(f.started) > kStallS) {
          f.rec.stalled = true;
          it = open.erase(it);
        } else {
          ++it;
        }
      }
    }
    auto ev = client.next_decision(50);
    if (!ev) continue;
    auto it = flying.find(ev->instance);
    if (it == flying.end()) continue;
    Flying& f = it->second;
    ++reports;
    ++f.rec.reports;
    if (ev->ok) f.rec.decisions.push_back(std::move(ev->value));
    if (!open.count(ev->instance)) continue;  // late report, kept for checks
    if (f.rec.decisions.size() >= kQuorum) {
      open.erase(ev->instance);
      if (window_open) {
        res.latencies_ms.push_back(1e3 * seconds_since(f.started));
        res.end_s.push_back(seconds_since(t0));
        ++res.decided;
      }
    } else if (f.rec.reports >= kNodes) {
      open.erase(ev->instance);  // every node reported; quorum missed
    }
  }
  // Every node reports every instance once: collect the reports still
  // owed (the last decisions of the last instances) or give up at the
  // stall deadline, after which the checker fails what is missing.
  const Clock::time_point drain = Clock::now();
  while (reports < kNodes * flying.size() && seconds_since(drain) < kStallS) {
    auto ev = client.next_decision(20);
    if (!ev) continue;
    auto it = flying.find(ev->instance);
    if (it == flying.end()) continue;
    ++reports;
    ++it->second.rec.reports;
    if (ev->ok) it->second.rec.decisions.push_back(std::move(ev->value));
  }
  res.records.reserve(flying.size());
  for (auto& [id, f] : flying) res.records.push_back(std::move(f.rec));
  return res;
}

/// Proposes one instance and waits for a quorum of ok decisions: the end
/// of a set-up. Its remaining report arrives later and is ignored.
void first_decision(rbvc::net::ClusterClient& client, InputStream& in,
                    int& next_instance) {
  const int id = next_instance++;
  client.propose(id, in.next(id));
  const Clock::time_point t0 = Clock::now();
  std::size_t ok = 0;
  while (ok < kQuorum) {
    if (seconds_since(t0) > kStallS) {
      throw std::runtime_error("cluster_tcp: set-up instance did not decide");
    }
    auto ev = client.next_decision(50);
    if (ev && ev->instance == id && ev->ok) ++ok;
  }
}

struct ClusterRun {
  LoadResult load;
  std::vector<double> setup_s;
  // Traced runs only.
  std::vector<double> step_s, recv_s, recv_hit_s, send_s;
  std::vector<rbvc::net::Message> captured;
};

/// Set-up (TCP mesh, nodes, and one instance up to its quorum of
/// decisions; repeated `setups` times, the last cluster kept), warm-up,
/// then the measured window.
ClusterRun run_cluster(const Options& opt, double seconds, bool traced,
                    int setups) {
  ClusterRun s;
  std::unique_ptr<Cluster> cluster;
  InputStream warm_in(opt.seed ^ 0x5EEDu);
  int next_instance = 0;
  for (int k = 0; k < setups; ++k) {
    cluster.reset();
    const Clock::time_point t0 = Clock::now();
    cluster = std::make_unique<Cluster>(traced);
    next_instance = 0;
    first_decision(cluster->client(), warm_in, next_instance);
    s.setup_s.push_back(seconds_since(t0));
  }
  (void)drive(cluster->client(), warm_in, next_instance, 0.0, kWarmupInstances);
  InputStream in(opt.seed);
  s.load = drive(cluster->client(), in, next_instance, seconds, opt.ops,
                 &cluster->measuring());
  cluster->stop();
  if (traced) {
    for (std::size_t id = 0; id < kNodes; ++id) {
      const TimedTransport& t = *cluster->timed()[id];
      s.step_s.push_back(cluster->times()[id].step_s);
      s.recv_s.push_back(t.recv_s);
      s.recv_hit_s.push_back(t.recv_hit_s);
      s.send_s.push_back(t.send_s);
      s.captured.insert(s.captured.end(), t.captured.begin(), t.captured.end());
    }
  }
  return s;
}

void check(const LoadResult& l, Tally& t) {
  for (const InstanceRecord& r : l.records) {
    check_instance(r, kNodes, kEps, kKappa, t);
  }
}

}  // namespace

Report run_cluster_tcp(const Options& opt) {
  Report rep;
  Tally tally;
  if (!opt.trace) {
    ClusterRun s = run_cluster(opt, opt.seconds, false, 31);
    check(s.load, tally);
    EndToEnd e;
    e.tail = TailSpec{0.95, "p95"};
    e.ops = s.load.decided;
    e.windows = 10;
    e.wall_s = s.load.wall_s;
    e.end_s = s.load.end_s;
    e.latencies_ms = s.load.latencies_ms;
    e.cpu_s = s.load.cpu_s;
    e.delta_ratio_mean = tally.ratio_mean();
    e.attempted = tally.attempted;
    e.failed = tally.failed;
    e.setup_s = s.setup_s;
    fill_end_to_end(e, rep);
  } else {
    const double half = opt.seconds / 2.0;
    ClusterRun b = run_cluster(opt, half, false, 1);
    check(b.load, tally);
    ClusterRun s = run_cluster(opt, half, true, 1);
    check(s.load, tally);
    const LoadResult& l = s.load;
    const double ops = static_cast<double>(std::max<std::size_t>(l.decided, 1));
    LayerMetrics lm;
    fill_counter_layers(l.obs, ops, lm);
    double step = 0, recv = 0, hit = 0, send = 0, busy_max = 0;
    for (std::size_t id = 0; id < kNodes; ++id) {
      step += s.step_s[id];
      recv += s.recv_s[id];
      hit += s.recv_hit_s[id];
      send += s.send_s[id];
      busy_max = std::max(busy_max, (s.step_s[id] - s.recv_s[id]) / l.wall_s);
    }
    lm.set("net.send_us_per_op", 1e6 * send / ops);
    lm.set("net.recv_us_per_op", 1e6 * hit / ops);
    lm.set("net.codec_us_per_frame", codec_us_per_frame(s.captured, 0.2));
    lm.set("consensus.step_busy_us_per_op", 1e6 * (step - recv) / ops);
    lm.set("consensus.step_idle_frac", step > 0 ? recv / step : 0.0);
    lm.set("consensus.node_busy_frac_max", busy_max);

    std::vector<std::vector<rbvc::Vec>> inputs;
    for (std::size_t k = 0; k < l.records.size() && k < 256; ++k) {
      inputs.push_back(l.records[k].honest_inputs);
    }
    set_unit_costs(lm, inputs, {}, 1, 0.2);

    const double base_ops_s =
        static_cast<double>(b.load.decided) / b.load.wall_s;
    const double traced_ops_s = static_cast<double>(l.decided) / l.wall_s;
    lm.set("obs.trace_overhead_pct", overhead_pct(base_ops_s, traced_ops_s));

    const double op_us = 1e6 * step / ops;
    const double recv_us = 1e6 * recv / ops;
    const double send_us = 1e6 * send / ops;
    const double hull_us = 1e6 * l.obs.seconds("geom.delta_star.seconds") / ops;
    const double lp_us = 1e6 * l.obs.seconds("lp.seconds") / ops;
    set_exclusive(rep, "node step() time per decided instance, 4 nodes",
                  op_us,
                  {{"net.recv", "measured (decorator)", recv_us, recv_us},
                   {"net.send", "measured (decorator)", send_us, send_us},
                   {"hull.delta_star", "measured (timer)", hull_us,
                    hull_us - lp_us},
                   {"lp", "measured (timer)", lp_us, lp_us}},
                  recv_us + send_us + hull_us);
    lm.emit(rep);
    rep.attempted = tally.attempted;
    rep.failed = tally.failed;
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "traced half: %zu decided, %.4f ops/s; untraced half: %zu "
                  "decided, %.4f ops/s; net.recv includes idle polls; the "
                  "residual is consensus + protocols handling",
                  l.decided, traced_ops_s, b.load.decided, base_ops_s);
    rep.notes.push_back(buf);
  }
  for (const std::string& why : tally.failures) rep.notes.push_back("FAILED: " + why);
  rep.correct = tally.failed == 0 && tally.attempted > 0;
  return rep;
}

}  // namespace perfbench
