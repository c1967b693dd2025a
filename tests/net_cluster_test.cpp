// Cluster runtime end to end: ConsensusNode + ClusterClient deciding
// pipelined instance streams over LocalBus and TCP (including a
// crash-faulted node), and the sync-round driver running DolevStrong / ALGO
// over an asynchronous transport with a differential against the sim
// engine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "consensus/algo_relaxed.h"
#include "net/admin.h"
#include "net/load.h"
#include "net/local_bus.h"
#include "net/node.h"
#include "net/sync_driver.h"
#include "net/tcp_transport.h"
#include "obs/events.h"
#include "protocols/dolev_strong.h"
#include "sim/rng.h"
#include "sim/sync_engine.h"
#include "workload/generators.h"

namespace {

using rbvc::Vec;
using rbvc::consensus::AlgoProcess;
using rbvc::net::Batch;
using rbvc::net::ClusterClient;
using rbvc::net::ConsensusNode;
using rbvc::net::LoadOptions;
using rbvc::net::LocalBus;
using rbvc::net::TcpTransport;
using rbvc::net::Transport;
using rbvc::net::run_pipelined_load;
using rbvc::net::run_sync_over_transport;
using rbvc::protocols::DolevStrongProcess;
using rbvc::sim::Message;
using rbvc::sim::ProcessId;

ConsensusNode::Params node_params(std::size_t n, std::size_t f) {
  ConsensusNode::Params p;
  p.prm.n = n;
  p.prm.f = f;
  p.prm.rounds = 2;
  return p;
}

struct NodeFleet {
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<ConsensusNode>> nodes;
  std::vector<std::thread> threads;

  void add(ConsensusNode::Params params, Transport& t) {
    start(std::make_unique<ConsensusNode>(params, t));
  }
  void start(std::unique_ptr<ConsensusNode> node) {
    nodes.push_back(std::move(node));
    threads.emplace_back([this, node = nodes.back().get()] {
      node->serve(stop);
    });
  }
  void shutdown() {
    stop.store(true);
    for (auto& t : threads) t.join();
    threads.clear();
  }
  ~NodeFleet() { shutdown(); }
};

TEST(ClusterTest, PipelinedInstancesOverLocalBus) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);  // nodes 0..3, client 4
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    fleet.add(node_params(kN, 1), bus.endpoint(id));
  }
  ClusterClient client(bus.endpoint(kN), kN);

  LoadOptions opt;
  opt.nodes = kN;
  opt.instances = 6;
  opt.window = 3;
  opt.quorum = kN;  // all nodes alive: demand unanimity
  opt.dim = 2;
  opt.seed = 11;
  opt.decision_timeout_ms = 30000;
  const auto res = run_pipelined_load(client, opt);
  EXPECT_FALSE(res.stalled);
  EXPECT_EQ(res.decided, opt.instances);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_EQ(res.latencies_ms.size(), opt.instances);
  fleet.shutdown();
  std::size_t proposed = 0;
  for (const auto& n : fleet.nodes) proposed += n->stats().proposed;
  EXPECT_EQ(proposed, kN * opt.instances);
}

TEST(ClusterTest, DecisionsStayNearTheInputs) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    fleet.add(node_params(kN, 1), bus.endpoint(id));
  }
  ClusterClient client(bus.endpoint(kN), kN);
  // All inputs inside the unit box; every decision must stay within the
  // box inflated by the relaxation (loose bound: one box width).
  const std::vector<Vec> inputs{
      {0.1, 0.2}, {0.9, 0.4}, {0.3, 0.8}, {0.6, 0.6}};
  client.propose(0, inputs);
  std::map<ProcessId, Vec> decisions;
  while (decisions.size() < kN) {
    auto ev = client.next_decision(30000);
    ASSERT_TRUE(ev.has_value()) << "cluster stalled";
    ASSERT_TRUE(ev->ok);
    decisions[ev->node] = ev->value;
  }
  for (const auto& [node, v] : decisions) {
    ASSERT_EQ(v.size(), 2u);
    for (const double x : v) {
      EXPECT_GE(x, -1.0) << "node " << node;
      EXPECT_LE(x, 2.0) << "node " << node;
    }
  }
}

TEST(ClusterTest, CrashFaultedNodeDoesNotStallTheCluster) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    auto params = node_params(kN, 1);
    if (id == 3) params.crash_after_decided = 2;  // the crash-faulted node
    fleet.add(params, bus.endpoint(id));
  }
  ClusterClient client(bus.endpoint(kN), kN);

  LoadOptions opt;
  opt.nodes = kN;
  opt.instances = 8;
  opt.window = 2;
  opt.quorum = kN - 1;  // f = 1: three ok decisions resolve an instance
  opt.dim = 2;
  opt.seed = 23;
  opt.decision_timeout_ms = 30000;
  const auto res = run_pipelined_load(client, opt);
  EXPECT_FALSE(res.stalled);
  EXPECT_EQ(res.decided, opt.instances);
  fleet.shutdown();
  EXPECT_TRUE(fleet.nodes[3]->crashed());
}

// Forwards to an endpoint and watches what its node does once crashed:
// every message receive() returns is one the node goes on to handle.
class CrashProbe final : public Transport {
 public:
  explicit CrashProbe(Transport& inner) : inner_(inner) {}

  void send(ProcessId to, Message m) override { inner_.send(to, std::move(m)); }
  void send_batch(Batch batch) override {
    if (node->crashed()) {
      ++batches_after_crash;
      for (const auto& [to, m] : batch) {
        if (m.kind == "decided") ++replies_after_crash;
      }
    }
    inner_.send_batch(std::move(batch));
  }
  std::optional<Message> receive(int timeout_ms) override {
    auto m = inner_.receive(timeout_ms);
    if (m && node->crashed()) ++received_after_crash;
    return m;
  }
  ProcessId self() const override { return inner_.self(); }
  std::size_t size() const override { return inner_.size(); }

  // Set before the node serves; the counters are read after it stops.
  const ConsensusNode* node = nullptr;
  std::size_t batches_after_crash = 0;
  std::size_t replies_after_crash = 0;
  std::size_t received_after_crash = 0;

 private:
  Transport& inner_;
};

// The step that reaches the crash point ends its burst there, yet still
// sends what it produced up to that point, the "decided" reply included.
TEST(ClusterTest, CrashPointEndsTheBurstAfterItsReplyIsSent) {
  constexpr std::size_t kN = 4, kInstances = 6;
  LocalBus bus(kN + 1);
  NodeFleet fleet;
  for (ProcessId id = 0; id + 1 < kN; ++id) {
    fleet.add(node_params(kN, 1), bus.endpoint(id));
  }
  CrashProbe probe(bus.endpoint(kN - 1));
  auto params = node_params(kN, 1);
  params.crash_after_decided = 1;
  auto crashing = std::make_unique<ConsensusNode>(params, probe);
  probe.node = crashing.get();
  fleet.start(std::move(crashing));

  // Every instance in flight at once, so the crashing node's queue holds
  // other instances' traffic behind its crash point.
  ClusterClient client(bus.endpoint(kN), kN);
  rbvc::Rng rng(17);
  for (int i = 0; i < static_cast<int>(kInstances); ++i) {
    client.propose(i, rbvc::workload::gaussian_cloud(rng, kN, 2));
  }
  std::size_t from_live = 0, from_crashed = 0;
  while (from_live < (kN - 1) * kInstances || from_crashed == 0) {
    auto ev = client.next_decision(30000);
    ASSERT_TRUE(ev.has_value()) << "no reply from the crashing node";
    ++(ev->node == kN - 1 ? from_crashed : from_live);
  }
  while (client.next_decision(200)) ++from_crashed;
  fleet.shutdown();

  const ConsensusNode& node = *fleet.nodes[kN - 1];
  ASSERT_TRUE(node.crashed());
  EXPECT_EQ(node.stats().decided + node.stats().failed, 1u);
  EXPECT_EQ(from_crashed, 1u);
  EXPECT_EQ(probe.batches_after_crash, 1u);
  EXPECT_EQ(probe.replies_after_crash, 1u);
  EXPECT_EQ(probe.received_after_crash, 0u);
}

// Once its decision is reported, an instance's protocol state is freed: a
// late propose must not restart it and a straggler must not be backlogged.
TEST(ClusterTest, ReportedInstanceIgnoresLateProposeAndStragglers) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    fleet.add(node_params(kN, 1), bus.endpoint(id));
  }
  ClusterClient client(bus.endpoint(kN), kN);
  client.propose(0, {{0.1, 0.2}, {0.9, 0.4}, {0.3, 0.8}, {0.6, 0.6}});
  for (std::size_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(client.next_decision(30000).has_value()) << "cluster stalled";
  }
  const auto& live = fleet.nodes[0]->live();
  const auto backlogged = live.backlogged.load();
  const auto dropped = live.dropped.load();

  Transport& raw = bus.endpoint(kN);
  raw.send(0, Message("propose", {0}, Vec{5.0, 5.0}));
  raw.send(0, Message("rbc", {0, 0, 0, 0}, Vec{5.0, 5.0}));
  raw.send(0, Message("decided", {}));  // dropped: marks the two as handled
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live.dropped.load() == dropped &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(live.dropped.load(), dropped + 1);
  EXPECT_EQ(live.proposed.load(), 1u);
  EXPECT_EQ(live.backlogged.load(), backlogged);
  EXPECT_FALSE(client.next_decision(200).has_value());
  fleet.shutdown();
  EXPECT_EQ(fleet.nodes[0]->stats().decided, 1u);
}

TEST(ClusterTest, PipelinedInstancesOverTcp) {
  constexpr std::size_t kN = 4;
  auto cluster = TcpTransport::make_local_cluster(kN + 1);
  for (ProcessId id = 0; id < kN; ++id) {
    cluster[id]->wait_connected(kN - 1, 10000);
  }
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    fleet.add(node_params(kN, 1), *cluster[id]);
  }
  ClusterClient client(*cluster[kN], kN);

  LoadOptions opt;
  opt.nodes = kN;
  opt.instances = 4;
  opt.window = 2;
  opt.quorum = kN - 1;
  opt.dim = 2;
  opt.seed = 31;
  opt.decision_timeout_ms = 30000;
  const auto res = run_pipelined_load(client, opt);
  EXPECT_FALSE(res.stalled);
  EXPECT_EQ(res.decided, opt.instances);
  fleet.shutdown();
  for (auto& t : cluster) t->close();
}

// --- sync driver -----------------------------------------------------------

Vec mean_decision(const std::vector<Vec>& vs) {
  Vec out(vs.at(0).size(), 0.0);
  for (const auto& v : vs) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += v[i];
  }
  for (auto& x : out) x /= static_cast<double>(vs.size());
  return out;
}

// DolevStrong (authenticated, sync) over LocalBus must resolve the same
// inputs and decision as the lockstep sim engine: the round driver's
// barriers reconstruct the synchronous model exactly.
TEST(SyncDriverTest, DolevStrongDifferentialAgainstSim) {
  constexpr std::size_t kN = 3, kF = 1;
  rbvc::sim::SignatureAuthority authority(99);
  const std::vector<Vec> inputs{{1.0, 2.0}, {3.0, -1.0}, {0.5, 0.5}};
  const Vec dflt{0.0, 0.0};

  // Reference sim run.
  std::vector<Vec> sim_decisions(kN);
  {
    rbvc::sim::SyncEngine eng;
    for (ProcessId id = 0; id < kN; ++id) {
      eng.add(std::make_unique<DolevStrongProcess>(
          kN, kF, id, inputs[id], dflt, mean_decision,
          authority.signer_for(id), &authority));
    }
    const auto stats = eng.run(DolevStrongProcess::rounds_needed(kF));
    ASSERT_TRUE(stats.all_decided);
    for (ProcessId id = 0; id < kN; ++id) {
      sim_decisions[id] =
          dynamic_cast<DolevStrongProcess&>(eng.process(id)).decision();
    }
  }

  LocalBus bus(kN);
  std::vector<Vec> net_decisions(kN);
  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN; ++id) {
    threads.emplace_back([&, id] {
      DolevStrongProcess p(kN, kF, id, inputs[id], dflt, mean_decision,
                           authority.signer_for(id), &authority);
      rbvc::net::SyncDriverOptions opts;
      opts.max_rounds = DolevStrongProcess::rounds_needed(kF);
      const auto res = run_sync_over_transport(p, bus.endpoint(id), opts);
      EXPECT_TRUE(res.decided) << "endpoint " << id;
      EXPECT_EQ(res.timeouts, 0u) << "endpoint " << id;
      net_decisions[id] = p.decision();
    });
  }
  for (auto& t : threads) t.join();
  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_EQ(net_decisions[id], sim_decisions[id]) << "process " << id;
  }
}

// A silent (crashed) participant costs one barrier timeout per round and
// resolves to the default value -- every live process still decides, and
// identically.
TEST(SyncDriverTest, SilentPeerTimesOutToDefault) {
  constexpr std::size_t kN = 3, kF = 1;
  rbvc::sim::SignatureAuthority authority(7);
  const std::vector<Vec> inputs{{2.0}, {4.0}, {100.0}};  // 2 never speaks
  const Vec dflt{0.0};

  LocalBus bus(kN);
  std::vector<Vec> resolved0;
  std::vector<Vec> decisions(kN - 1);
  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN - 1; ++id) {
    threads.emplace_back([&, id] {
      DolevStrongProcess p(kN, kF, id, inputs[id], dflt, mean_decision,
                           authority.signer_for(id), &authority);
      rbvc::net::SyncDriverOptions opts;
      opts.max_rounds = DolevStrongProcess::rounds_needed(kF);
      opts.round_timeout_ms = 400;
      const auto res = run_sync_over_transport(p, bus.endpoint(id), opts);
      EXPECT_TRUE(res.decided) << "endpoint " << id;
      EXPECT_GT(res.timeouts, 0u) << "endpoint " << id;
      decisions[id] = p.decision();
      if (id == 0) resolved0 = p.resolved_inputs();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(decisions[0], decisions[1]);
  ASSERT_EQ(resolved0.size(), kN);
  EXPECT_EQ(resolved0[0], inputs[0]);
  EXPECT_EQ(resolved0[1], inputs[1]);
  EXPECT_EQ(resolved0[2], dflt);  // the silent peer resolves to default
}

// ALGO's EIG core (unauthenticated, n >= 3f+1) over the transport: all
// correct processes reach the identical relaxed decision, matching the sim.
TEST(SyncDriverTest, AlgoOverLocalBusMatchesSim) {
  constexpr std::size_t kN = 4, kF = 1;
  const std::vector<Vec> inputs{
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const Vec dflt{0.0, 0.0};

  std::vector<Vec> sim_decisions(kN);
  {
    rbvc::sim::SyncEngine eng;
    for (ProcessId id = 0; id < kN; ++id) {
      eng.add(std::make_unique<AlgoProcess>(kN, kF, id, inputs[id], dflt));
    }
    const auto stats = eng.run(AlgoProcess::rounds_needed(kF));
    ASSERT_TRUE(stats.all_decided);
    for (ProcessId id = 0; id < kN; ++id) {
      sim_decisions[id] =
          dynamic_cast<AlgoProcess&>(eng.process(id)).decision();
    }
  }

  LocalBus bus(kN);
  std::vector<Vec> net_decisions(kN);
  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN; ++id) {
    threads.emplace_back([&, id] {
      AlgoProcess p(kN, kF, id, inputs[id], dflt);
      rbvc::net::SyncDriverOptions opts;
      opts.max_rounds = AlgoProcess::rounds_needed(kF);
      const auto res = run_sync_over_transport(p, bus.endpoint(id), opts);
      EXPECT_TRUE(res.decided) << "endpoint " << id;
      net_decisions[id] = p.decision();
    });
  }
  for (auto& t : threads) t.join();
  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_EQ(net_decisions[id], sim_decisions[id]) << "process " << id;
  }
}

// The live-introspection surface: LiveStatus mirrors the serve loop's
// stats, status_json is stable one-line JSON, and the AdminServer answers
// status / metrics / trace over its line protocol while the node serves.
TEST(AdminTest, StatusJsonAndAdminEndpointServeLiveState) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    fleet.add(node_params(kN, 1), bus.endpoint(id));
  }
  // Port 0: kernel-assigned, race-free under parallel ctest.
  rbvc::net::AdminServer admin(*fleet.nodes[0], 0);
  ASSERT_GT(admin.port(), 0);

  ClusterClient client(bus.endpoint(kN), kN);
  LoadOptions opt;
  opt.nodes = kN;
  opt.instances = 4;
  opt.window = 2;
  opt.quorum = kN;
  opt.dim = 2;
  opt.seed = 23;
  opt.decision_timeout_ms = 30000;
  const auto res = run_pipelined_load(client, opt);
  ASSERT_FALSE(res.stalled);
  ASSERT_EQ(res.decided, opt.instances);

  // status: one line of JSON whose counters match the node's own stats.
  const std::string status =
      rbvc::net::admin_query("127.0.0.1", admin.port(), "status");
  const auto& live = fleet.nodes[0]->live();
  EXPECT_EQ(status, fleet.nodes[0]->status_json() + "\n");
  EXPECT_EQ(live.decided.load(), opt.instances);
  EXPECT_NE(status.find("\"decided\":4"), std::string::npos) << status;
  EXPECT_NE(status.find("\"crashed\":0"), std::string::npos) << status;

  // metrics: the registry dump, which always carries the frames counter.
  const std::string metrics =
      rbvc::net::admin_query("127.0.0.1", admin.port(), "metrics");
  EXPECT_NE(metrics.find("net.frames_sent"), std::string::npos);

  // trace: flight-recorder JSONL that parses back (events from this very
  // load run are in it).
  const std::string trace =
      rbvc::net::admin_query("127.0.0.1", admin.port(), "trace");
  const auto events = rbvc::obs::events::parse_jsonl(trace);
  EXPECT_FALSE(events.empty());

  // Unknown commands get a diagnostic, not a hang.
  EXPECT_EQ(rbvc::net::admin_query("127.0.0.1", admin.port(), "bogus"),
            "err unknown command\n");

  admin.close();
  fleet.shutdown();
  // After shutdown the stats and the live mirror agree exactly.
  EXPECT_EQ(fleet.nodes[0]->stats().proposed, live.proposed.load());
  EXPECT_EQ(fleet.nodes[0]->stats().decided, live.decided.load());
  EXPECT_EQ(fleet.nodes[0]->stats().failed, live.failed.load());
}

// Nearest-rank percentile over the whole q range, including the q=0 edge
// whose rank of ceil(0)-1 = -1 must clamp before the size_t cast, not after.
TEST(LoadResultTest, LatencyPercentileClampsAtBothEnds) {
  rbvc::net::LoadResult res;
  EXPECT_EQ(res.latency_percentile(0.5), 0.0);  // empty: defined fallback
  res.latencies_ms = {40.0, 10.0, 30.0, 20.0};  // sorted: 10 20 30 40
  EXPECT_EQ(res.latency_percentile(0.0), 10.0);
  EXPECT_EQ(res.latency_percentile(0.25), 10.0);
  EXPECT_EQ(res.latency_percentile(0.50), 20.0);
  EXPECT_EQ(res.latency_percentile(0.51), 30.0);
  EXPECT_EQ(res.latency_percentile(0.99), 40.0);
  EXPECT_EQ(res.latency_percentile(1.0), 40.0);
}

}  // namespace
