// Microbenchmarks for the DFS control plane: Algorithm 1 updates, write-
// target selection, factor checks, the NameNode's liveness/estimate sweeps
// over a grown namespace, one auditor sweep of the replica indices, and a
// full simulated job as an end-to-end throughput number.
#include <benchmark/benchmark.h>

#include <optional>

#include "audit/auditor.hpp"
#include "cluster/cluster.hpp"
#include "dfs/dfs.hpp"
#include "dfs/namenode.hpp"
#include "dfs/throttle.hpp"
#include "experiment/scenario.hpp"

namespace {

using namespace moon;

void BM_ThrottleUpdate(benchmark::State& state) {
  dfs::ThrottleState throttle(10, 0.1);
  Rng rng{1};
  double bw = 50.0;
  for (auto _ : state) {
    bw = std::max(1.0, bw + rng.normal(0.0, 5.0));
    benchmark::DoNotOptimize(throttle.update(bw));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThrottleUpdate);

struct DfsBed {
  sim::Simulation sim{1};
  cluster::Cluster cluster{sim};
  std::unique_ptr<dfs::Dfs> dfs;
  std::vector<NodeId> volatiles;

  DfsBed() {
    cluster::NodeConfig vcfg;
    volatiles = cluster.add_nodes(60, vcfg);
    cluster::NodeConfig dcfg;
    dcfg.type = cluster::NodeType::kDedicated;
    cluster.add_nodes(6, dcfg);
    dfs = std::make_unique<dfs::Dfs>(sim, cluster, dfs::DfsConfig{}, 1);
    dfs->start();
  }
};

void BM_PickWriteTargets(benchmark::State& state) {
  DfsBed bed;
  auto& nn = bed.dfs->namenode();
  const FileId f = nn.create_file("x", dfs::FileKind::kOpportunistic, {1, 3});
  nn.add_block(f, mib(64.0));
  Rng rng{2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn.pick_write_targets(f, bed.volatiles[0], rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PickWriteTargets);

void BM_BlockFactorCheck(benchmark::State& state) {
  DfsBed bed;
  const FileId f = bed.dfs->stage_file("x", dfs::FileKind::kReliable, {1, 3},
                                       64 * mib(64.0));
  auto& nn = bed.dfs->namenode();
  const auto& blocks = nn.file(f).blocks;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn.block_meets_factor(blocks[i % blocks.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockFactorCheck);

void BM_StageLargeFile(benchmark::State& state) {
  for (auto _ : state) {
    DfsBed bed;
    const FileId f = bed.dfs->stage_file("input", dfs::FileKind::kReliable,
                                         {1, 3}, gib(24.0));
    benchmark::DoNotOptimize(bed.dfs->namenode().file(f).blocks.size());
  }
}
BENCHMARK(BM_StageLargeFile);

/// The NameNode's periodic sweeps over a namespace grown the way a long job
/// stream grows it: 20k single-block files (88% reliable, the rest
/// opportunistic, a handful with a raised adaptive v'), about 5.7k blocks
/// per live volatile node. Three volatile nodes stay silent so the
/// unavailability estimate keeps v' above the configured v. One iteration
/// is 30 simulated seconds: three liveness scans (the victim node hibernates,
/// then dies, and its sweeps re-queue its blocks), one estimate scan
/// (adaptive-v' refresh), and the victim's revival.
void BM_NameNodeSweeps(benchmark::State& state) {
  sim::Simulation sim{1};
  cluster::Cluster cluster{sim};
  cluster::NodeConfig vcfg;
  const std::vector<NodeId> volatiles = cluster.add_nodes(10, vcfg);
  cluster::NodeConfig dcfg;
  dcfg.type = cluster::NodeType::kDedicated;
  const std::vector<NodeId> dedicated = cluster.add_nodes(2, dcfg);
  dfs::DfsConfig cfg;
  cfg.throttle_window = 2;
  cfg.availability_goal = 0.99;
  cfg.liveness_scan_interval = 10 * sim::kSecond;
  cfg.hibernate_interval = 15 * sim::kSecond;
  cfg.expiry_interval = 25 * sim::kSecond;
  cfg.estimate_interval = 30 * sim::kSecond;
  dfs::NameNode nn(sim, cluster, cfg);
  for (NodeId id : cluster.all_nodes()) nn.register_datanode(id);
  nn.start();
  const std::vector<NodeId> live(volatiles.begin(), volatiles.begin() + 7);
  const NodeId victim = live.front();
  // Heartbeats from every live node but `skip`, then one scan interval.
  const auto beat_and_scan = [&](std::optional<NodeId> skip) {
    for (NodeId n : live) {
      if (n != skip) nn.heartbeat(n, 100.0);
    }
    for (NodeId d : dedicated) nn.heartbeat(d, 100.0);
    sim.run_until(sim.now() + cfg.liveness_scan_interval);
  };
  for (int i = 0; i < 12; ++i) beat_and_scan(std::nullopt);  // p settles

  // Saturate the dedicated tier so opportunistic writes are declined.
  for (NodeId d : dedicated) nn.heartbeat(d, 104.0);
  Rng rng{7};
  for (int i = 0; i < 20000; ++i) {
    const bool reliable = i % 25 >= 3;
    const bool adaptive = i % 4000 == 0;
    const FileId f = nn.create_file(
        "f", reliable ? dfs::FileKind::kReliable : dfs::FileKind::kOpportunistic,
        {1, 2});
    const BlockId b = nn.add_block(f, mib(2.0));
    if (adaptive) nn.pick_write_targets(f, live[1], rng);
    const std::size_t v = static_cast<std::size_t>(i) % live.size();
    nn.commit_replica(b, live[v]);
    nn.commit_replica(b, live[(v + 1) % live.size()]);
    nn.commit_replica(b, adaptive ? live[(v + 2) % live.size()]
                                  : dedicated[static_cast<std::size_t>(i) % 2]);
  }

  const dfs::DfsStats before = nn.stats();
  for (auto _ : state) {
    beat_and_scan(victim);
    beat_and_scan(victim);  // hibernation sweep
    beat_and_scan(victim);  // death sweep + estimate scan
    nn.heartbeat(victim, 100.0);
  }
  const auto per_iteration = [&](std::int64_t n) {
    return benchmark::Counter(static_cast<double>(n),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["hibernations"] = per_iteration(
      nn.stats().hibernate_transitions - before.hibernate_transitions);
  state.counters["deaths"] =
      per_iteration(nn.stats().dead_transitions - before.dead_transitions);
  state.counters["v_prime"] = nn.adaptive_volatile_requirement();
}
BENCHMARK(BM_NameNodeSweeps)->Unit(benchmark::kMicrosecond);

/// One auditor sweep (DESIGN.md §13) over a staged namespace about the size
/// `chaos_failover` audits every 10 s: 2,500 blocks with 7,500 replicas on
/// 66 nodes, in ten reliable files (1 dedicated + 2 volatile copies) and
/// ten opportunistic ones (3 volatile copies). Only the DFS check runs.
void BM_AuditSweep(benchmark::State& state) {
  DfsBed bed;
  for (int i = 0; i < 10; ++i) {
    bed.dfs->stage_blocks("r", dfs::FileKind::kReliable, {1, 2}, 150,
                          mib(64.0));
    bed.dfs->stage_blocks("o", dfs::FileKind::kOpportunistic, {0, 3}, 100,
                          mib(64.0));
  }
  audit::Auditor auditor(&bed.cluster, bed.dfs.get(), nullptr);
  for (auto _ : state) {
    if (!auditor.run().empty()) state.SkipWithError("audit violation");
  }
  std::size_t replicas = 0;
  for (const dfs::BlockMeta& meta : bed.dfs->namenode().all_blocks()) {
    replicas += meta.replicas.size();
  }
  state.counters["replicas"] = static_cast<double>(replicas);
}
BENCHMARK(BM_AuditSweep)->Unit(benchmark::kMicrosecond);

/// End-to-end: one simulated sleep(sort)-style job on 22 nodes. This is the
/// unit of work every figure bench repeats dozens of times.
void BM_SimulatedJob(benchmark::State& state) {
  for (auto _ : state) {
    experiment::ScenarioConfig cfg;
    cfg.volatile_nodes = 20;
    cfg.dedicated_nodes = 2;
    cfg.app = workload::sleep_of(workload::sort_workload());
    cfg.app.num_maps = 64;
    cfg.app.input_size = 64 * kKiB;
    cfg.sched = experiment::moon_scheduler(true);
    cfg.dfs = experiment::moon_dfs_config();
    cfg.intermediate_kind = dfs::FileKind::kReliable;
    cfg.intermediate_factor = {1, 1};
    cfg.unavailability_rate = 0.3;
    cfg.seed = static_cast<std::uint64_t>(state.iterations()) + 1;
    const auto result = experiment::run_scenario(cfg);
    benchmark::DoNotOptimize(result.execution_time_s);
  }
}
BENCHMARK(BM_SimulatedJob)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
