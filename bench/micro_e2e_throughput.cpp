// End-to-end simulation-throughput microbenchmark: eager vs coalesced.
//
// Sweeps {64, 256, 1024}-node clusters × both fairness models and runs the
// identical seeded MOON workload (MOON speculator, indexed scheduler,
// 2 maps/node + n/2 reduces, scripted availability churn — the same shape
// whose 1024-node total_wall_ms motivated this work in
// BENCH_sched_hotpath.json) under two settle-scheduling arms:
//
//   eager      — CoalesceMode::kEager: one full settle per churn event,
//                the pre-coalescing cost profile.
//   coalesced  — CoalesceMode::kCoalesced: churn queues dirty work and the
//                recompute runs once per virtual timestamp via the
//                Simulation's end-of-timestamp flush — the shipping
//                configuration.
//
// The two arms are bit-identical in simulated outcomes (enforced by
// tests/experiment/coalesce_equivalence_test.cpp and re-asserted here on
// launches, completion time, heartbeats, and DFS byte counters; the binary
// exits non-zero on any divergence), so the wall-clock gap is pure
// simulator cost. Each arm also reports the sim::Profiler breakdown
// (settle/recompute, DFS probes, replication scans, heartbeats,
// speculation) and `solved_flows`, the flows the flow solver re-solved
// (FlowNetwork::solved_flows), so the next perf PR starts from
// measurements. Emits BENCH_e2e.json. MOON_BENCH_REPS controls repetitions (best-of);
// MOON_E2E_NODES ("64,256") trims the sweep for smoke runs.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "dfs/dfs.hpp"
#include "mapred/jobtracker.hpp"
#include "simkit/profiler.hpp"
#include "simkit/simulation.hpp"

using namespace moon;

namespace {

struct Flip {
  sim::Time at;
  std::size_t node_index;
  sim::Duration down_for;
};

std::vector<Flip> make_churn(std::uint64_t seed, std::size_t nodes,
                             sim::Duration horizon) {
  Rng rng{seed};
  std::vector<Flip> script;
  sim::Time t = 30 * sim::kSecond;
  const auto step = std::max<sim::Duration>(
      sim::kSecond, 480 * sim::kSecond / static_cast<sim::Duration>(nodes));
  while (t < horizon) {
    t += step + rng.uniform_int(0, static_cast<std::int64_t>(step));
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    script.push_back(Flip{t, n, rng.uniform_int(20, 90) * sim::kSecond});
  }
  return script;
}

struct ArmResult {
  double wall_ms = 0.0;  ///< whole run (setup + sim + control plane)
  bool completed = false;
  sim::Time finished_at = 0;
  int launched = 0;
  int speculative = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t events = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t replication_bytes = 0;
  std::uint64_t solved_flows = 0;
  sim::Profiler::Snapshot profile{};
};

ArmResult run_arm(int nodes, sim::FairnessModel fairness,
                  sim::CoalesceMode coalesce) {
  const auto wall_start = std::chrono::steady_clock::now();  // detlint: allow(wall-clock) -- bench wall metering: measures the simulator itself, never feeds a simulated outcome

  mapred::SchedulerConfig sched;
  sched.tracker_expiry = 30 * sim::kMinute;
  sched.suspension_interval = 30 * sim::kSecond;
  sched.moon_scheduling = true;  // MOON speculator; index_mode stays kIndexed

  sim::Simulation simu(7);
  cluster::Cluster cluster(simu, fairness, sim::SolverMode::kIncremental,
                           coalesce);
  cluster::NodeConfig vcfg;
  vcfg.type = cluster::NodeType::kVolatile;
  const auto volatile_ids =
      cluster.add_nodes(static_cast<std::size_t>(nodes), vcfg);
  cluster::NodeConfig dcfg;
  dcfg.type = cluster::NodeType::kDedicated;
  cluster.add_nodes(static_cast<std::size_t>(std::max(1, nodes / 16)), dcfg);

  dfs::DfsConfig dfs_cfg;
  dfs::Dfs dfs(simu, cluster, dfs_cfg, 5);
  dfs.start();
  mapred::JobTracker jobtracker(simu, cluster, dfs, sched, 5);
  jobtracker.add_all_trackers();
  jobtracker.start();

  const int num_maps = nodes * 2;
  const int num_reduces = nodes / 2;
  const FileId input = dfs.stage_blocks("in", dfs::FileKind::kReliable, {1, 2},
                                        num_maps, kKiB);
  mapred::JobSpec spec;
  spec.name = "e2e_throughput";
  spec.num_maps = num_maps;
  spec.num_reduces = num_reduces;
  spec.input_file = input;
  spec.intermediate_per_map = kKiB;
  spec.output_per_reduce = kKiB;
  spec.map_compute = 100 * sim::kSecond;
  spec.reduce_compute = 60 * sim::kSecond;
  spec.intermediate_kind = dfs::FileKind::kReliable;
  spec.intermediate_factor = {1, 1};
  spec.output_factor = {1, 2};
  const JobId job_id = jobtracker.submit(spec);
  mapred::Job& job = jobtracker.job(job_id);

  const sim::Duration horizon = 15 * sim::kMinute;
  for (const Flip& f :
       make_churn(20100621, static_cast<std::size_t>(nodes), horizon)) {
    if (job.finished()) break;
    if (simu.now() < f.at) simu.run_until(f.at);
    const NodeId victim = volatile_ids[f.node_index];
    if (!cluster.node(victim).available()) continue;
    cluster.node(victim).set_available(false);
    simu.schedule_after(f.down_for, [&cluster, victim] {
      if (!cluster.node(victim).available()) {
        cluster.node(victim).set_available(true);
      }
    });
  }
  const sim::Time deadline = simu.now() + 4 * sim::kHour;
  while (!job.finished() && simu.now() < deadline) {
    if (!simu.step()) break;
  }

  ArmResult r;
  r.completed = job.metrics().completed;
  r.finished_at = job.metrics().finished_at;
  r.launched = job.metrics().launched_map_attempts +
               job.metrics().launched_reduce_attempts;
  r.speculative = job.metrics().speculative_attempts;
  r.heartbeats = jobtracker.heartbeats_served();
  r.events = simu.executed_events();
  r.bytes_read = dfs.stats().bytes_read;
  r.bytes_written = dfs.stats().bytes_written;
  r.replication_bytes = dfs.stats().replication_bytes;
  r.solved_flows = cluster.network().solved_flows();
  r.profile = simu.profiler().snapshot();
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)  // detlint: allow(wall-clock) -- bench wall metering: measures the simulator itself, never feeds a simulated outcome
                  .count();
  return r;
}

ArmResult best_of(int reps, int nodes, sim::FairnessModel fairness,
                  sim::CoalesceMode coalesce) {
  ArmResult best;
  for (int i = 0; i < reps; ++i) {
    ArmResult r = run_arm(nodes, fairness, coalesce);
    if (i == 0 || r.wall_ms < best.wall_ms) best = r;
  }
  return best;
}

std::vector<int> node_sweep() {
  std::vector<int> nodes;
  if (const char* env = std::getenv("MOON_E2E_NODES")) {
    std::stringstream ss(env);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const int n = std::atoi(item.c_str());
      if (n > 0) nodes.push_back(n);
    }
  }
  if (nodes.empty()) nodes = {64, 256, 1024};
  return nodes;
}

/// The simulated outcomes that must be bit-identical across the arms.
/// (Executed-event counts are *not* compared: coalescing legitimately
/// changes how often the completion event is cancelled and re-armed.)
bool outcomes_match(const ArmResult& a, const ArmResult& b) {
  return a.completed == b.completed && a.finished_at == b.finished_at &&
         a.launched == b.launched && a.speculative == b.speculative &&
         a.heartbeats == b.heartbeats && a.bytes_read == b.bytes_read &&
         a.bytes_written == b.bytes_written &&
         a.replication_bytes == b.replication_bytes;
}

void profile_fields(bench::JsonEmitter& json, const sim::Profiler::Snapshot& p) {
  for (std::size_t k = 0; k < sim::Profiler::kKeyCount; ++k) {
    const auto key = static_cast<sim::Profiler::Key>(k);
    json.field(std::string(sim::Profiler::name(key)) + "_ms", p[k].ms());
    json.field(std::string(sim::Profiler::name(key)) + "_calls",
               static_cast<std::int64_t>(p[k].calls));
  }
}

}  // namespace

int main() {
  const int reps = bench::repetitions();
  bench::JsonEmitter json("e2e");
  Table table("e2e_throughput");
  table.columns({"nodes", "fairness", "eager ms", "coalesced ms", "speedup",
                 "settle ms (e/c)", "recompute calls (e/c)",
                 "solved flows (e/c)", "sim events"});

  bool met_target_at_1024 = false;
  bool ran_1024 = false;
  for (const int nodes : node_sweep()) {
    for (const sim::FairnessModel fairness :
         {sim::FairnessModel::kMaxMin, sim::FairnessModel::kBottleneckShare}) {
      const std::string fname =
          fairness == sim::FairnessModel::kMaxMin ? "maxmin" : "bshare";
      const ArmResult eager =
          best_of(reps, nodes, fairness, sim::CoalesceMode::kEager);
      const ArmResult coalesced =
          best_of(reps, nodes, fairness, sim::CoalesceMode::kCoalesced);
      if (!outcomes_match(eager, coalesced)) {
        std::cerr << "FATAL: coalesce arms diverged at " << nodes << " nodes ("
                  << fname << "): eager " << eager.launched
                  << " launches/finish " << eager.finished_at << "/read "
                  << eager.bytes_read << " vs coalesced " << coalesced.launched
                  << "/" << coalesced.finished_at << "/"
                  << coalesced.bytes_read << "\n";
        return 1;
      }
      const double speedup = eager.wall_ms / coalesced.wall_ms;
      if (nodes == 1024) {
        ran_1024 = true;
        met_target_at_1024 = met_target_at_1024 || speedup >= 3.0;
      }
      const auto settle_ms = [](const ArmResult& a) {
        return a.profile[static_cast<std::size_t>(sim::Profiler::Key::kSettle)]
            .ms();
      };
      const auto recomputes = [](const ArmResult& a) {
        return a.profile[static_cast<std::size_t>(
                             sim::Profiler::Key::kRecompute)]
            .calls;
      };
      table.add_row(
          {std::to_string(nodes), fname, Table::num(eager.wall_ms, 0),
           Table::num(coalesced.wall_ms, 0), Table::num(speedup, 1),
           Table::num(settle_ms(eager), 0) + "/" +
               Table::num(settle_ms(coalesced), 0),
           std::to_string(recomputes(eager)) + "/" +
               std::to_string(recomputes(coalesced)),
           std::to_string(eager.solved_flows) + "/" +
               std::to_string(coalesced.solved_flows),
           std::to_string(coalesced.events)});
      for (const auto* arm : {&eager, &coalesced}) {
        json.begin_row()
            .field("nodes", static_cast<std::int64_t>(nodes))
            .field("fairness", fname)
            .field("mode", arm == &eager ? "eager" : "coalesced")
            .field("total_wall_ms", arm->wall_ms)
            .field("speedup", arm == &eager ? 1.0 : speedup)
            .field("completed", static_cast<std::int64_t>(arm->completed ? 1 : 0))
            .field("finished_at_s", sim::to_seconds(arm->finished_at))
            .field("launched_attempts", static_cast<std::int64_t>(arm->launched))
            .field("speculative_attempts",
                   static_cast<std::int64_t>(arm->speculative))
            .field("heartbeats", static_cast<std::int64_t>(arm->heartbeats))
            .field("sim_events", static_cast<std::int64_t>(arm->events))
            .field("bytes_read", arm->bytes_read)
            .field("bytes_written", arm->bytes_written)
            .field("replication_bytes", arm->replication_bytes)
            .field("solved_flows", static_cast<std::int64_t>(arm->solved_flows));
        profile_fields(json, arm->profile);
      }
    }
  }

  std::cout << "End-to-end sim throughput: eager (settle per churn event) vs "
               "coalesced (one settle\nper virtual timestamp); MOON "
               "speculator, indexed scheduler, identical simulated\n"
               "schedules, best of "
            << reps << " rep(s).\n\n";
  table.print(std::cout);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  if (ran_1024 && !met_target_at_1024) {
    std::cerr << "\nWARNING: <3x total-wall speedup at 1024 nodes (target "
                 "from ISSUE 5)\n";
  }
  return 0;
}
