// End-to-end simulation-throughput microbenchmark: the shipping stack
// against its two oracle modes.
//
// Sweeps {64, 256, 1024}-node clusters over four rows (speculator, fairness):
// Hadoop/max-min, LATE/max-min, MOON/max-min and MOON/bshare. Every row runs
// the identical seeded workload (2 maps/node + n/2 reduces, sleep-sized
// data, scripted availability churn) on the shipping configuration — indexed
// scheduler (SchedulerConfig::IndexMode::kIndexed) and coalesced settles
// (CoalesceMode::kCoalesced: churn queues dirty work and the recompute runs
// once per virtual timestamp) — plus the oracle arms it measures:
//
//   eager  — MOON rows: CoalesceMode::kEager, one full settle per churn
//            event, the pre-coalescing cost profile.
//   scan   — max-min rows: IndexMode::kScan, every heartbeat re-scans all
//            jobs x tasks with per-task attempt walks — the pre-index cost
//            profile (the paper's Figure 4 "scheduling time" axis).
//
// The oracles are bit-identical to the shipping arm in simulated outcomes
// (enforced by tests/experiment/coalesce_equivalence_test.cpp and
// tests/mapred/sched_equivalence_test.cpp, and re-asserted here: launches,
// completion time and heartbeats for both, DFS byte counters for eager,
// executed events for scan; the binary exits non-zero on any divergence),
// so the wall-clock gaps are pure simulator cost. Each arm reports the
// sim::Profiler breakdown — scheduling ms is its kHeartbeat key — and two
// exact flow-network work counters: `solved_flows`, the flows the solver
// re-solved (FlowNetwork::solved_flows), and `accrued_flows`, the flows
// progress accrual visited (FlowNetwork::accrued_flows). Emits
// BENCH_e2e.json. MOON_BENCH_REPS
// controls repetitions (best-of); MOON_E2E_NODES ("64,256") trims the sweep
// for smoke runs.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
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
  // ~1 outage per 8 nodes per minute: enough churn to keep the frozen/slow
  // lists and failed-task buckets busy without stalling the job.
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
  std::uint64_t accrued_flows = 0;
  sim::Profiler::Snapshot profile{};

  [[nodiscard]] const sim::Profiler::Counter& key(sim::Profiler::Key k) const {
    return profile[static_cast<std::size_t>(k)];
  }
};

ArmResult run_arm(int nodes, mapred::SchedulerConfig sched,
                  sim::FairnessModel fairness, sim::CoalesceMode coalesce) {
  const auto wall_start = std::chrono::steady_clock::now();  // detlint: allow(wall-clock) -- bench wall metering: measures the simulator itself, never feeds a simulated outcome

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
  r.accrued_flows = cluster.network().accrued_flows();
  r.profile = simu.profiler().snapshot();
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)  // detlint: allow(wall-clock) -- bench wall metering: measures the simulator itself, never feeds a simulated outcome
                  .count();
  return r;
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

/// The simulated outcomes every oracle arm must reproduce bit for bit.
/// Executed-event counts are compared only for scan (coalescing legitimately
/// changes how often the completion event is cancelled and re-armed); DFS
/// byte counters only for eager.
bool outcomes_match(const ArmResult& a, const ArmResult& b, bool scan) {
  const bool common = a.completed == b.completed &&
                      a.finished_at == b.finished_at &&
                      a.launched == b.launched &&
                      a.speculative == b.speculative &&
                      a.heartbeats == b.heartbeats;
  if (scan) return common && a.events == b.events;
  return common && a.bytes_read == b.bytes_read &&
         a.bytes_written == b.bytes_written &&
         a.replication_bytes == b.replication_bytes;
}

/// MOON's speculator and DFS-aware recovery with a 30 s suspension
/// interval (the paper preset, experiment::moon_scheduler, uses 1 min).
mapred::SchedulerConfig moon_config() {
  mapred::SchedulerConfig cfg;
  cfg.tracker_expiry = 30 * sim::kMinute;
  cfg.suspension_interval = 30 * sim::kSecond;
  cfg.speculator = mapred::SchedulerConfig::Speculator::kMoon;
  cfg.dfs_aware_recovery = true;
  return cfg;
}

struct Row {
  const char* speculator;
  const char* fairness;
  mapred::SchedulerConfig sched;
  sim::FairnessModel model;
};

struct Arm {
  const char* mode;
  mapred::SchedulerConfig::IndexMode index;
  sim::CoalesceMode coalesce;
};

constexpr Arm kShipping{"shipping", mapred::SchedulerConfig::IndexMode::kIndexed,
                        sim::CoalesceMode::kCoalesced};
constexpr Arm kEager{"eager", mapred::SchedulerConfig::IndexMode::kIndexed,
                     sim::CoalesceMode::kEager};
constexpr Arm kScan{"scan", mapred::SchedulerConfig::IndexMode::kScan,
                    sim::CoalesceMode::kCoalesced};

ArmResult best_of(int reps, int nodes, const Row& row, const Arm& arm) {
  mapred::SchedulerConfig sched = row.sched;
  sched.index_mode = arm.index;
  ArmResult best;
  for (int i = 0; i < reps; ++i) {
    ArmResult r = run_arm(nodes, sched, row.model, arm.coalesce);
    if (i == 0 || r.wall_ms < best.wall_ms) best = r;
  }
  return best;
}

}  // namespace

int main() {
  using Key = sim::Profiler::Key;
  const std::vector<Row> rows{
      {"Hadoop", "maxmin", experiment::hadoop_scheduler(60 * sim::kSecond),
       sim::FairnessModel::kMaxMin},
      {"LATE", "maxmin", experiment::late_scheduler(60 * sim::kSecond),
       sim::FairnessModel::kMaxMin},
      {"MOON", "maxmin", moon_config(), sim::FairnessModel::kMaxMin},
      {"MOON", "bshare", moon_config(), sim::FairnessModel::kBottleneckShare},
  };
  const int reps = bench::repetitions();
  bench::JsonEmitter json("e2e");
  Table table("e2e_throughput");
  table.columns({"nodes", "speculator", "fairness", "wall ms", "eager ms",
                 "scan ms", "sched ms", "scan sched ms", "settle ms",
                 "recompute calls", "solved flows", "accrued flows",
                 "sim events"});
  const auto dash_or = [](bool ran, const std::string& text) {
    return ran ? text : std::string("-");
  };

  for (const int nodes : node_sweep()) {
    for (const Row& row : rows) {
      const bool moon =
          row.sched.speculator == mapred::SchedulerConfig::Speculator::kMoon;
      const bool maxmin = row.model == sim::FairnessModel::kMaxMin;
      const ArmResult shipping = best_of(reps, nodes, row, kShipping);
      const ArmResult eager = moon ? best_of(reps, nodes, row, kEager) : ArmResult{};
      const ArmResult scan = maxmin ? best_of(reps, nodes, row, kScan) : ArmResult{};
      for (const auto& [ran, arm, oracle] :
           {std::tuple{moon, &kEager, &eager}, std::tuple{maxmin, &kScan, &scan}}) {
        if (ran && !outcomes_match(shipping, *oracle, arm == &kScan)) {
          std::cerr << "FATAL: " << arm->mode << " arm diverged at " << nodes
                    << " nodes (" << row.speculator << "/" << row.fairness
                    << "): shipping " << shipping.launched << " launches/finish "
                    << shipping.finished_at << "/events " << shipping.events
                    << "/read " << shipping.bytes_read << " vs "
                    << oracle->launched << "/" << oracle->finished_at << "/"
                    << oracle->events << "/" << oracle->bytes_read << "\n";
          return 1;
        }
      }

      const auto sched_ms = [](const ArmResult& a) {
        return a.key(Key::kHeartbeat).ms();
      };
      // "eager/shipping" where the eager arm ran, else the shipping figure.
      const auto pair = [&](auto get) {
        return (moon ? get(eager) + "/" : std::string()) + get(shipping);
      };
      table.add_row(
          {std::to_string(nodes), row.speculator, row.fairness,
           Table::num(shipping.wall_ms, 0),
           dash_or(moon, Table::num(eager.wall_ms, 0)),
           dash_or(maxmin, Table::num(scan.wall_ms, 0)),
           Table::num(sched_ms(shipping), 1),
           dash_or(maxmin, Table::num(sched_ms(scan), 1)),
           pair([](const ArmResult& a) {
             return Table::num(a.key(Key::kSettle).ms(), 0);
           }),
           pair([](const ArmResult& a) {
             return std::to_string(a.key(Key::kRecompute).calls);
           }),
           pair([](const ArmResult& a) { return std::to_string(a.solved_flows); }),
           pair([](const ArmResult& a) { return std::to_string(a.accrued_flows); }),
           std::to_string(shipping.events)});
      for (const auto& [ran, arm, result] :
           {std::tuple{true, &kShipping, &shipping}, std::tuple{moon, &kEager, &eager},
            std::tuple{maxmin, &kScan, &scan}}) {
        if (!ran) continue;
        json.begin_row()
            .field("nodes", static_cast<std::int64_t>(nodes))
            .field("speculator", row.speculator)
            .field("fairness", row.fairness)
            .field("mode", arm->mode)
            .field("total_wall_ms", result->wall_ms)
            .field("sched_wall_ms", sched_ms(*result))
            .field("speedup", shipping.wall_ms > 0.0
                                  ? result->wall_ms / shipping.wall_ms
                                  : 0.0)
            .field("completed", static_cast<std::int64_t>(result->completed ? 1 : 0))
            .field("finished_at_s", sim::to_seconds(result->finished_at))
            .field("launched_attempts", static_cast<std::int64_t>(result->launched))
            .field("speculative_attempts",
                   static_cast<std::int64_t>(result->speculative))
            .field("heartbeats", static_cast<std::int64_t>(result->heartbeats))
            .field("sim_events", static_cast<std::int64_t>(result->events))
            .field("bytes_read", result->bytes_read)
            .field("bytes_written", result->bytes_written)
            .field("replication_bytes", result->replication_bytes)
            .field("solved_flows", static_cast<std::int64_t>(result->solved_flows))
            .field("accrued_flows", static_cast<std::int64_t>(result->accrued_flows));
        for (std::size_t k = 0; k < sim::Profiler::kKeyCount; ++k) {
          const auto key = static_cast<Key>(k);
          json.field(std::string(sim::Profiler::name(key)) + "_ms",
                     result->profile[k].ms());
          json.field(std::string(sim::Profiler::name(key)) + "_calls",
                     static_cast<std::int64_t>(result->profile[k].calls));
        }
      }
    }
  }

  std::cout << "End-to-end sim throughput: the shipping stack (indexed "
               "scheduler, one settle\nper virtual timestamp) vs its "
               "eager-settle and scan-scheduler oracles;\nidentical simulated "
               "schedules, best of "
            << reps << " rep(s). \"-\" marks an arm a row does not\nrun; "
               "settle/recompute/solved/accrued flows read eager/shipping "
               "on MOON rows.\n\n";
  table.print(std::cout);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
