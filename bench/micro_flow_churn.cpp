// Flow-solver availability-churn microbenchmark: old vs new.
//
// Sweeps 64/256/1024-node clusters (three fluid resources per node) under
// steady flow turnover plus periodic node availability flips, and measures
// the wall-clock cost of the settle path for two solver arms:
//
//   dense        — SolverMode::kDense driven with three separate
//                  set_capacity calls per availability flip: the cost
//                  profile of the pre-incremental solver.
//   incremental  — SolverMode::kIncremental with CapacityBatch-batched
//                  flips: the shipping configuration.
//
// Both arms replay the identical deterministic workload (the solvers are
// bit-equivalent, so the simulated schedules match event for event). The
// bench exits non-zero unless the arms agree on completion and event counts
// and on a hash of the (completion time, flow id) sequence, and unless
// their `accrued_flows` differ: the dense arm accrues every live flow, the
// incremental arm only moving ones, so equal counts mean the churn never
// stalled a flow and the row measured nothing. Emits
// BENCH_flow_churn.json with per-configuration wall times, the
// incremental-arm speedup, and two exact work counters: `solved_flows`, the
// flows the allocator re-solved (FlowNetwork::solved_flows), and
// `accrued_flows`, the flows progress accrual visited
// (FlowNetwork::accrued_flows).
// MOON_BENCH_REPS controls repetitions (best-of).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "simkit/flow_network.hpp"
#include "simkit/simulation.hpp"

using namespace moon;

namespace {

struct ArmResult {
  double wall_ms = 0.0;
  long completions = 0;
  std::uint64_t events = 0;
  std::uint64_t completion_hash = 0xcbf29ce484222325ULL;  // FNV-1a basis
  std::uint64_t solved_flows = 0;
  std::uint64_t accrued_flows = 0;
};

/// Folds the eight bytes of `v` into an FNV-1a hash.
void fnv1a_fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

// One churn run: `nodes` nodes, 2 flows/node kept in flight (each completion
// chains a replacement until the issue budget is spent), one availability
// flip per 64 nodes every 250 simulated ms while any flow is in flight
// (down nodes recover after 2 s). Scaling the flips with the node count
// keeps the per-node churn rate fixed, so large clusters stall flows too.
ArmResult run_arm(sim::SolverMode solver, sim::FairnessModel model, int nodes,
                  bool batched_flips) {
  const auto wall_start = std::chrono::steady_clock::now();  // detlint: allow(wall-clock) -- bench wall metering: measures the simulator itself, never feeds a simulated outcome
  sim::Simulation simu;
  // Both arms settle eagerly: this bench isolates the *solver* cost per
  // churn event (dense vs incremental). Timestamp coalescing is a separate
  // axis measured end-to-end by bench_micro_e2e_throughput.
  sim::FlowNetwork net(simu, model, solver, sim::CoalesceMode::kEager);

  std::vector<sim::FlowNetwork::ResourceId> nic_in, nic_out, disk;
  std::vector<bool> up(static_cast<std::size_t>(nodes), true);
  for (int n = 0; n < nodes; ++n) {
    nic_in.push_back(net.add_resource(mibps(80.0)));
    nic_out.push_back(net.add_resource(mibps(80.0)));
    disk.push_back(net.add_resource(mibps(30.0)));
  }

  const int concurrent = nodes * 2;
  const int issue_budget = concurrent + 1200;  // total flows over the run
  int issued = 0;
  ArmResult r;
  Rng flow_rng{20100621};
  std::function<void()> spawn = [&] {
    if (issued >= issue_budget) return;
    ++issued;
    const auto src = static_cast<std::size_t>(
        flow_rng.uniform_int(0, static_cast<std::int64_t>(nodes - 1)));
    const auto dst = static_cast<std::size_t>(
        flow_rng.uniform_int(0, static_cast<std::int64_t>(nodes - 1)));
    const Bytes size = mib(0.5) + flow_rng.uniform_int(0, mib(3.5));
    net.start_flow({nic_out[src], nic_in[dst], disk[dst]}, size, [&](FlowId id) {
      ++r.completions;
      fnv1a_fold(r.completion_hash, static_cast<std::uint64_t>(simu.now()));
      fnv1a_fold(r.completion_hash, id.value());
      spawn();
    });
  };
  for (int i = 0; i < concurrent; ++i) spawn();

  // Availability churn, driven like Node::set_available.
  Rng churn_rng{7};
  auto flip = [&](std::size_t n, bool to_up) {
    const double f = to_up ? 1.0 : 0.0;
    std::optional<sim::FlowNetwork::CapacityBatch> batch;
    if (batched_flips) batch.emplace(net);
    net.set_capacity(nic_in[n], mibps(80.0) * f);
    net.set_capacity(nic_out[n], mibps(80.0) * f);
    net.set_capacity(disk[n], mibps(30.0) * f);
    up[n] = to_up;
  };
  std::function<void()> churn = [&] {
    if (r.completions == issued) return;  // stop once every flow is done
    for (int i = 0; i < std::max(1, nodes / 64); ++i) {
      const auto n = static_cast<std::size_t>(
          churn_rng.uniform_int(0, static_cast<std::int64_t>(nodes - 1)));
      if (!up[n]) continue;
      flip(n, false);
      simu.schedule_after(2 * sim::kSecond, [&, n] {
        if (!up[n]) flip(n, true);
      });
    }
    simu.schedule_after(250 * sim::kMillisecond, churn);
  };
  simu.schedule_after(250 * sim::kMillisecond, churn);

  simu.run_until(600 * sim::kSecond);

  r.events = simu.executed_events();
  r.solved_flows = net.solved_flows();
  r.accrued_flows = net.accrued_flows();
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)  // detlint: allow(wall-clock) -- bench wall metering: measures the simulator itself, never feeds a simulated outcome
                  .count();
  return r;
}

ArmResult best_of(int reps, sim::SolverMode solver, sim::FairnessModel model,
                  int nodes, bool batched) {
  ArmResult best;
  for (int i = 0; i < reps; ++i) {
    ArmResult r = run_arm(solver, model, nodes, batched);
    if (i == 0 || r.wall_ms < best.wall_ms) best = r;
  }
  return best;
}

}  // namespace

int main() {
  const int reps = bench::repetitions();
  bench::JsonEmitter json("flow_churn");
  Table table("flow_churn");
  table.columns({"nodes", "fairness", "dense ms", "incremental ms", "speedup",
                 "completions", "solved flows (d/i)", "accrued flows (d/i)"});

  for (const int nodes : {64, 256, 1024}) {
    for (const auto model :
         {sim::FairnessModel::kMaxMin, sim::FairnessModel::kBottleneckShare}) {
      const std::string fairness =
          model == sim::FairnessModel::kMaxMin ? "maxmin" : "bshare";
      const ArmResult dense =
          best_of(reps, sim::SolverMode::kDense, model, nodes, false);
      const ArmResult inc =
          best_of(reps, sim::SolverMode::kIncremental, model, nodes, true);
      if (inc.completions != dense.completions || inc.events != dense.events ||
          inc.completion_hash != dense.completion_hash) {
        std::cerr << "FATAL: solver arms diverged at " << nodes << " nodes ("
                  << fairness << "): " << dense.completions << " vs "
                  << inc.completions << " completions, hash " << std::hex
                  << dense.completion_hash << " vs " << inc.completion_hash
                  << std::dec << "\n";
        return 1;
      }
      if (inc.accrued_flows == dense.accrued_flows) {
        std::cerr << "FATAL: churn stalled no flow at " << nodes << " nodes ("
                  << fairness << "): both arms accrued " << inc.accrued_flows
                  << " flows\n";
        return 1;
      }
      const double speedup = dense.wall_ms / inc.wall_ms;
      table.add_row({std::to_string(nodes), fairness,
                     Table::num(dense.wall_ms, 1), Table::num(inc.wall_ms, 1),
                     Table::num(speedup, 1), std::to_string(inc.completions),
                     std::to_string(dense.solved_flows) + "/" +
                         std::to_string(inc.solved_flows),
                     std::to_string(dense.accrued_flows) + "/" +
                         std::to_string(inc.accrued_flows)});
      for (const auto* arm : {&dense, &inc}) {
        json.begin_row()
            .field("nodes", static_cast<std::int64_t>(nodes))
            .field("fairness", fairness)
            .field("solver", arm == &dense ? "dense" : "incremental")
            .field("wall_ms", arm->wall_ms)
            .field("completions", static_cast<std::int64_t>(arm->completions))
            .field("sim_events", static_cast<std::int64_t>(arm->events))
            .field("solved_flows", static_cast<std::int64_t>(arm->solved_flows))
            .field("accrued_flows", static_cast<std::int64_t>(arm->accrued_flows))
            .field("speedup", arm == &dense ? 1.0 : speedup);
      }
    }
  }

  std::cout << "Flow-solver availability churn: dense (pre-incremental cost "
               "profile, unbatched flips)\nvs incremental (batched flips); "
               "identical simulated schedules, best of "
            << reps << " rep(s).\n\n";
  table.print(std::cout);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
