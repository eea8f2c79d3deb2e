// §2 determinism contract: no state-changing control flow may depend on
// unordered-container iteration order — or on registration order. The same
// scenario built with permuted tracker registration must produce
// bit-identical results: the liveness scan kills expiring trackers in
// NodeId order (not map order), heartbeats start in NodeId order (not
// add_tracker order), and the NameNode's death/hibernation sweeps enqueue
// replication in id order.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.hpp"
#include "dfs/dfs.hpp"
#include "mapred/jobtracker.hpp"

namespace moon::mapred {
namespace {

struct Outcome {
  bool completed = false;
  sim::Time finished_at = 0;
  int launched_maps = 0;
  int launched_reduces = 0;
  int killed_maps = 0;
  int killed_reduces = 0;
  int map_reexecutions = 0;
  int speculative = 0;
  std::size_t replication_queue_depth = 0;

  bool operator==(const Outcome&) const = default;
};

/// One churn scenario, 6 volatile nodes, trackers registered in the given
/// order. Two nodes go silent mid-run long enough to expire (tracker death,
/// datanode death, re-pends, re-replication), then return.
Outcome run_with_registration(const std::vector<std::size_t>& order) {
  sim::Simulation sim(11);
  cluster::Cluster cluster(sim);
  cluster::NodeConfig vcfg;
  vcfg.type = cluster::NodeType::kVolatile;
  const auto nodes = cluster.add_nodes(6, vcfg);

  dfs::DfsConfig dfs_cfg;
  dfs_cfg.adaptive_replication = false;
  dfs::Dfs dfs(sim, cluster, dfs_cfg, 11);
  dfs.start();

  SchedulerConfig sched;
  sched.tracker_expiry = 60 * sim::kSecond;
  sched.suspension_interval = 0;
  JobTracker jobtracker(sim, cluster, dfs, sched, 11);
  for (std::size_t i : order) jobtracker.add_tracker(nodes[i]);
  jobtracker.start();

  const FileId input =
      dfs.stage_blocks("in", dfs::FileKind::kReliable, {0, 2}, 8, kKiB);
  JobSpec spec;
  spec.name = "perm";
  spec.num_maps = 8;
  spec.num_reduces = 2;
  spec.input_file = input;
  spec.intermediate_per_map = kKiB;
  spec.output_per_reduce = kKiB;
  spec.map_compute = 30 * sim::kSecond;
  spec.reduce_compute = 30 * sim::kSecond;
  spec.compute_jitter = 0.0;
  spec.intermediate_kind = dfs::FileKind::kOpportunistic;
  spec.intermediate_factor = {0, 1};
  spec.output_factor = {0, 1};
  const JobId id = jobtracker.submit(spec);

  // Both outages start on the same tick: whichever scan order the control
  // plane uses decides the kill/re-pend/re-replicate sequence.
  sim.schedule_at(20 * sim::kSecond, [&] {
    cluster.node(nodes[1]).set_available(false);
    cluster.node(nodes[4]).set_available(false);
  });
  sim.schedule_at(5 * sim::kMinute, [&] {
    cluster.node(nodes[1]).set_available(true);
    cluster.node(nodes[4]).set_available(true);
  });

  const sim::Time deadline = 2 * sim::kHour;
  while (!jobtracker.job(id).finished() && sim.now() < deadline) {
    if (!sim.step()) break;
  }

  const JobMetrics& m = jobtracker.job(id).metrics();
  Outcome out;
  out.completed = m.completed;
  out.finished_at = m.finished_at;
  out.launched_maps = m.launched_map_attempts;
  out.launched_reduces = m.launched_reduce_attempts;
  out.killed_maps = m.killed_map_attempts;
  out.killed_reduces = m.killed_reduce_attempts;
  out.map_reexecutions = m.map_reexecutions;
  out.speculative = m.speculative_attempts;
  out.replication_queue_depth = dfs.namenode().replication_queue_depth();
  return out;
}

TEST(ControlPlaneDeterminism, PermutedTrackerRegistrationIsBitIdentical) {
  const Outcome forward = run_with_registration({0, 1, 2, 3, 4, 5});
  const Outcome reversed = run_with_registration({5, 4, 3, 2, 1, 0});
  const Outcome shuffled = run_with_registration({3, 0, 5, 1, 4, 2});

  EXPECT_TRUE(forward.completed);
  EXPECT_GT(forward.killed_maps + forward.killed_reduces +
                forward.map_reexecutions,
            0)
      << "scenario exercised no tracker deaths — weaken nothing, fix the churn";
  EXPECT_EQ(forward, reversed);
  EXPECT_EQ(forward, shuffled);
}

TEST(ControlPlaneDeterminism, RepeatedRunsAreBitIdentical) {
  // Same registration order twice: guards the baseline reproducibility the
  // permutation test builds on.
  const Outcome a = run_with_registration({0, 1, 2, 3, 4, 5});
  const Outcome b = run_with_registration({0, 1, 2, 3, 4, 5});
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace moon::mapred
