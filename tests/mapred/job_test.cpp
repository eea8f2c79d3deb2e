#include "mapred/job.hpp"

#include <gtest/gtest.h>

#include "mapred_fixture.hpp"

namespace moon::mapred {
namespace {

using testing::FixtureOptions;
using testing::MapRedHarness;

TEST(Job, BuildsTasksFromSpec) {
  MapRedHarness h;
  h.submit();
  Job& job = h.job();
  EXPECT_EQ(job.tasks_of(TaskType::kMap).size(), 4u);
  EXPECT_EQ(job.tasks_of(TaskType::kReduce).size(), 2u);
  EXPECT_EQ(job.remaining_tasks(), 6);
  // Map i is bound to input block i.
  const auto& input = h.dfs().namenode().file(job.spec().input_file);
  for (int i = 0; i < 4; ++i) {
    const Task& t = job.task(job.tasks_of(TaskType::kMap)[static_cast<std::size_t>(i)]);
    EXPECT_EQ(t.input_block, input.blocks[static_cast<std::size_t>(i)]);
    EXPECT_EQ(t.index, i);
    EXPECT_EQ(t.state, TaskState::kPending);
  }
}

TEST(Job, UnknownTaskThrows) {
  MapRedHarness h;
  h.submit();
  EXPECT_THROW(static_cast<void>(h.job().task(TaskId{999})), std::out_of_range);
}

TEST(Job, SchedulingLaunchesAttemptsOnHeartbeat) {
  FixtureOptions opt;
  opt.map_compute = 60 * sim::kSecond;  // long enough to be observed running
  MapRedHarness h(opt);
  h.submit();
  h.advance(30 * sim::kSecond);
  EXPECT_GT(h.job().metrics().launched_map_attempts, 0);
  int running = 0;
  for (TaskId id : h.job().tasks_of(TaskType::kMap)) {
    if (h.job().task(id).state == TaskState::kRunning) ++running;
  }
  EXPECT_GT(running, 0);
}

TEST(Job, CompletesOnStableCluster) {
  MapRedHarness h;
  h.submit();
  ASSERT_TRUE(h.run_to_completion());
  const auto& m = h.job().metrics();
  EXPECT_TRUE(m.completed);
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(h.job().completed_tasks(TaskType::kMap), 4);
  EXPECT_EQ(h.job().completed_tasks(TaskType::kReduce), 2);
  EXPECT_EQ(h.job().remaining_tasks(), 0);
  // No volatility: exactly one attempt per task, nothing killed.
  EXPECT_EQ(m.launched_map_attempts, 4);
  EXPECT_EQ(m.launched_reduce_attempts, 2);
  EXPECT_EQ(m.duplicated_tasks(4, 2), 0);
  EXPECT_EQ(m.killed_map_attempts, 0);
  EXPECT_EQ(m.fetch_failures, 0);
}

// The retained-state estimate charges fixed weights per record, not
// sizeof, so no struct or standard-library change can move a fingerprint
// that reads it: 1080 per job plus its name, 208 per task, 736 per attempt.
TEST(Job, RetainedBytesUseFixedRecordWeights) {
  MapRedHarness h;
  h.submit();
  const Job& job = h.job();
  const std::size_t base = 1080 + job.spec().name.size() + 6 * 208;
  EXPECT_EQ(job.metrics().launched_map_attempts +
                job.metrics().launched_reduce_attempts,
            0);
  EXPECT_EQ(job.approx_retained_bytes(), base);
  ASSERT_TRUE(h.run_to_completion());
  EXPECT_EQ(job.metrics().launched_map_attempts, 4);
  EXPECT_EQ(job.metrics().launched_reduce_attempts, 2);
  EXPECT_EQ(job.approx_retained_bytes(), base + 6 * 736);
}

TEST(Job, MapTimesReflectComputePlusIo) {
  FixtureOptions opt;
  opt.map_compute = 20 * sim::kSecond;
  MapRedHarness h(opt);
  h.submit();
  ASSERT_TRUE(h.run_to_completion());
  const auto& m = h.job().metrics();
  ASSERT_EQ(m.map_time_s.count(), 4u);
  EXPECT_GE(m.map_time_s.mean(), 20.0);       // at least the compute time
  EXPECT_LT(m.map_time_s.mean(), 40.0);       // tiny I/O on an idle cluster
}

TEST(Job, ShuffleAndReduceTimesRecorded) {
  MapRedHarness h;
  h.submit();
  ASSERT_TRUE(h.run_to_completion());
  const auto& m = h.job().metrics();
  EXPECT_EQ(m.shuffle_time_s.count(), 2u);
  EXPECT_EQ(m.reduce_time_s.count(), 2u);
  EXPECT_GE(m.reduce_time_s.mean(), 10.0);
}

TEST(Job, MapOutputInvalidUntilTaskCompletes) {
  MapRedHarness h;
  h.submit();
  const TaskId first_map = h.job().tasks_of(TaskType::kMap)[0];
  EXPECT_FALSE(h.job().map_output(first_map).valid());
  ASSERT_TRUE(h.run_to_completion());
  EXPECT_TRUE(h.job().map_output(first_map).valid());
}

TEST(Job, OutputFilesBecomeReliableAndCompleteAtCommit) {
  MapRedHarness h;
  h.submit();
  ASSERT_TRUE(h.run_to_completion());
  auto& nn = h.dfs().namenode();
  for (TaskId r : h.job().tasks_of(TaskType::kReduce)) {
    const FileId f = h.job().task(r).output_file;
    ASSERT_TRUE(f.valid());
    EXPECT_EQ(nn.file(f).kind, dfs::FileKind::kReliable);
    EXPECT_TRUE(nn.file(f).complete);
    // MOON-managed output carries a dedicated replica after conversion.
    for (BlockId b : nn.file(f).blocks) {
      EXPECT_GE(nn.live_replicas(b).dedicated, 1);
    }
  }
}

TEST(Job, RevertMapRequeuesAndDropsOutput) {
  MapRedHarness h;
  h.submit();
  ASSERT_TRUE(h.run_to_completion());
  // Post-hoc revert (as a fetch-failure storm would trigger mid-run).
  const TaskId m = h.job().tasks_of(TaskType::kMap)[1];
  const FileId old_output = h.job().map_output(m);
  ASSERT_TRUE(old_output.valid());
  h.job().revert_map(m);
  EXPECT_EQ(h.job().task(m).state, TaskState::kPending);
  EXPECT_FALSE(h.job().map_output(m).valid());
  EXPECT_FALSE(h.dfs().namenode().file_exists(old_output));
  EXPECT_EQ(h.job().metrics().map_reexecutions, 1);
}

TEST(Job, TaskProgressReachesOneOnCompletion) {
  MapRedHarness h;
  h.submit();
  ASSERT_TRUE(h.run_to_completion());
  for (TaskId id : h.job().tasks_of(TaskType::kMap)) {
    EXPECT_DOUBLE_EQ(h.job().task_progress(id), 1.0);
  }
  EXPECT_DOUBLE_EQ(h.job().average_progress(TaskType::kMap), 1.0);
}

TEST(Job, AverageProgressIgnoresUnstartedTasks) {
  FixtureOptions opt;
  opt.volatile_nodes = 1;  // 2 map slots for 4 maps: half start immediately
  opt.dedicated_nodes = 0;
  opt.map_compute = 100 * sim::kSecond;
  MapRedHarness h(opt);
  h.submit();
  h.advance(40 * sim::kSecond);
  // Average over started tasks only must be > 0 even though some tasks have
  // not launched at all.
  EXPECT_GT(h.job().average_progress(TaskType::kMap), 0.0);
}

TEST(Job, TrackerDeathKillsAttemptsAndReexecutesMaps) {
  FixtureOptions opt;
  opt.sched = testing::hadoop_sched(60 * sim::kSecond);
  opt.map_compute = 30 * sim::kSecond;
  opt.reduce_compute = 120 * sim::kSecond;
  MapRedHarness h(opt);
  h.submit();
  // Let maps complete, then take a node down for good.
  h.advance(2 * sim::kMinute);
  ASSERT_TRUE(h.job().all_maps_done());
  NodeId victim = NodeId::invalid();
  for (TaskId m : h.job().tasks_of(TaskType::kMap)) {
    victim = h.job().task(m).completed_on;
    if (victim.valid() &&
        !h.cluster().node(victim).dedicated()) {
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  h.set_node_available(victim, false);
  h.advance(3 * sim::kMinute);  // > 60 s expiry
  EXPECT_EQ(h.jobtracker().tracker_state(victim), TrackerState::kDead);
  // Hadoop rule: completed maps on the dead tracker are re-executed.
  EXPECT_GT(h.job().metrics().map_reexecutions, 0);
  ASSERT_TRUE(h.run_to_completion());
}

TEST(Job, MoonTrackerDeathSkipsReexecutionWhenReplicasSurvive) {
  FixtureOptions opt;
  opt.sched = testing::moon_sched();
  opt.sched.tracker_expiry = 2 * sim::kMinute;  // force death quickly
  opt.map_compute = 30 * sim::kSecond;
  opt.reduce_compute = 300 * sim::kSecond;
  // Intermediate data has a dedicated copy: output survives node loss.
  opt.intermediate_kind = dfs::FileKind::kReliable;
  opt.intermediate_factor = {1, 1};
  MapRedHarness h(opt);
  h.submit();
  h.advance(2 * sim::kMinute);
  ASSERT_TRUE(h.job().all_maps_done());
  NodeId victim = NodeId::invalid();
  for (TaskId m : h.job().tasks_of(TaskType::kMap)) {
    victim = h.job().task(m).completed_on;
    if (victim.valid() && !h.cluster().node(victim).dedicated()) break;
  }
  ASSERT_TRUE(victim.valid());
  h.set_node_available(victim, false);
  h.advance(5 * sim::kMinute);
  EXPECT_EQ(h.jobtracker().tracker_state(victim), TrackerState::kDead);
  // MOON consulted the DFS: dedicated replica lives, no re-execution.
  EXPECT_EQ(h.job().metrics().map_reexecutions, 0);
}

TEST(Job, FailsAfterMaxTaskFailures) {
  FixtureOptions opt;
  // Input with a single volatile replica; destroy it so maps cannot read.
  opt.input_factor = {0, 1};
  opt.dfs.max_read_rounds = 1;
  MapRedHarness h(opt);
  // Drop every input replica before submitting (the staged input is the
  // first file the harness creates, id 0).
  auto& nn = h.dfs().namenode();
  const FileId input{0};
  for (BlockId b : nn.file(input).blocks) {
    auto replicas = nn.block(b).replicas;
    for (NodeId n : replicas) {
      h.dfs().datanode(n).drop_block(b, kKiB);
    }
  }
  h.submit();
  const sim::Time deadline = h.sim().now() + sim::hours(2);
  while (!h.job().finished() && h.sim().now() < deadline) {
    if (!h.sim().step()) break;
  }
  EXPECT_TRUE(h.job().metrics().failed);
  EXPECT_FALSE(h.job().metrics().completed);
}

TEST(Job, DebugDumpListsIncompleteTasks) {
  MapRedHarness h;
  h.submit();
  h.advance(5 * sim::kSecond);
  std::ostringstream os;
  h.job().debug_dump(os);
  EXPECT_NE(os.str().find("map[0]"), std::string::npos);
}

}  // namespace
}  // namespace moon::mapred
