// LATE speculator tests.
#include <gtest/gtest.h>

#include "mapred/speculation.hpp"
#include "mapred_fixture.hpp"

namespace moon::mapred {
namespace {

using testing::FixtureOptions;
using testing::MapRedHarness;

SchedulerConfig late_sched(sim::Duration expiry = 60 * sim::kSecond) {
  SchedulerConfig cfg;
  cfg.tracker_expiry = expiry;
  cfg.suspension_interval = 0;
  cfg.speculator = SchedulerConfig::Speculator::kLate;
  return cfg;
}

TEST(LateSpeculation, NoBackupsOnHealthyHomogeneousCluster) {
  FixtureOptions opt;
  opt.sched = late_sched();
  MapRedHarness h(opt);
  h.submit();
  ASSERT_TRUE(h.run_to_completion());
  // All rates are (almost) equal: nothing falls below the 25th percentile
  // by enough to be worth speculating before tasks complete.
  EXPECT_LE(h.job().metrics().speculative_attempts, 1);
}

TEST(LateSpeculation, EstimatesTimeLeftFromProgressRate) {
  FixtureOptions opt;
  opt.sched = late_sched();
  opt.map_compute = 100 * sim::kSecond;
  opt.volatile_nodes = 2;
  opt.dedicated_nodes = 0;
  opt.num_maps = 2;
  opt.num_reduces = 1;
  MapRedHarness h(opt);
  h.submit();
  h.advance(30 * sim::kSecond);
  LateSpeculator late(h.jobtracker());
  const TaskId m0 = h.job().tasks_of(TaskType::kMap)[0];
  ASSERT_EQ(h.job().task(m0).state, TaskState::kRunning);
  const double rate = late.progress_rate(h.job(), m0);
  EXPECT_GT(rate, 0.0);
  const double left = late.estimated_time_left(h.job(), m0);
  // ~30 s in of ~103 s total work: plausibly 60-90 s left.
  EXPECT_GT(left, 20.0);
  EXPECT_LT(left, 200.0);
}

TEST(LateSpeculation, StalledTaskHasInfiniteTimeLeftAndGetsBackup) {
  FixtureOptions opt;
  opt.sched = late_sched(30 * sim::kMinute);  // no expiry interference
  opt.map_compute = 5 * sim::kMinute;
  opt.volatile_nodes = 4;
  opt.dedicated_nodes = 0;
  opt.num_maps = 2;
  opt.num_reduces = 1;
  MapRedHarness h(opt);
  h.submit();
  h.advance(20 * sim::kSecond);
  // Freeze one map's host: its progress rate decays; LATE ranks it worst.
  NodeId victim = NodeId::invalid();
  TaskId frozen = TaskId::invalid();
  for (TaskId m : h.job().tasks_of(TaskType::kMap)) {
    for (AttemptId a : h.job().task(m).attempts) {
      auto* attempt = h.job().attempt(a);
      if (attempt != nullptr && !attempt->terminal()) {
        victim = attempt->tracker().node_id();
        frozen = m;
        break;
      }
    }
    if (victim.valid()) break;
  }
  ASSERT_TRUE(victim.valid());
  h.set_node_available(victim, false);
  h.advance(5 * sim::kMinute);
  // The frozen task received a speculative copy (rate fell below the
  // percentile; time-left ranks it first).
  EXPECT_GT(h.job().metrics().speculative_attempts, 0);
  EXPECT_GE(h.job().non_terminal_attempts(frozen), 1);
  ASSERT_TRUE(h.run_to_completion());
}

TEST(LateSpeculation, CapLimitsBackups) {
  FixtureOptions opt;
  opt.sched = late_sched(30 * sim::kMinute);
  opt.sched.late_cap_fraction = 0.0;  // cap = 0: LATE may never speculate
  opt.map_compute = 3 * sim::kMinute;
  opt.volatile_nodes = 4;
  opt.dedicated_nodes = 0;
  opt.num_maps = 2;
  opt.num_reduces = 1;
  MapRedHarness h(opt);
  h.submit();
  h.advance(20 * sim::kSecond);
  h.set_node_available(h.volatile_ids[0], false);
  h.advance(5 * sim::kMinute);
  EXPECT_EQ(h.job().metrics().speculative_attempts, 0);
}

TEST(LateSpeculation, PresetWiringSelectsLate) {
  // The scheduler enum reaches the JobTracker: a LATE-config job with a
  // stalled task speculates.
  FixtureOptions opt;
  opt.sched = late_sched(30 * sim::kMinute);
  opt.map_compute = 5 * sim::kMinute;
  opt.volatile_nodes = 3;
  opt.dedicated_nodes = 0;
  opt.num_maps = 2;
  opt.num_reduces = 1;
  MapRedHarness h(opt);
  h.submit();
  h.advance(20 * sim::kSecond);
  h.set_node_available(h.volatile_ids[0], false);
  h.advance(6 * sim::kMinute);
  h.set_node_available(h.volatile_ids[0], true);
  ASSERT_TRUE(h.run_to_completion());
}

}  // namespace
}  // namespace moon::mapred
