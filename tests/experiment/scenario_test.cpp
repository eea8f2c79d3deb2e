// Experiment-harness tests: determinism, policy presets, and the paper's
// headline qualitative result on a scaled-down cluster.
#include "experiment/scenario.hpp"

#include <gtest/gtest.h>

namespace moon::experiment {
namespace {

/// A small, fast scenario (seconds of wall time).
ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 10;
  cfg.dedicated_nodes = 1;
  cfg.app = workload::sleep_of(workload::sort_workload());
  cfg.app.num_maps = 20;
  cfg.app.reduce_slot_fraction = 0.0;
  cfg.app.fixed_reduces = 4;
  cfg.app.map_compute = 15 * sim::kSecond;
  cfg.app.reduce_compute = 20 * sim::kSecond;
  cfg.app.input_size = 20 * kKiB;
  cfg.sched = moon_scheduler(true);
  cfg.dfs = moon_dfs_config();
  cfg.intermediate_kind = dfs::FileKind::kReliable;
  cfg.intermediate_factor = {1, 1};
  cfg.unavailability_rate = 0.3;
  cfg.seed = 5;
  cfg.max_sim_time = 4 * sim::kHour;
  return cfg;
}

TEST(Scenario, CompletesAndReportsMetrics) {
  const auto result = run_scenario(small_config());
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.num_maps, 20);
  EXPECT_EQ(result.num_reduces, 4);
  EXPECT_EQ(result.completed_maps, 20);
  EXPECT_EQ(result.completed_reduces, 4);
  EXPECT_GT(result.execution_time_s, 0.0);
  EXPECT_GE(result.duplicated_tasks(), 0);
}

TEST(Scenario, IsDeterministicForSameSeed) {
  const auto a = run_scenario(small_config());
  const auto b = run_scenario(small_config());
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Scenario, DifferentSeedsDiffer) {
  auto cfg = small_config();
  const auto a = run_scenario(cfg);
  cfg.seed = 6;
  const auto b = run_scenario(cfg);
  // Different traces; virtually impossible to match exactly.
  EXPECT_NE(a.execution_time_s, b.execution_time_s);
}

TEST(Scenario, ZeroVolatilityIsFastest) {
  auto cfg = small_config();
  cfg.unavailability_rate = 0.0;
  const auto calm = run_scenario(cfg);
  cfg.unavailability_rate = 0.5;
  const auto stormy = run_scenario(cfg);
  ASSERT_TRUE(calm.finished);
  EXPECT_LT(calm.execution_time_s, stormy.execution_time_s);
}

TEST(Scenario, MoonBeatsHadoopAtHighVolatility) {
  // The paper's headline, scaled down: at 0.5 unavailability MOON-Hybrid
  // completes faster than Hadoop with the default 10-minute expiry.
  auto moon_cfg = small_config();
  moon_cfg.unavailability_rate = 0.5;
  moon_cfg.seed = 11;
  const auto moon_run = run_scenario(moon_cfg);

  auto hadoop_cfg = moon_cfg;
  hadoop_cfg.sched = hadoop_scheduler(10 * sim::kMinute);
  const auto hadoop_run = run_scenario(hadoop_cfg);

  ASSERT_TRUE(moon_run.finished);
  EXPECT_LT(moon_run.execution_time_s, hadoop_run.execution_time_s);
}

TEST(Scenario, HadoopModeTreatsAllNodesVolatile) {
  auto cfg = small_config();
  cfg.dedicated_known = false;
  cfg.sched = hadoop_scheduler(1 * sim::kMinute);
  cfg.dfs = hadoop_dfs_config();
  cfg.input_factor = {0, 3};
  cfg.intermediate_kind = dfs::FileKind::kOpportunistic;
  cfg.intermediate_factor = {0, 2};
  cfg.output_factor = {0, 3};
  const auto result = run_scenario(cfg);
  EXPECT_TRUE(result.finished);
  // No dedicated tier: not a single dedicated write can have happened.
  EXPECT_EQ(result.dfs_stats.dedicated_writes_declined, 0);
}

TEST(Scenario, PolicyPresetsMatchPaperParameters) {
  const auto hadoop = hadoop_scheduler(5 * sim::kMinute);
  EXPECT_EQ(hadoop.tracker_expiry, 5 * sim::kMinute);
  EXPECT_EQ(hadoop.suspension_interval, 0);
  EXPECT_EQ(hadoop.speculator, mapred::SchedulerConfig::Speculator::kHadoop);
  EXPECT_FALSE(hadoop.dfs_aware_recovery);

  const auto moon = moon_scheduler(false);
  EXPECT_EQ(moon.tracker_expiry, 30 * sim::kMinute);   // §VI-A
  EXPECT_EQ(moon.suspension_interval, 1 * sim::kMinute);
  EXPECT_EQ(moon.speculator, mapred::SchedulerConfig::Speculator::kMoon);
  EXPECT_TRUE(moon.dfs_aware_recovery);
  EXPECT_FALSE(moon.hybrid_aware);
  EXPECT_TRUE(moon_scheduler(true).hybrid_aware);
  EXPECT_DOUBLE_EQ(moon.speculative_slot_fraction, 0.2);  // 20 % cap
  EXPECT_DOUBLE_EQ(moon.homestretch_fraction, 0.2);       // H = 20
  EXPECT_EQ(moon.homestretch_copies, 2);                  // R = 2

  EXPECT_TRUE(moon_dfs_config().hibernate_enabled);
  EXPECT_FALSE(hadoop_dfs_config().hibernate_enabled);
  EXPECT_FALSE(hadoop_dfs_config().adaptive_replication);
}

TEST(Scenario, RunRepetitionsAggregates) {
  auto cfg = small_config();
  int observed = 0;
  const auto summary = run_repetitions(cfg, 3, [&](const RunResult& r) {
    ++observed;
    EXPECT_TRUE(r.finished);
  });
  EXPECT_EQ(observed, 3);
  EXPECT_EQ(summary.total_runs, 3);
  EXPECT_EQ(summary.completed_runs, 3);
  EXPECT_EQ(summary.execution_time_s.count(), 3u);
  EXPECT_GT(summary.execution_time_s.mean(), 0.0);
}

TEST(Scenario, HorizonBoundsRuntime) {
  auto cfg = small_config();
  cfg.unavailability_rate = 0.5;
  // Horizon 10 s past submission: the job cannot possibly finish.
  cfg.max_sim_time = cfg.submit_at + 10 * sim::kSecond;
  const auto result = run_scenario(cfg);
  EXPECT_FALSE(result.finished);
  EXPECT_LE(result.execution_time_s, 60.0);
}

// run_scenario is a one-arrival job stream; the next two pin the single-job
// edge cases it has to keep.

TEST(Scenario, DnfAfterDelayedSubmitCountsFromTheArrival) {
  auto cfg = small_config();
  // The JobTracker is down from 30 s to 150 s, across the 60 s submit: the
  // client retries every 5 s until it is back, and the horizon cuts the
  // late-started job short.
  cfg.faults.enabled = true;
  cfg.faults.master_crash.enabled = true;
  cfg.faults.master_crash.namenode = false;
  cfg.faults.master_crash.mean_interval = 1;
  cfg.faults.master_crash.min_interval = 30 * sim::kSecond;
  cfg.faults.master_crash.mean_downtime = 1;
  cfg.faults.master_crash.min_downtime = 2 * sim::kMinute;
  cfg.faults.master_crash.max_crashes = 1;
  cfg.max_sim_time = 3 * sim::kMinute;
  const RunResult r = run_scenario(cfg);
  EXPECT_FALSE(r.finished);
  EXPECT_EQ(r.metrics.submitted_at, 150 * sim::kSecond);
  // Counted from cfg.submit_at, not from the delayed submission.
  EXPECT_EQ(r.execution_time_s, 120.0);
  EXPECT_EQ(r.num_maps, 20);
  EXPECT_EQ(r.num_reduces, 4);
  EXPECT_EQ(r.completed_maps, 19);
  EXPECT_EQ(r.completed_reduces, 0);
}

TEST(Scenario, SubmitAtOrPastTheHorizonReportsAnUnstartedJob) {
  for (const sim::Duration past : {sim::Duration{0}, sim::kMinute}) {
    auto cfg = small_config();
    cfg.max_sim_time = cfg.submit_at - past;
    const RunResult r = run_scenario(cfg);
    EXPECT_FALSE(r.finished);
    EXPECT_EQ(r.num_maps, 20);
    EXPECT_EQ(r.num_reduces, 4);
    EXPECT_EQ(r.completed_maps, 0);
    EXPECT_EQ(r.execution_time_s, 0.0);
  }
}

}  // namespace
}  // namespace moon::experiment
