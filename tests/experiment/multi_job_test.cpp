// Multi-job harness: the kFifo single-arrival golden (bit-identical to the
// single-job run_scenario path), horizon robustness (the historical
// multi_job example crashed reading jobs whose submissions never fired),
// and the stream-level metrics.
#include "experiment/multi_job.hpp"

#include <gtest/gtest.h>

#include <initializer_list>

namespace moon::experiment {
namespace {

ScenarioConfig small_scenario() {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 10;
  cfg.dedicated_nodes = 2;
  cfg.app = workload::sleep_of(workload::sort_workload());
  cfg.app.num_maps = 16;
  cfg.app.reduce_slot_fraction = 0.0;
  cfg.app.fixed_reduces = 4;
  cfg.app.map_compute = 20 * sim::kSecond;
  cfg.app.reduce_compute = 30 * sim::kSecond;
  cfg.app.input_size = 16 * kKiB;
  cfg.sched = moon_scheduler(true);
  cfg.dfs = moon_dfs_config();
  cfg.intermediate_kind = dfs::FileKind::kReliable;
  cfg.intermediate_factor = {1, 1};
  cfg.unavailability_rate = 0.3;
  cfg.seed = 17;
  cfg.max_sim_time = 8 * sim::kHour;
  return cfg;
}

TEST(MultiJobHarness, SingleJobFifoIsBitIdenticalToRunScenario) {
  const ScenarioConfig cfg = small_scenario();
  const RunResult single = run_scenario(cfg);
  ASSERT_TRUE(single.finished);

  MultiJobConfig mcfg;
  mcfg.base = cfg;
  mcfg.base.sched.job_policy = mapred::SchedulerConfig::JobPolicy::kFifo;
  mcfg.arrivals.process = workload::ArrivalConfig::Process::kFixedOffset;
  mcfg.arrivals.num_jobs = 1;
  mcfg.arrivals.first_arrival = cfg.submit_at;
  mcfg.arrivals.mix = {{cfg.app, 1.0}};
  const MultiJobResult multi = run_multi_job_scenario(mcfg);

  ASSERT_EQ(multi.submitted_jobs, 1);
  ASSERT_EQ(multi.jobs.size(), 1u);
  const JobOutcome& job = multi.jobs.front();

  // Bit-identical schedule: exact completion time, attempt-for-attempt.
  EXPECT_TRUE(job.run.finished);
  EXPECT_EQ(job.run.metrics.submitted_at, single.metrics.submitted_at);
  EXPECT_EQ(job.run.metrics.finished_at, single.metrics.finished_at);
  EXPECT_EQ(job.run.execution_time_s, single.execution_time_s);
  EXPECT_EQ(job.run.metrics.launched_map_attempts,
            single.metrics.launched_map_attempts);
  EXPECT_EQ(job.run.metrics.launched_reduce_attempts,
            single.metrics.launched_reduce_attempts);
  EXPECT_EQ(job.run.metrics.speculative_attempts,
            single.metrics.speculative_attempts);
  EXPECT_EQ(job.run.metrics.killed_map_attempts,
            single.metrics.killed_map_attempts);
  EXPECT_EQ(job.run.metrics.killed_reduce_attempts,
            single.metrics.killed_reduce_attempts);
  EXPECT_EQ(job.run.metrics.map_reexecutions, single.metrics.map_reexecutions);
  EXPECT_EQ(job.run.metrics.fetch_failures, single.metrics.fetch_failures);
  EXPECT_EQ(job.run.duplicated_tasks(), single.duplicated_tasks());
  EXPECT_EQ(multi.replication_queue_depth, single.replication_queue_depth);
  EXPECT_EQ(multi.dfs_stats.bytes_written, single.dfs_stats.bytes_written);
  EXPECT_EQ(multi.dfs_stats.bytes_read, single.dfs_stats.bytes_read);

  // Stream metrics collapse to the single job's numbers.
  EXPECT_EQ(multi.completed_jobs, 1);
  EXPECT_DOUBLE_EQ(multi.mean_latency_s, job.latency_s);
  EXPECT_DOUBLE_EQ(multi.p95_latency_s, job.latency_s);
  EXPECT_DOUBLE_EQ(multi.jain_fairness, 1.0);
}

TEST(MultiJobHarness, ArrivalsPastTheHorizonAreSkippedNotCrashed) {
  // Regression: the pre-harness multi_job example indexed jobs by
  // default-constructed JobIds when the sim ended before the scheduled
  // submissions fired (std::out_of_range).
  MultiJobConfig mcfg;
  mcfg.base = small_scenario();
  mcfg.base.max_sim_time = 2 * sim::kMinute;
  mcfg.arrivals.process = workload::ArrivalConfig::Process::kFixedOffset;
  mcfg.arrivals.num_jobs = 3;
  mcfg.arrivals.first_arrival = 60 * sim::kSecond;
  mcfg.arrivals.fixed_offset = 10 * sim::kMinute;  // #2 and #3 never fire
  mcfg.arrivals.mix = {{mcfg.base.app, 1.0}};

  const MultiJobResult result = run_multi_job_scenario(mcfg);
  EXPECT_EQ(result.submitted_jobs, 1);
  EXPECT_EQ(result.jobs.size(), 1u);
  EXPECT_FALSE(result.jobs.front().run.finished);  // horizon hit mid-job
  EXPECT_EQ(result.completed_jobs, 0);
}

TEST(MultiJobHarness, StreamMetricsAggregateAcrossJobs) {
  MultiJobConfig mcfg;
  mcfg.base = small_scenario();
  mcfg.arrivals.process = workload::ArrivalConfig::Process::kFixedOffset;
  mcfg.arrivals.num_jobs = 3;
  mcfg.arrivals.first_arrival = 60 * sim::kSecond;
  mcfg.arrivals.fixed_offset = 30 * sim::kSecond;
  mcfg.arrivals.mix = {{mcfg.base.app, 1.0}};

  const MultiJobResult result = run_multi_job_scenario(mcfg);
  ASSERT_EQ(result.submitted_jobs, 3);
  ASSERT_EQ(result.completed_jobs, 3);

  double mean = 0.0;
  double max_latency = 0.0;
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.run.finished);
    EXPECT_GE(job.queue_wait_s, 0.0);
    EXPECT_LE(job.queue_wait_s, job.latency_s);
    mean += job.latency_s;
    max_latency = std::max(max_latency, job.latency_s);
  }
  mean /= 3.0;
  EXPECT_DOUBLE_EQ(result.mean_latency_s, mean);
  EXPECT_LE(result.p95_latency_s, max_latency + 1e-9);
  EXPECT_GT(result.jain_fairness, 0.0);
  EXPECT_LE(result.jain_fairness, 1.0 + 1e-12);
  // Makespan covers first submission to last completion: at least the
  // longest single-job latency plus the last job's offset.
  EXPECT_GE(result.makespan_s, max_latency);
}

double jain_of(std::initializer_list<double> samples) {
  JainIndex jain;
  for (double x : samples) jain.add(x);
  return jain.value();
}

TEST(JainIndex, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(jain_of({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_of({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_of({2.0, 2.0, 2.0, 2.0}), 1.0);
  // (1+3)^2 / (2 * (1+9)) = 16/20.
  EXPECT_DOUBLE_EQ(jain_of({1.0, 3.0}), 0.8);
  // Non-positive samples (unfinished jobs) are skipped.
  EXPECT_DOUBLE_EQ(jain_of({1.0, 0.0, 3.0, -2.0}), 0.8);
  // One job absorbing all the delay drives the index toward 1/n.
  EXPECT_NEAR(jain_of({100.0, 1e-6, 1e-6, 1e-6}), 0.25, 1e-3);
}

}  // namespace
}  // namespace moon::experiment
