#include "experiment/scenario.hpp"

#include "experiment/multi_job.hpp"

namespace moon::experiment {

RunResult run_scenario(const ScenarioConfig& config) {
  MultiJobConfig stream;
  stream.base = config;
  stream.arrivals.process = workload::ArrivalConfig::Process::kFixedOffset;
  stream.arrivals.num_jobs = 1;
  stream.arrivals.first_arrival = config.submit_at;
  stream.arrivals.round_robin_mix = true;
  stream.arrivals.mix = {{config.app, 1.0}};
  const MultiJobResult multi = run_multi_job_scenario(stream);

  RunResult result;
  static_cast<RunCounters&>(result) = multi;
  // Task counts are known even when the job never got in (submit at or past
  // the horizon, or a JobTracker outage outlasting it).
  result.num_maps = config.app.num_maps;
  result.num_reduces = config.app.reduces_for(
      static_cast<int>(config.volatile_nodes + config.dedicated_nodes) *
      config.reduce_slots);
  if (!multi.jobs.empty()) {
    static_cast<JobRun&>(result) = multi.jobs.front().run;
  }
  return result;
}

mapred::SchedulerConfig hadoop_scheduler(sim::Duration tracker_expiry) {
  mapred::SchedulerConfig cfg;
  cfg.tracker_expiry = tracker_expiry;
  cfg.suspension_interval = 0;  // Hadoop has no suspension concept
  cfg.hybrid_aware = false;
  return cfg;
}

mapred::SchedulerConfig moon_scheduler(bool hybrid) {
  mapred::SchedulerConfig cfg;
  // §VI-A: "We use 1 minute for SuspensionInterval, and 30 minutes for
  // TrackerExpiryInterval."
  cfg.tracker_expiry = 30 * sim::kMinute;
  cfg.suspension_interval = 1 * sim::kMinute;
  cfg.speculator = mapred::SchedulerConfig::Speculator::kMoon;
  cfg.dfs_aware_recovery = true;
  cfg.hybrid_aware = hybrid;
  return cfg;
}

mapred::SchedulerConfig moon_checkpoint_scheduler(bool hybrid) {
  mapred::SchedulerConfig cfg = moon_scheduler(hybrid);
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.scan_interval = 60 * sim::kSecond;
  cfg.checkpoint.min_progress_delta = 0.05;
  cfg.checkpoint.factor = {1, 1};
  return cfg;
}

mapred::SchedulerConfig late_scheduler(sim::Duration tracker_expiry) {
  mapred::SchedulerConfig cfg = hadoop_scheduler(tracker_expiry);
  cfg.speculator = mapred::SchedulerConfig::Speculator::kLate;
  return cfg;
}

mapred::SchedulerConfig late_moon_scheduler() {
  mapred::SchedulerConfig cfg;
  cfg.tracker_expiry = 30 * sim::kMinute;
  cfg.suspension_interval = 1 * sim::kMinute;
  // LATE picks the backups; MOON semantics (suspension without killing,
  // DFS-aware tracker-death handling) come from the intervals and the
  // recovery flag.
  cfg.dfs_aware_recovery = true;
  cfg.speculator = mapred::SchedulerConfig::Speculator::kLate;
  return cfg;
}

dfs::DfsConfig moon_dfs_config() {
  dfs::DfsConfig cfg;
  cfg.hibernate_enabled = true;
  cfg.adaptive_replication = true;
  cfg.throttling_enabled = true;
  cfg.prefer_volatile_reads = true;
  return cfg;
}

dfs::DfsConfig hadoop_dfs_config() {
  dfs::DfsConfig cfg;
  cfg.hibernate_enabled = false;
  cfg.adaptive_replication = false;
  cfg.throttling_enabled = false;
  cfg.prefer_volatile_reads = false;
  return cfg;
}

Summary run_repetitions(ScenarioConfig config, int repetitions,
                        const std::function<void(const RunResult&)>& observer) {
  Summary summary;
  summary.total_runs = repetitions;
  for (int rep = 0; rep < repetitions; ++rep) {
    config.seed = config.seed + (rep == 0 ? 0 : 1);
    const RunResult run = run_scenario(config);
    if (observer) observer(run);
    summary.execution_time_s.add(run.execution_time_s);
    summary.duplicated_tasks.add(run.duplicated_tasks());
    summary.killed_maps.add(run.metrics.killed_map_attempts +
                            run.metrics.map_reexecutions);
    summary.killed_reduces.add(run.metrics.killed_reduce_attempts);
    summary.map_reexecutions.add(run.metrics.map_reexecutions);
    summary.avg_map_time_s.add(run.metrics.map_time_s.mean());
    summary.avg_shuffle_time_s.add(run.metrics.shuffle_time_s.mean());
    summary.avg_reduce_time_s.add(run.metrics.reduce_time_s.mean());
    summary.fetch_failures.add(run.metrics.fetch_failures);
    summary.checkpoints_written.add(run.metrics.checkpoints_written);
    summary.checkpoint_resumes.add(run.metrics.checkpoint_resumes);
    summary.checkpoint_salvaged.add(run.metrics.checkpoint_progress_salvaged);
    summary.scheduling_wall_ms.add(run.scheduling_wall_ms());
    if (run.finished) ++summary.completed_runs;
  }
  return summary;
}

}  // namespace moon::experiment
