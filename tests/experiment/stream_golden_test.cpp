// Job-stream golden: a small overloaded stream with hibernation, adaptive
// replication (declined dedicated writes raise v'), node deaths, job GC and
// an auditor sweep every simulated minute. Its fingerprint is pinned, so
// any change to the NameNode's sweeps (estimate-scan refresh, hibernation
// and death re-replication) that reorders the replication queue or changes
// a simulated outcome fails here. The counter assertions keep the golden from
// going vacuous: every sweep it guards must actually run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "experiment/multi_job.hpp"

namespace moon::experiment {
namespace {

workload::WorkloadModel stream_sort(const std::string& name, int priority) {
  workload::WorkloadModel m;
  m.name = name;
  m.kind = workload::AppKind::kSort;
  m.num_maps = 8;
  m.fixed_reduces = 2;
  m.map_compute = sim::seconds(20);
  m.reduce_compute = sim::seconds(30);
  m.intermediate_per_map = mib(1.0);
  m.input_size = static_cast<Bytes>(m.num_maps) * mib(2.0);
  m.total_output = mib(4.0);
  m.input_block_bytes = mib(2.0);
  m.priority = priority;
  return m;
}

/// 10 volatile + 2 dedicated at 0.3 unavailability, a 1 h Poisson stream
/// (mean gap 20 s) against a 4-live-job cap, retired jobs collected.
MultiJobConfig stream_config(std::uint64_t seed) {
  MultiJobConfig cfg;
  cfg.base.volatile_nodes = 10;
  cfg.base.dedicated_nodes = 2;
  cfg.base.sched = moon_scheduler(true);
  cfg.base.dfs = moon_dfs_config();
  cfg.base.input_factor = {1, 2};
  cfg.base.output_factor = {1, 2};
  cfg.base.unavailability_rate = 0.3;
  cfg.base.seed = seed;
  cfg.base.max_sim_time = sim::kHour;
  cfg.base.faults.enabled = true;  // no fault class on: only the auditor
  cfg.base.faults.audit_interval = sim::kMinute;
  cfg.base.sched.admission.enabled = true;
  cfg.base.sched.admission.max_queued_jobs = 4;
  cfg.arrivals.num_jobs = 0;
  cfg.arrivals.first_arrival = sim::kMinute;
  cfg.arrivals.mean_interarrival = 20 * sim::kSecond;
  cfg.arrivals.round_robin_mix = true;
  cfg.arrivals.mix = {{stream_sort("lo", 0), 1.0}, {stream_sort("hi", 2), 1.0}};
  cfg.retain_job_results = false;
  return cfg;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(StreamGolden, NameNodeSweepsPinned) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t want;
  };
  const Case cases[] = {{3, 0xac390831aef5db94ull}, {7, 0x298fa31439e867e0ull}};
  for (const Case& c : cases) {
    SCOPED_TRACE("seed=" + std::to_string(c.seed));
    const MultiJobResult r = run_multi_job_scenario(stream_config(c.seed));
    EXPECT_GT(r.dfs_stats.adaptive_v_raises, 0);
    EXPECT_GT(r.dfs_stats.hibernate_transitions, 0);
    EXPECT_GT(r.dfs_stats.dead_transitions, 0);
    EXPECT_GT(r.jobs_retired, 0);
    EXPECT_GT(r.audit_passes, 0);
    EXPECT_EQ(r.audit_violations, 0);
    EXPECT_EQ(fnv1a(fingerprint(r)), c.want) << std::hex << fnv1a(fingerprint(r));
  }
}

}  // namespace
}  // namespace moon::experiment
