// Chaos determinism: the fault injector draws from its own seeded RNG
// streams, so the same (config, seed) must replay the exact same faults and
// the exact same simulated outcome — and each fault class draws from its own
// fork, so enabling one class never perturbs another's schedule.
#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "workload/workload.hpp"

namespace moon::experiment {
namespace {

ScenarioConfig chaos_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 12;
  cfg.dedicated_nodes = 2;
  cfg.unavailability_rate = 0.3;
  cfg.sched = moon_checkpoint_scheduler(false);
  cfg.sched.quarantine_threshold = 3;
  cfg.dfs = moon_dfs_config();
  cfg.app = workload::sleep_of(workload::sort_workload());
  cfg.app.num_maps = 20;
  cfg.app.input_size = 20 * kKiB;
  cfg.app.input_block_bytes = kKiB;
  cfg.app.map_compute = 20 * sim::kSecond;
  cfg.app.reduce_compute = 30 * sim::kSecond;
  cfg.seed = seed;
  cfg.max_sim_time = 4 * sim::kHour;

  cfg.faults.enabled = true;
  cfg.faults.outages.enabled = true;
  cfg.faults.outages.group_size = 4;
  cfg.faults.outages.mean_interval = 3 * sim::kMinute;
  cfg.faults.outages.mean_outage = 60 * sim::kSecond;
  cfg.faults.heartbeats.enabled = true;
  cfg.faults.heartbeats.drop_probability = 0.1;
  cfg.faults.heartbeats.delay_probability = 0.1;
  cfg.faults.storage.enabled = true;
  cfg.faults.storage.corrupt_probability = 0.05;
  cfg.faults.storage.reject_probability = 0.05;
  cfg.faults.stragglers.enabled = true;
  cfg.faults.stragglers.fraction = 0.25;
  cfg.faults.audit_interval = 60 * sim::kSecond;
  return cfg;
}

TEST(ChaosDeterminism, SameSeedSameChaosSameOutcome) {
  for (std::uint64_t seed : {20100621u, 7u}) {
    const RunResult a = run_scenario(chaos_config(seed));
    const RunResult b = run_scenario(chaos_config(seed));
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // Every simulated field, the injected faults themselves included.
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    EXPECT_GT(a.fault_stats.total_injected(), 0);  // non-vacuous
    EXPECT_EQ(a.audit_violations, 0);
  }
}

TEST(ChaosDeterminism, DifferentSeedsInjectDifferentChaos) {
  const RunResult a = run_scenario(chaos_config(20100621u));
  const RunResult b = run_scenario(chaos_config(7u));
  EXPECT_NE(a.fault_stats.heartbeats_dropped + a.fault_stats.total_injected(),
            b.fault_stats.heartbeats_dropped + b.fault_stats.total_injected());
}

// Per-class stream independence: switching the storage class off must not
// move a single outage or straggler draw (each class forks its own RNG).
TEST(ChaosDeterminism, ClassStreamsAreIndependent) {
  ScenarioConfig with = chaos_config(20100621u);
  ScenarioConfig without = chaos_config(20100621u);
  without.faults.storage.enabled = false;
  const RunResult a = run_scenario(with);
  const RunResult b = run_scenario(without);
  EXPECT_EQ(b.fault_stats.replicas_corrupted, 0);
  EXPECT_EQ(b.fault_stats.writes_rejected, 0);
  // Stragglers are picked at arm() time from their own stream: identical
  // regardless of the storage class. (Outage *counts* can differ because
  // storage faults change how long the run lasts.)
  EXPECT_EQ(a.fault_stats.stragglers_injected,
            b.fault_stats.stragglers_injected);
}

}  // namespace
}  // namespace moon::experiment
