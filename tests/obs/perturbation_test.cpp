// The observability layer's load-bearing guarantee: a run with tracing +
// metrics + log capture fully on is bit-identical, in every simulated
// outcome, to the same run with observability off. The sampler adds events
// to the queue but draws no randomness and mutates nothing; gauges only
// read; span/instant recording never feeds back. If any of that ever breaks
// — a gauge mutating state, the sampler disturbing FIFO ordering,
// instrumentation forking an RNG — this test catches it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "experiment/scenario.hpp"

namespace moon::experiment {
namespace {

ScenarioConfig small_config(const mapred::SchedulerConfig& sched,
                            std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 10;
  cfg.dedicated_nodes = 2;
  cfg.unavailability_rate = 0.3;
  cfg.sched = sched;
  cfg.dfs = moon_dfs_config();
  cfg.app = workload::sleep_of(workload::sort_workload());
  cfg.app.num_maps = 20;
  cfg.app.input_size = 20 * kKiB;
  cfg.app.input_block_bytes = kKiB;
  cfg.app.map_compute = 20 * sim::kSecond;
  cfg.app.reduce_compute = 20 * sim::kSecond;
  cfg.seed = seed;
  cfg.max_sim_time = 4 * sim::kHour;
  return cfg;
}

/// Everything on, at maximum verbosity: heartbeat instants, log capture at
/// kDebug, a short sampling cadence.
obs::ObsConfig all_on() {
  obs::ObsConfig o;
  o.trace = true;
  o.metrics = true;
  o.capture_log = true;
  o.trace_cfg.heartbeats = true;
  o.metrics_cfg.sample_interval = 5 * sim::kSecond;
  return o;
}

TEST(PerturbationTest, ObservabilityOnIsBitIdenticalToOff) {
  const struct {
    const char* name;
    mapred::SchedulerConfig sched;
  } policies[] = {
      {"moon_checkpoint", moon_checkpoint_scheduler(false)},
      {"hadoop_5min", hadoop_scheduler(5 * sim::kMinute)},
  };
  for (const auto& policy : policies) {
    for (std::uint64_t seed : {20100621u, 7u}) {
      SCOPED_TRACE(std::string(policy.name) + "/seed" + std::to_string(seed));
      ScenarioConfig off = small_config(policy.sched, seed);
      ScenarioConfig on = off;
      on.obs = all_on();

      const std::string baseline = fingerprint(run_scenario(off));
      const RunResult instrumented_run = run_scenario(on);
      EXPECT_EQ(fingerprint(instrumented_run), baseline);

      // And the instrumentation actually collected something — a vacuous
      // pass (obs silently disabled) must not count.
      ASSERT_NE(instrumented_run.obs, nullptr);
      ASSERT_NE(instrumented_run.obs->tracer(), nullptr);
      EXPECT_GT(instrumented_run.obs->tracer()->event_count(), 0u);
      ASSERT_NE(instrumented_run.obs->metrics(), nullptr);
      EXPECT_GT(instrumented_run.obs->metrics()->sample_count(), 0u);
      const auto* series =
          instrumented_run.obs->metrics()->series("cluster_utilization");
      ASSERT_NE(series, nullptr);
      EXPECT_GT(series->size(), 0u);
      EXPECT_GT(instrumented_run.obs->events().size(), 0u);
    }
  }
}

}  // namespace
}  // namespace moon::experiment
