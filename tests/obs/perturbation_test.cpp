// The observability layer's load-bearing guarantee: a run with tracing +
// metrics + log capture fully on is bit-identical, in every simulated
// outcome, to the same run with observability off. The sampler adds events
// to the queue but draws no randomness and mutates nothing; gauges only
// read; span/instant recording never feeds back. If any of that ever breaks
// — a gauge mutating state, the sampler disturbing FIFO ordering,
// instrumentation forking an RNG — this test catches it.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <thread>

#include "experiment/scenario.hpp"

namespace moon::experiment {
namespace {

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

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

/// Everything on, at maximum verbosity: heartbeat instants, log capture, a
/// short sampling cadence.
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

      // Each record's trace mirror carries the level the JSONL writes
      // ("info", "warn", …): per level, both exports count the same records.
      std::ostringstream jsonl;
      std::ostringstream trace;
      instrumented_run.obs->events().write_jsonl(jsonl);
      instrumented_run.obs->tracer()->write_chrome_trace(trace);
      for (const obs::Level level : {obs::Level::kDebug, obs::Level::kInfo,
                                     obs::Level::kWarn, obs::Level::kError}) {
        const std::string arg =
            std::string("\"level\":\"") + obs::level_name(level) + "\"";
        EXPECT_EQ(count_occurrences(trace.str(), arg),
                  count_occurrences(jsonl.str(), arg))
            << arg;
      }
    }
  }
}

/// Two obs-on runs on two threads reproduce the same seeds run one after
/// the other: runs share no state, so neither sees the other's records.
TEST(PerturbationTest, ConcurrentRunsMatchSerialRuns) {
  struct Outcome {
    std::string fingerprint;
    std::size_t events = 0;
  };
  const std::uint64_t seeds[2] = {20100621u, 7u};
  const auto run = [](std::uint64_t seed, Outcome& out) {
    ScenarioConfig cfg = small_config(moon_checkpoint_scheduler(false), seed);
    cfg.obs = all_on();
    const RunResult result = run_scenario(cfg);
    out.fingerprint = fingerprint(result);
    out.events = result.obs->events().size();
  };
  Outcome serial[2];
  for (int i = 0; i < 2; ++i) run(seeds[i], serial[i]);
  Outcome concurrent[2];
  std::thread first(run, seeds[0], std::ref(concurrent[0]));
  std::thread second(run, seeds[1], std::ref(concurrent[1]));
  first.join();
  second.join();
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("seed" + std::to_string(seeds[i]));
    EXPECT_GT(serial[i].events, 0u);
    EXPECT_EQ(concurrent[i].fingerprint, serial[i].fingerprint);
    EXPECT_EQ(concurrent[i].events, serial[i].events);
  }
}

}  // namespace
}  // namespace moon::experiment
