// End-to-end golden equivalence for the timestamp-coalesced settle path:
// a full MOON scenario (trackers, DFS, churn, speculation) run across the
// whole fairness × solver × coalescing cube must produce bit-identical
// simulated outcomes — task launches, completion time, byte counters — with
// the eager/dense arms as the oracle. This is the scenario-level complement
// of tests/simkit/flow_network_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "experiment/scenario.hpp"

namespace moon::experiment {
namespace {

ScenarioConfig small_config(sim::FairnessModel fairness) {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 10;
  cfg.dedicated_nodes = 2;
  cfg.unavailability_rate = 0.3;
  cfg.sched = moon_scheduler(true);
  cfg.dfs = moon_dfs_config();
  cfg.fairness = fairness;
  cfg.app = workload::sleep_of(workload::sort_workload());
  cfg.app.num_maps = 20;
  cfg.app.input_size = 20 * kKiB;
  cfg.app.input_block_bytes = kKiB;
  cfg.app.map_compute = 20 * sim::kSecond;
  cfg.app.reduce_compute = 20 * sim::kSecond;
  cfg.seed = 20100621;
  cfg.max_sim_time = 4 * sim::kHour;
  return cfg;
}

RunResult run(sim::FairnessModel fairness, sim::SolverMode solver,
              sim::CoalesceMode coalesce) {
  ScenarioConfig cfg = small_config(fairness);
  cfg.solver = solver;
  cfg.coalesce = coalesce;
  return run_scenario(cfg);
}

class CoalesceEquivalenceTest
    : public ::testing::TestWithParam<sim::FairnessModel> {};

TEST_P(CoalesceEquivalenceTest, CubeMatchesEagerDenseOracle) {
  const sim::FairnessModel fairness = GetParam();
  const RunResult oracle =
      run(fairness, sim::SolverMode::kDense, sim::CoalesceMode::kEager);
  EXPECT_TRUE(oracle.finished);
  for (const sim::SolverMode solver :
       {sim::SolverMode::kDense, sim::SolverMode::kIncremental}) {
    for (const sim::CoalesceMode coalesce :
         {sim::CoalesceMode::kEager, sim::CoalesceMode::kCoalesced}) {
      if (solver == sim::SolverMode::kDense &&
          coalesce == sim::CoalesceMode::kEager) {
        continue;  // the oracle itself
      }
      SCOPED_TRACE(std::string(solver == sim::SolverMode::kDense
                                   ? "dense"
                                   : "incremental") +
                   (coalesce == sim::CoalesceMode::kEager ? "/eager"
                                                          : "/coalesced"));
      // Every simulated field (experiment::fingerprint) matches.
      EXPECT_EQ(fingerprint(run(fairness, solver, coalesce)),
                fingerprint(oracle));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fairness, CoalesceEquivalenceTest,
                         ::testing::Values(sim::FairnessModel::kMaxMin,
                                           sim::FairnessModel::kBottleneckShare),
                         [](const auto& suite_info) {
                           return suite_info.param == sim::FairnessModel::kMaxMin
                                      ? "MaxMin"
                                      : "BottleneckShare";
                         });

}  // namespace
}  // namespace moon::experiment
