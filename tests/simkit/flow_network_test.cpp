#include "simkit/flow_network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/units.hpp"
#include "simkit/simulation.hpp"

namespace moon::sim {
namespace {

/// Runs both fairness models × both solver modes × both coalesce modes
/// through the same scenarios where their behaviour must agree
/// (single-bottleneck cases). Covering the dense/eager oracles here keeps
/// the equivalence test's references trustworthy.
class FlowModelTest
    : public ::testing::TestWithParam<
          std::tuple<FairnessModel, SolverMode, CoalesceMode>> {
 protected:
  /// Runs the end-of-timestamp flush: rates read mid-timestamp under
  /// kCoalesced are the allocation as of the last settle.
  void flush() { sim_.run_until(sim_.now()); }

  Simulation sim_;
  FlowNetwork net_{sim_, std::get<0>(GetParam()), std::get<1>(GetParam()),
                   std::get<2>(GetParam())};
};

TEST_P(FlowModelTest, SingleFlowFinishesAtExpectedTime) {
  const auto r = net_.add_resource(100.0);  // 100 B/s
  Time done_at = -1;
  net_.start_flow({r}, 1000, [&](FlowId) { done_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done_at, 10 * kSecond);
}

TEST_P(FlowModelTest, TwoFlowsShareACapacityEqually) {
  const auto r = net_.add_resource(100.0);
  std::vector<Time> done;
  net_.start_flow({r}, 1000, [&](FlowId) { done.push_back(sim_.now()); });
  net_.start_flow({r}, 1000, [&](FlowId) { done.push_back(sim_.now()); });
  sim_.run();
  ASSERT_EQ(done.size(), 2u);
  // Each gets 50 B/s -> both finish at ~20 s.
  EXPECT_NEAR(to_seconds(done[0]), 20.0, 0.01);
  EXPECT_NEAR(to_seconds(done[1]), 20.0, 0.01);
}

TEST_P(FlowModelTest, FlowCrossingTwoResourcesIsBottlenecked) {
  const auto fast = net_.add_resource(1000.0);
  const auto slow = net_.add_resource(10.0);
  Time done_at = -1;
  net_.start_flow({fast, slow}, 100, [&](FlowId) { done_at = sim_.now(); });
  sim_.run();
  EXPECT_NEAR(to_seconds(done_at), 10.0, 0.01);
}

TEST_P(FlowModelTest, EarlyFinisherReleasesCapacity) {
  const auto r = net_.add_resource(100.0);
  Time small_done = -1, large_done = -1;
  net_.start_flow({r}, 500, [&](FlowId) { small_done = sim_.now(); });
  net_.start_flow({r}, 1500, [&](FlowId) { large_done = sim_.now(); });
  sim_.run();
  // Shared at 50 B/s until t=10 (small ends); large then has 1000 B left at
  // 100 B/s -> ends at 20.
  EXPECT_NEAR(to_seconds(small_done), 10.0, 0.01);
  EXPECT_NEAR(to_seconds(large_done), 20.0, 0.01);
}

TEST_P(FlowModelTest, ZeroCapacityStallsFlow) {
  const auto r = net_.add_resource(100.0);
  bool done = false;
  const FlowId f = net_.start_flow({r}, 1000, [&](FlowId) { done = true; });
  net_.set_capacity(r, 0.0);
  sim_.run_until(1000 * kSecond);
  EXPECT_FALSE(done);
  EXPECT_EQ(net_.rate(f), 0.0);
  EXPECT_TRUE(net_.active(f));
}

TEST_P(FlowModelTest, StalledFlowResumesWhenCapacityReturns) {
  // A flow across r and w moves 500 bytes, stalls on r for 60 s, and then
  // finishes its 500 remaining bytes at 100 B/s. While it is stalled,
  // neither its remaining bytes nor either resource's counter may move, at
  // an accrual mid-stall (the start of an unrelated flow) or at the resume.
  const auto r = net_.add_resource(100.0);
  const auto w = net_.add_resource(200.0);
  const auto other = net_.add_resource(100.0);
  Time done_at = -1;
  const FlowId f =
      net_.start_flow({r, w}, 1000, [&](FlowId) { done_at = sim_.now(); });
  sim_.run_until(5 * kSecond);  // 500 bytes moved
  net_.set_capacity(r, 0.0);
  flush();
  const auto expect_frozen = [&] {
    EXPECT_EQ(net_.remaining(f), 500);
    EXPECT_EQ(net_.transferred_through(r), 500.0);
    EXPECT_EQ(net_.transferred_through(w), 500.0);
  };
  expect_frozen();
  sim_.run_until(30 * kSecond);
  net_.start_flow({other}, 100, [](FlowId) {});
  expect_frozen();
  sim_.run_until(65 * kSecond);  // stalled for 60 s
  net_.set_capacity(r, 100.0);
  expect_frozen();
  sim_.run();
  EXPECT_EQ(done_at, 70 * kSecond);
  EXPECT_EQ(net_.transferred_through(r), 1000.0);
  EXPECT_EQ(net_.transferred_through(w), 1000.0);
}

TEST_P(FlowModelTest, StalledFlowDoesNotStealCapacityFromLiveFlows) {
  // Two flows share resource r; one also crosses a dead resource and stalls.
  // The live flow must receive the full capacity of r.
  const auto r = net_.add_resource(100.0);
  const auto dead = net_.add_resource(0.0);
  Time live_done = -1;
  net_.start_flow({r, dead}, 1000, [](FlowId) {});
  net_.start_flow({r}, 1000, [&](FlowId) { live_done = sim_.now(); });
  sim_.run_until(30 * kSecond);
  EXPECT_NEAR(to_seconds(live_done), 10.0, 0.01);
}

TEST_P(FlowModelTest, AbortSuppressesCompletion) {
  const auto r = net_.add_resource(100.0);
  bool done = false;
  const FlowId f = net_.start_flow({r}, 1000, [&](FlowId) { done = true; });
  sim_.run_until(5 * kSecond);
  net_.abort_flow(f);
  sim_.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(net_.active(f));
}

TEST_P(FlowModelTest, AbortFreesCapacityForRemainingFlows) {
  const auto r = net_.add_resource(100.0);
  Time done_at = -1;
  const FlowId victim = net_.start_flow({r}, 10000, [](FlowId) {});
  net_.start_flow({r}, 1000, [&](FlowId) { done_at = sim_.now(); });
  sim_.run_until(5 * kSecond);  // survivor moved 250 bytes
  net_.abort_flow(victim);
  sim_.run();
  // 750 bytes left at 100 B/s -> total 12.5 s.
  EXPECT_NEAR(to_seconds(done_at), 12.5, 0.01);
}

TEST_P(FlowModelTest, RemainingDecreasesMonotonically) {
  const auto r = net_.add_resource(100.0);
  const FlowId f = net_.start_flow({r}, 1000, [](FlowId) {});
  Bytes prev = net_.remaining(f);
  for (int i = 1; i <= 9; ++i) {
    sim_.run_until(i * kSecond);
    const Bytes now = net_.remaining(f);
    EXPECT_LE(now, prev);
    prev = now;
  }
}

TEST_P(FlowModelTest, ZeroSizeFlowCompletesAsynchronously) {
  const auto r = net_.add_resource(100.0);
  bool done_in_start = false;
  bool done = false;
  net_.start_flow({r}, 0, [&](FlowId) { done = true; });
  done_in_start = done;  // must not have completed synchronously
  sim_.run();
  EXPECT_FALSE(done_in_start);
  EXPECT_TRUE(done);
}

TEST_P(FlowModelTest, CompletionCallbackMayStartNewFlow) {
  const auto r = net_.add_resource(100.0);
  Time second_done = -1;
  net_.start_flow({r}, 100, [&](FlowId) {
    net_.start_flow({r}, 100, [&](FlowId) { second_done = sim_.now(); });
  });
  sim_.run();
  EXPECT_NEAR(to_seconds(second_done), 2.0, 0.01);
}

TEST_P(FlowModelTest, TransferredThroughAccumulates) {
  const auto r = net_.add_resource(100.0);
  net_.start_flow({r}, 500, [](FlowId) {});
  sim_.run();
  EXPECT_NEAR(net_.transferred_through(r), 500.0, 1.0);
  net_.start_flow({r}, 300, [](FlowId) {});
  sim_.run();
  EXPECT_NEAR(net_.transferred_through(r), 800.0, 1.0);
}

TEST_P(FlowModelTest, StalledFlowsDoNotPinLoadCounts) {
  // Regression for the bottleneck-share stalled-flow exclusion: flows with a
  // zero-capacity resource on their path must not be counted in the load of
  // the live resources they cross (without the exclusion the live flow below
  // would be pinned to a third of the capacity it can actually use).
  const auto r = net_.add_resource(100.0);
  const auto down1 = net_.add_resource(100.0);
  const auto down2 = net_.add_resource(100.0);
  const FlowId stalled1 = net_.start_flow({r, down1}, 1'000'000, [](FlowId) {});
  const FlowId stalled2 = net_.start_flow({r, down2}, 1'000'000, [](FlowId) {});
  const FlowId live = net_.start_flow({r}, 1'000'000, [](FlowId) {});
  net_.set_capacity(down1, 0.0);
  net_.set_capacity(down2, 0.0);
  flush();
  EXPECT_EQ(net_.rate(stalled1), 0.0);
  EXPECT_EQ(net_.rate(stalled2), 0.0);
  EXPECT_NEAR(net_.rate(live), 100.0, 0.01);
  // Reviving one endpoint re-admits exactly that flow to the shared count.
  net_.set_capacity(down1, 100.0);
  flush();
  EXPECT_NEAR(net_.rate(stalled1), 50.0, 0.01);
  EXPECT_NEAR(net_.rate(live), 50.0, 0.01);
  EXPECT_EQ(net_.rate(stalled2), 0.0);
}

TEST_P(FlowModelTest, CompletionCallbackMayAbortFlowsMidSettle) {
  const auto r = net_.add_resource(100.0);
  bool victim_done = false;
  Time third_done = -1;
  const FlowId victim =
      net_.start_flow({r}, 100000, [&](FlowId) { victim_done = true; });
  // The short flow finishes first and kills the victim from inside the
  // settle's retire cascade.
  net_.start_flow({r}, 500, [&](FlowId) { net_.abort_flow(victim); });
  net_.start_flow({r}, 2000, [&](FlowId) { third_done = sim_.now(); });
  sim_.run();
  EXPECT_FALSE(victim_done);
  // Three-way share (33.3 B/s) until t=15 (short flow ends, victim dies);
  // the survivor then has 1500 bytes left at the full 100 B/s -> t=30.
  EXPECT_NEAR(to_seconds(third_done), 30.0, 0.01);
}

TEST_P(FlowModelTest, CompletionCallbackMayChangeCapacityMidSettle) {
  const auto r = net_.add_resource(100.0);
  Time done_at = -1;
  net_.start_flow({r}, 400, [&](FlowId) { net_.set_capacity(r, 25.0); });
  net_.start_flow({r}, 1000, [&](FlowId) { done_at = sim_.now(); });
  sim_.run();
  // Shared at 50 B/s until t=8 (first ends and shrinks the capacity); the
  // survivor's 600 remaining bytes then move at 25 B/s -> t=32.
  EXPECT_NEAR(to_seconds(done_at), 32.0, 0.01);
}

TEST_P(FlowModelTest, ResourcelessFlowCompletesImmediately) {
  bool done = false;
  net_.start_flow({}, 1000, [&](FlowId) { done = true; });
  EXPECT_FALSE(done);  // still asynchronous
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim_.now(), 0);
}

TEST_P(FlowModelTest, CapacityBatchAppliesChurnInOneSettle) {
  const auto a = net_.add_resource(100.0);
  const auto b = net_.add_resource(100.0);
  const FlowId f = net_.start_flow({a, b}, 100000, [](FlowId) {});
  flush();
  {
    FlowNetwork::CapacityBatch batch(net_);
    net_.set_capacity(a, 0.0);
    net_.set_capacity(b, 40.0);
    // While the batch is open rates are the last settled (pre-batch)
    // allocation.
    EXPECT_NEAR(net_.rate(f), 100.0, 0.01);
    batch.close();  // explicit close; the destructor becomes a no-op
    flush();
    EXPECT_EQ(net_.rate(f), 0.0);
  }
  EXPECT_EQ(net_.rate(f), 0.0);  // a is down
  net_.set_capacity(a, 80.0);
  flush();
  EXPECT_NEAR(net_.rate(f), 40.0, 0.01);
}

TEST_P(FlowModelTest, NestedCapacityBatchesSettleOnce) {
  const auto a = net_.add_resource(100.0);
  const FlowId f = net_.start_flow({a}, 100000, [](FlowId) {});
  flush();
  {
    FlowNetwork::CapacityBatch outer(net_);
    net_.set_capacity(a, 10.0);
    {
      FlowNetwork::CapacityBatch inner(net_);
      net_.set_capacity(a, 20.0);
    }
    // The inner batch close must not settle while the outer one is open.
    EXPECT_NEAR(net_.rate(f), 100.0, 0.01);
  }
  flush();
  EXPECT_NEAR(net_.rate(f), 20.0, 0.01);
}

TEST_P(FlowModelTest, ManyFlowsAllComplete) {
  const auto a = net_.add_resource(1000.0);
  const auto b = net_.add_resource(500.0);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    net_.start_flow({i % 2 == 0 ? a : b, i % 3 == 0 ? b : a}, 100 + i * 10,
                    [&](FlowId) { ++completed; });
  }
  sim_.run();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(net_.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Models, FlowModelTest,
    ::testing::Combine(::testing::Values(FairnessModel::kMaxMin,
                                         FairnessModel::kBottleneckShare),
                       ::testing::Values(SolverMode::kIncremental,
                                         SolverMode::kDense),
                       ::testing::Values(CoalesceMode::kCoalesced,
                                         CoalesceMode::kEager)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param) == FairnessModel::kMaxMin
                             ? "MaxMin"
                             : "BottleneckShare";
      name += std::get<1>(param_info.param) == SolverMode::kIncremental
                  ? "Incremental"
                  : "Dense";
      name += std::get<2>(param_info.param) == CoalesceMode::kCoalesced
                  ? "Coalesced"
                  : "Eager";
      return name;
    });

// ---- max-min-specific behaviour -------------------------------------------

TEST(FlowMaxMin, ResidualCapacityIsRedistributed) {
  Simulation sim;
  FlowNetwork net(sim, FairnessModel::kMaxMin);
  // Flow A crosses narrow (10 B/s) and wide (100 B/s); flow B crosses wide
  // only. Max-min: A gets 10, B gets the residual 90.
  const auto narrow = net.add_resource(10.0);
  const auto wide = net.add_resource(100.0);
  const FlowId a = net.start_flow({narrow, wide}, 1000000, [](FlowId) {});
  const FlowId b = net.start_flow({wide}, 1000000, [](FlowId) {});
  sim.run_until(sim.now());
  EXPECT_NEAR(net.rate(a), 10.0, 0.01);
  EXPECT_NEAR(net.rate(b), 90.0, 0.01);
}

TEST(FlowBottleneckShare, ApproximationIsConservative) {
  Simulation sim;
  FlowNetwork net(sim, FairnessModel::kBottleneckShare);
  const auto narrow = net.add_resource(10.0);
  const auto wide = net.add_resource(100.0);
  const FlowId a = net.start_flow({narrow, wide}, 1000000, [](FlowId) {});
  const FlowId b = net.start_flow({wide}, 1000000, [](FlowId) {});
  sim.run_until(sim.now());
  // A is bottlenecked at 10; B gets wide/2 = 50 (no residual redistribution),
  // so the approximation never over-subscribes: 10 + 50 <= 100.
  EXPECT_NEAR(net.rate(a), 10.0, 0.01);
  EXPECT_NEAR(net.rate(b), 50.0, 0.01);
}

// ---- work counter ----------------------------------------------------------

TEST(FlowWorkCounter, LiveChurnNeverCountsFlowsStalledElsewhere) {
  for (const FairnessModel model :
       {FairnessModel::kMaxMin, FairnessModel::kBottleneckShare}) {
    for (const SolverMode solver : {SolverMode::kIncremental, SolverMode::kDense}) {
      const bool dense = solver == SolverMode::kDense;
      SCOPED_TRACE(std::string(model == FairnessModel::kMaxMin ? "max-min" : "bshare") +
                   (dense ? "/dense" : "/incremental"));
      Simulation sim;
      FlowNetwork net(sim, model, solver, CoalesceMode::kEager);
      // `shared` carries one live flow and five flows that also cross the
      // down resource `dead`; `dead` reaches a second live resource `other`
      // through five more stalled flows, and `other` has a live flow too.
      const auto shared = net.add_resource(100.0);
      const auto dead = net.add_resource(0.0);
      const auto other = net.add_resource(100.0);
      const FlowId live = net.start_flow({shared}, 1'000'000, [](FlowId) {});
      for (int i = 0; i < 5; ++i) {
        net.start_flow({shared, dead}, 1'000'000, [](FlowId) {});
        net.start_flow({other, dead}, 1'000'000, [](FlowId) {});
      }
      net.start_flow({other}, 1'000'000, [](FlowId) {});

      // A second live flow joins `shared`: the incremental solvers re-solve
      // the two live flows there; the dense oracle fills all 13.
      std::uint64_t before = net.solved_flows();
      const FlowId joined = net.start_flow({shared}, 1'000'000, [](FlowId) {});
      EXPECT_EQ(net.solved_flows() - before, dense ? 13u : 2u);
      EXPECT_NEAR(net.rate(live), 50.0, 0.01);
      EXPECT_NEAR(net.rate(joined), 50.0, 0.01);

      before = net.solved_flows();
      net.set_capacity(shared, 60.0);
      EXPECT_EQ(net.solved_flows() - before, dense ? 13u : 2u);
      EXPECT_NEAR(net.rate(live), 30.0, 0.01);
    }
  }
}

TEST(FlowWorkCounter, AccrualVisitsOnlyMovingFlows) {
  for (const FairnessModel model :
       {FairnessModel::kMaxMin, FairnessModel::kBottleneckShare}) {
    for (const SolverMode solver : {SolverMode::kIncremental, SolverMode::kDense}) {
      for (const CoalesceMode coalesce :
           {CoalesceMode::kCoalesced, CoalesceMode::kEager}) {
        const bool dense = solver == SolverMode::kDense;
        SCOPED_TRACE(std::string(model == FairnessModel::kMaxMin ? "max-min" : "bshare") +
                     (dense ? "/dense" : "/incremental") +
                     (coalesce == CoalesceMode::kCoalesced ? "/coalesced" : "/eager"));
        Simulation sim;
        FlowNetwork net(sim, model, solver, coalesce);
        // f1 and f2 move at 100 B/s; f3 crosses the down resource `dead`.
        const auto a = net.add_resource(100.0);
        const auto b = net.add_resource(100.0);
        const auto dead = net.add_resource(0.0);
        std::vector<Time> done(3, -1);
        net.start_flow({a}, 1000, [&](FlowId) { done[0] = sim.now(); });
        net.start_flow({b}, 2000, [&](FlowId) { done[1] = sim.now(); });
        net.start_flow({a, dead}, 1000, [&](FlowId) { done[2] = sim.now(); });
        EXPECT_EQ(net.accrued_flows(), 0u);  // no time has passed

        // Accruals at t=10 (f1 done) and t=20 (f2 done): the dense oracle
        // visits 3 + 2 live flows, the index 2 + 1 moving ones.
        sim.run_until(30 * kSecond);
        EXPECT_EQ(done[0], 10 * kSecond);
        EXPECT_EQ(done[1], 20 * kSecond);
        EXPECT_EQ(net.accrued_flows(), dense ? 5u : 3u);

        // Reviving `dead` accrues over the stalled f3 (dense visits it, the
        // index is empty); its completion at t=40 visits f3 in both.
        net.set_capacity(dead, 100.0);
        EXPECT_EQ(net.accrued_flows(), dense ? 6u : 3u);
        sim.run();
        EXPECT_EQ(done[2], 40 * kSecond);
        EXPECT_EQ(net.accrued_flows(), dense ? 7u : 4u);
      }
    }
  }
}

TEST(FlowNetwork, InvalidResourceThrows) {
  Simulation sim;
  FlowNetwork net(sim);
  EXPECT_THROW(net.start_flow({99}, 10, nullptr), std::out_of_range);
  EXPECT_THROW(net.add_resource(-1.0), std::logic_error);
}

TEST(FlowNetwork, RateOfUnknownFlowIsZero) {
  Simulation sim;
  FlowNetwork net(sim);
  EXPECT_EQ(net.rate(FlowId{12345}), 0.0);
  EXPECT_EQ(net.remaining(FlowId{12345}), 0);
  EXPECT_FALSE(net.active(FlowId{12345}));
}

}  // namespace
}  // namespace moon::sim
