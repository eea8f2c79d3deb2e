// Golden equivalence: the incremental solver and the timestamp-coalesced
// settle path must reproduce the dense/eager reference *bit for bit* —
// identical completion order and times, identical rates at every sample
// point, identical per-resource transferred bytes — for both fairness
// models, under seeded random churn of flow starts, aborts, capacity
// changes, and batched node-style availability flips. The script includes
// zero-delta steps, so same-timestamp churn bursts (the case coalescing
// exists for) are exercised, as are flushes interleaved into a burst. At
// every sample, each arm also checks that the settle-free stall query
// agrees with the settled allocation: `stalled(f) == (rate(f) == 0.0)`.
//
// The driver pre-generates one scripted churn sequence (pure data), then
// replays it against four independent Simulation+FlowNetwork stacks
// spanning SolverMode × CoalesceMode. Abort/start targets are picked by
// indexing the driver's own live-flow list with the scripted draws, so the
// runs stay in lockstep exactly as long as their observable behaviour is
// identical — any divergence cascades into mismatched logs.
//
// A second, stall-heavy script keeps about half the nodes down and drives
// the cases where the incremental solvers treat stalled flows and down
// resources as cuts: flows started onto down resources (one or both
// endpoints, duplicate path entries on a down resource), aborts of stalled
// flows, a down/up flip inside one CapacityBatch, and a capacity going
// zero -> nonzero -> zero within one timestamp.
#include "simkit/flow_network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "simkit/simulation.hpp"

namespace moon::sim {
namespace {

constexpr int kNodes = 24;  // 3 resources each: nic_in, nic_out, disk
constexpr int kSteps = 600;

enum class Kind {
  kStart,
  kAbort,
  kSetCapacity,
  kNodeFlip,
  kSample,
  // Stall-heavy script only:
  kStartOntoDown,      // src down; sometimes dst too, sometimes a duplicate entry
  kAbortStalled,       // abort a flow that crosses a zero-capacity resource
  kFlipAndBack,        // node down and back up (or up and back down) in one batch
  kCapacityBounce,     // one resource 0 -> nonzero -> 0 at one timestamp
};

struct Action {
  Time at;
  Kind kind;
  std::uint64_t a, b, c;  // raw draws, interpreted against each run's state
};

/// Action mix: a roll in [0, 100) picks the first entry whose `below`
/// exceeds it.
struct MixEntry {
  std::int64_t below;
  Kind kind;
};
using Mix = std::vector<MixEntry>;

const Mix kChurnMix = {{40, Kind::kStart},
                       {55, Kind::kAbort},
                       {70, Kind::kSetCapacity},
                       {85, Kind::kNodeFlip},
                       {100, Kind::kSample}};

const Mix kStallMix = {{25, Kind::kStart},        {40, Kind::kStartOntoDown},
                       {48, Kind::kAbort},        {56, Kind::kAbortStalled},
                       {64, Kind::kSetCapacity},  {76, Kind::kNodeFlip},
                       {82, Kind::kFlipAndBack},  {88, Kind::kCapacityBounce},
                       {100, Kind::kSample}};

/// One step in `same_instant_odds` lands on the previous step's timestamp,
/// so several actions share one virtual timestamp.
std::vector<Action> make_script(std::uint64_t seed, const Mix& mix = kChurnMix,
                                std::int64_t same_instant_odds = 3) {
  Rng rng{seed};
  std::vector<Action> script;
  Time t = 0;
  for (int i = 0; i < kSteps; ++i) {
    t += rng.uniform_int(0, same_instant_odds - 1) == 0
             ? 0
             : rng.uniform_int(1, 400) * kMillisecond;
    const auto roll = rng.uniform_int(0, 99);
    Kind kind = mix.back().kind;
    for (const MixEntry& e : mix) {
      if (roll < e.below) {
        kind = e.kind;
        break;
      }
    }
    script.push_back(Action{t, kind,
                            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)),
                            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)),
                            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30))});
  }
  return script;
}

std::vector<Action> make_stall_script(std::uint64_t seed) {
  // Every other node starts down, so flows stall from the first step on.
  std::vector<Action> script;
  for (int n = 0; n < kNodes; n += 2) {
    script.push_back(Action{0, Kind::kNodeFlip, static_cast<std::uint64_t>(n), 0, 0});
  }
  for (const Action& act : make_script(seed, kStallMix, 2)) script.push_back(act);
  return script;
}

/// One replay of the script: owns the sim, the net, and the observation logs.
struct Replay {
  Simulation sim;
  FlowNetwork net;
  std::vector<FlowNetwork::ResourceId> resources;  // 3 per node
  std::vector<bool> node_up;
  std::vector<double> caps;                     // capacities as set, per resource
  std::vector<FlowId> live;                     // driver's view of active flows
  std::map<FlowId, std::vector<FlowNetwork::ResourceId>> paths;
  int stalled_starts = 0;                       // flows started onto a down resource
  std::vector<std::pair<FlowId, Time>> completions;
  std::vector<double> samples;                  // rates + remaining at kSample
  int stall_query_mismatches = 0;               // stalled(f) != (rate(f) == 0)
  int chained = 0;

  // A node's resources at full capacity: nic_in, nic_out, disk.
  static constexpr double kUpCaps[3] = {mibps(80.0), mibps(80.0), mibps(30.0)};

  Replay(FairnessModel model, SolverMode solver, CoalesceMode coalesce)
      : net(sim, model, solver, coalesce) {
    for (int n = 0; n < kNodes; ++n) {
      for (const double cap : kUpCaps) {
        resources.push_back(net.add_resource(cap));
        caps.push_back(cap);
      }
      node_up.push_back(true);
    }
  }

  void set_capacity(std::size_t r, double cap) {
    net.set_capacity(resources[r], cap);
    caps[r] = cap;
  }

  void set_node(std::size_t n, bool up) {
    for (std::size_t k = 0; k < 3; ++k) set_capacity(n * 3 + k, up ? kUpCaps[k] : 0.0);
  }

  [[nodiscard]] bool stalled(FlowId f) const {
    for (const auto r : paths.at(f)) {
      if (caps[r] == 0.0) return true;
    }
    return false;
  }

  void start(std::uint64_t a, std::uint64_t b, std::uint64_t c, bool chain) {
    const auto src = a % kNodes;
    const auto dst = b % kNodes;
    std::vector<FlowNetwork::ResourceId> path{resources[src * 3 + 1],
                                              resources[dst * 3 + 0]};
    if (c % 2 == 0) path.push_back(resources[dst * 3 + 2]);  // + target disk
    start_path(std::move(path), c, chain);
  }

  /// A flow whose source is a down node: with `c % 3 == 0` the destination
  /// is down too, with `c % 4 == 1` the source NIC appears twice on the path.
  void start_onto_down(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    std::vector<std::size_t> down;
    for (std::size_t n = 0; n < node_up.size(); ++n) {
      if (!node_up[n]) down.push_back(n);
    }
    if (down.empty()) return start(a, b, c, /*chain=*/false);
    const auto src = down[a % down.size()];
    const auto dst = c % 3 == 0 ? down[b % down.size()] : b % kNodes;
    std::vector<FlowNetwork::ResourceId> path{resources[src * 3 + 1],
                                              resources[dst * 3 + 0]};
    if (c % 4 == 1) path.push_back(resources[src * 3 + 1]);
    if (c % 2 == 0) path.push_back(resources[dst * 3 + 2]);
    start_path(std::move(path), c, /*chain=*/false);
  }

  void start_path(std::vector<FlowNetwork::ResourceId> path, std::uint64_t c,
                  bool chain) {
    const Bytes size =
        static_cast<Bytes>(1 + c % static_cast<std::uint64_t>(mib(4.0)));
    const FlowId id = net.start_flow(path, size, [this, chain](FlowId f) {
      completions.emplace_back(f, sim.now());
      std::erase(live, f);
      paths.erase(f);
      // Exercise completion-driven churn: some completions immediately start
      // a successor, from inside the settle's retire cascade.
      if (chain && ++chained % 3 == 0) {
        start(static_cast<std::uint64_t>(chained) * 2654435761u,
              static_cast<std::uint64_t>(chained) * 40503u + 7, 1 + chained % 9,
              false);
      }
    });
    live.push_back(id);
    paths.emplace(id, std::move(path));
    if (stalled(id)) ++stalled_starts;
  }

  /// Records a settled rate and checks the stall query against it.
  void sample_rate(FlowId f) {
    samples.push_back(net.rate(f));
    if (net.stalled(f) != (net.rate(f) == 0.0)) ++stall_query_mismatches;
  }

  void abort(FlowId victim) {
    net.abort_flow(victim);
    std::erase(live, victim);
    paths.erase(victim);
  }

  void apply(const Action& act) {
    sim.run_until(act.at);
    switch (act.kind) {
      case Kind::kStart:
        start(act.a, act.b, act.c, /*chain=*/true);
        break;
      case Kind::kAbort: {
        if (live.empty()) break;
        abort(live[act.a % live.size()]);
        break;
      }
      case Kind::kSetCapacity: {
        const double choices[] = {0.0, mibps(20.0), mibps(55.0), mibps(80.0)};
        set_capacity(act.a % resources.size(), choices[act.b % 4]);
        break;
      }
      case Kind::kNodeFlip: {
        // Node-style availability transition: all three resources in one
        // batched settle, like Node::set_available.
        const auto n = act.a % kNodes;
        const bool up = !node_up[n];
        node_up[n] = up;
        FlowNetwork::CapacityBatch batch(net);
        set_node(n, up);
        break;
      }
      case Kind::kStartOntoDown:
        start_onto_down(act.a, act.b, act.c);
        break;
      case Kind::kAbortStalled: {
        std::vector<FlowId> stalled_flows;
        for (const FlowId f : live) {
          if (stalled(f)) stalled_flows.push_back(f);
        }
        if (!stalled_flows.empty()) abort(stalled_flows[act.a % stalled_flows.size()]);
        break;
      }
      case Kind::kFlipAndBack: {
        // Both transitions inside one batch, with a flow started onto the
        // node in between; the node ends where it began.
        const auto n = act.a % kNodes;
        FlowNetwork::CapacityBatch batch(net);
        set_node(n, !node_up[n]);
        if (act.b % 2 == 0) start(n, act.b, act.c, /*chain=*/false);
        set_node(n, node_up[n]);
        break;
      }
      case Kind::kCapacityBounce: {
        // Unbatched, so eager arms settle at every step; a mid-bounce flush
        // settles a coalesced arm before the sample reads a rate.
        const auto r = act.a % resources.size();
        set_capacity(r, 0.0);
        set_capacity(r, kUpCaps[r % 3] * static_cast<double>(1 + act.b % 3) / 3.0);
        if (act.c % 2 == 0 && !live.empty()) {
          sim.run_until(sim.now());
          sample_rate(live[act.c % live.size()]);
        }
        set_capacity(r, 0.0);
        break;
      }
      case Kind::kSample:
        for (const FlowId f : live) {
          sample_rate(f);
          samples.push_back(static_cast<double>(net.remaining(f)));
        }
        break;
    }
  }
};

/// Replays `script` on all four SolverMode x CoalesceMode stacks and checks
/// every arm against the dense/eager reference, bit for bit. Reports the
/// reference replay's stalled-start count so callers can check coverage.
void expect_modes_match(FairnessModel model, const std::vector<Action>& script,
                        int* stalled_starts = nullptr) {
  // Reference first: dense solver, eager settles — the pre-optimization
  // configuration both axes are measured against.
  std::vector<std::unique_ptr<Replay>> replays;
  std::vector<std::string> labels;
  for (const SolverMode solver : {SolverMode::kDense, SolverMode::kIncremental}) {
    for (const CoalesceMode coalesce :
         {CoalesceMode::kEager, CoalesceMode::kCoalesced}) {
      replays.push_back(std::make_unique<Replay>(model, solver, coalesce));
      labels.push_back(std::string(solver == SolverMode::kDense ? "dense"
                                                                : "incremental") +
                       (coalesce == CoalesceMode::kEager ? "/eager"
                                                         : "/coalesced"));
    }
  }
  for (const Action& act : script) {
    for (auto& replay : replays) replay->apply(act);
  }
  // Drain: let every still-live unstalled flow finish.
  for (auto& replay : replays) replay->sim.run();

  for (std::size_t v = 0; v < replays.size(); ++v) {
    EXPECT_EQ(replays[v]->stall_query_mismatches, 0) << labels[v];
  }
  const Replay& ref = *replays.front();
  if (stalled_starts != nullptr) *stalled_starts = ref.stalled_starts;
  EXPECT_GT(ref.completions.size(), 50u);  // meaningful churn ran
  for (std::size_t v = 1; v < replays.size(); ++v) {
    const Replay& arm = *replays[v];
    SCOPED_TRACE(labels[v] + " vs " + labels[0]);
    EXPECT_EQ(arm.stalled_starts, ref.stalled_starts);
    ASSERT_EQ(arm.completions.size(), ref.completions.size());
    for (std::size_t i = 0; i < ref.completions.size(); ++i) {
      EXPECT_EQ(arm.completions[i].first, ref.completions[i].first)
          << "completion order diverged at #" << i;
      EXPECT_EQ(arm.completions[i].second, ref.completions[i].second)
          << "completion time diverged at #" << i;
    }
    ASSERT_EQ(arm.samples.size(), ref.samples.size());
    for (std::size_t i = 0; i < ref.samples.size(); ++i) {
      EXPECT_EQ(arm.samples[i], ref.samples[i])  // exact, not NEAR
          << "rate/remaining sample diverged at #" << i;
    }
    ASSERT_EQ(arm.resources.size(), ref.resources.size());
    for (std::size_t r = 0; r < ref.resources.size(); ++r) {
      EXPECT_EQ(arm.net.transferred_through(arm.resources[r]),
                ref.net.transferred_through(ref.resources[r]))
          << "transferred bytes diverged on resource " << r;
    }
    ASSERT_EQ(arm.live.size(), ref.live.size());
    EXPECT_EQ(arm.net.active_flows(), ref.net.active_flows());
  }
}

class FlowEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<FairnessModel, std::uint64_t>> {};

TEST_P(FlowEquivalenceTest, SolverAndCoalesceModesMatchBitForBit) {
  const auto [model, seed] = GetParam();
  expect_modes_match(model, make_script(seed));
}

TEST_P(FlowEquivalenceTest, StallHeavyChurnMatchesBitForBit) {
  const auto [model, seed] = GetParam();
  int stalled_starts = 0;
  expect_modes_match(model, make_stall_script(seed), &stalled_starts);
  EXPECT_GT(stalled_starts, 50);  // coverage: many flows started stalled
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, FlowEquivalenceTest,
    ::testing::Combine(::testing::Values(FairnessModel::kMaxMin,
                                         FairnessModel::kBottleneckShare),
                       ::testing::Values(1u, 20100621u, 987654321u)),
    [](const auto& param_info) {
      const std::string model =
          std::get<0>(param_info.param) == FairnessModel::kMaxMin
              ? "MaxMin"
              : "BottleneckShare";
      return model + "Seed" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace moon::sim
