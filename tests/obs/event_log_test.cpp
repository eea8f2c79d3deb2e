// A run's event log is its own: a control-plane record reaches the
// Observability attached to the Simulation its emitter holds, and no other,
// so several runs can live in one process side by side.
#include <gtest/gtest.h>

#include "cluster/node.hpp"
#include "obs/observability.hpp"
#include "simkit/flow_network.hpp"

namespace moon::obs {
namespace {

ObsConfig capture_log() {
  ObsConfig cfg;
  cfg.capture_log = true;
  return cfg;
}

/// One run: a Simulation, its flow graph, one node (flipping it down emits
/// a "node" record) and an Observability capturing the log.
struct RunState {
  sim::Simulation sim;
  sim::FlowNetwork net{sim};
  cluster::Node node{sim, net, NodeId{0}, cluster::NodeConfig{}};
  Observability obs{capture_log(), sim};
};

TEST(EventLogIsolation, RecordReachesOnlyItsOwnRunsLog) {
  RunState a;
  RunState b;
  a.obs.attach();
  b.obs.attach();

  a.node.set_available(false);
  ASSERT_EQ(a.obs.events().size(), 1u);
  EXPECT_EQ(a.obs.events().at(0).component, "node");
  EXPECT_EQ(a.obs.events().at(0).message, "down");
  EXPECT_EQ(b.obs.events().size(), 0u);

  b.node.set_available(false);
  EXPECT_EQ(a.obs.events().size(), 1u);
  EXPECT_EQ(b.obs.events().size(), 1u);
}

TEST(EventLogIsolation, FinalizingOneRunLeavesTheOtherCapturing) {
  RunState a;
  RunState b;
  a.obs.attach();
  b.obs.attach();
  a.obs.finalize();

  b.node.set_available(false);
  ASSERT_EQ(b.obs.events().size(), 1u);
  EXPECT_EQ(b.obs.events().at(0).message, "down");

  // A finalized run is detached: its own records go nowhere.
  a.node.set_available(false);
  EXPECT_EQ(a.obs.events().size(), 0u);
  EXPECT_EQ(b.obs.events().size(), 1u);
}

}  // namespace
}  // namespace moon::obs
