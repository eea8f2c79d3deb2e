// moon::audit::Auditor: clean stacks audit clean (mid-run and at rest), and
// a deliberately broken invariant is detected — proving the sweep is not
// vacuously green.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../mapred/mapred_fixture.hpp"
#include "audit/auditor.hpp"

namespace moon::audit {
namespace {

using mapred::testing::FixtureOptions;
using mapred::testing::MapRedHarness;

/// "invariant: detail" per violation, so a mismatch prints readably.
std::vector<std::string> render(const std::vector<Violation>& violations) {
  std::vector<std::string> out;
  for (const Violation& v : violations) out.push_back(v.invariant + ": " + v.detail);
  return out;
}

std::string not_stored(BlockId b, NodeId n) {
  return "dfs.replica-consistency: block " + std::to_string(b.value()) +
         " replica on node " + std::to_string(n.value()) +
         " not physically stored";
}

/// Corrupts the metadata on purpose: registers a replica of the first block
/// `node` holds no bytes for. (Real code can't reach this state — commit
/// only happens after a physical store.) Returns the block, or invalid.
BlockId plant_phantom(MapRedHarness& h, NodeId node) {
  auto& nn = h.dfs().namenode();
  for (const dfs::BlockMeta& meta : nn.all_blocks()) {
    if (!meta.has_replica_on(node) && !h.dfs().datanode(node).stores(meta.id)) {
      nn.commit_replica(meta.id, node);
      return meta.id;
    }
  }
  return BlockId::invalid();
}

FixtureOptions busy_opts() {
  FixtureOptions opts;
  opts.volatile_nodes = 4;
  opts.dedicated_nodes = 1;
  opts.sched = mapred::testing::moon_sched();
  opts.sched.checkpoint.enabled = true;
  opts.sched.checkpoint.scan_interval = 30 * sim::kSecond;
  opts.sched.checkpoint.min_progress_delta = 0.01;
  opts.sched.checkpoint.factor = {1, 1};
  opts.num_maps = 6;
  opts.num_reduces = 2;
  opts.reduce_compute = 120 * sim::kSecond;
  return opts;
}

TEST(Auditor, CleanStackAuditsCleanMidRunAndAtRest) {
  MapRedHarness h(busy_opts());
  h.submit();
  Auditor auditor(&h.cluster(), &h.dfs(), &h.jobtracker());

  // Sweep repeatedly while the job runs — every event boundary must hold
  // the invariants, including with churn in the middle.
  int sweeps = 0;
  bool churned = false;
  while (!h.job().finished() && h.sim().now() < 2 * sim::kHour) {
    h.advance(60 * sim::kSecond);
    if (!churned && h.sim().now() >= 20 * sim::kMinute) {
      churned = true;
      h.set_node_available(h.volatile_ids[0], false);
    }
    EXPECT_TRUE(auditor.run().empty()) << "at t=" << h.sim().now();
    ++sweeps;
  }
  EXPECT_TRUE(h.job().metrics().completed);
  EXPECT_TRUE(auditor.run().empty());
  EXPECT_EQ(auditor.violations_total(), 0);
  EXPECT_EQ(auditor.passes(), sweeps + 1);
}

TEST(Auditor, DetectsPhantomReplica) {
  MapRedHarness h(busy_opts());
  h.submit();
  h.advance(2 * sim::kMinute);

  const NodeId node = h.volatile_ids[0];
  const BlockId victim = plant_phantom(h, node);
  ASSERT_TRUE(victim.valid());

  Auditor auditor(&h.cluster(), &h.dfs(), &h.jobtracker());
  const auto violations = auditor.run();
  EXPECT_EQ(render(violations),
            std::vector<std::string>{not_stored(victim, node)});
  EXPECT_EQ(auditor.violations_total(),
            static_cast<std::int64_t>(violations.size()));
}

TEST(Auditor, DetectsBytesDroppedBehindTheNameNode) {
  MapRedHarness h(busy_opts());
  h.submit();
  h.advance(2 * sim::kMinute);

  // Pick a listed replica from the middle of the node's stored blocks, so
  // the merge against the DataNode has entries on both sides of the gap.
  auto& nn = h.dfs().namenode();
  const NodeId node = h.volatile_ids[1];
  dfs::DataNode& dn = h.dfs().datanode(node);
  const std::vector<BlockId> stored = dn.blocks();
  BlockId victim = BlockId::invalid();
  for (std::size_t i = stored.size() / 2; i < stored.size(); ++i) {
    if (nn.block_exists(stored[i]) && nn.block(stored[i]).has_replica_on(node)) {
      victim = stored[i];
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  ASSERT_NE(victim, stored.back());

  // drop_block reports the loss to an up NameNode, so list the replica
  // again: the master now names a holder whose bytes are gone.
  dn.drop_block(victim, nn.block(victim).size);
  nn.commit_replica(victim, node);

  Auditor auditor(&h.cluster(), &h.dfs(), &h.jobtracker());
  EXPECT_EQ(render(auditor.run()),
            std::vector<std::string>{not_stored(victim, node)});
}

TEST(Auditor, DetectsPhantomReplicaOnHighestNode) {
  MapRedHarness h(busy_opts());
  h.submit();
  h.advance(2 * sim::kMinute);

  const NodeId node = h.dfs().namenode().datanodes().back();
  ASSERT_EQ(node, h.cluster().all_nodes().back());
  const BlockId victim = plant_phantom(h, node);
  ASSERT_TRUE(victim.valid());

  Auditor auditor(&h.cluster(), &h.dfs(), &h.jobtracker());
  EXPECT_EQ(render(auditor.run()),
            std::vector<std::string>{not_stored(victim, node)});
}

TEST(Auditor, ReusedAuditorIsCleanAfterRepair) {
  MapRedHarness h(busy_opts());
  h.submit();
  h.advance(2 * sim::kMinute);

  Auditor auditor(&h.cluster(), &h.dfs(), &h.jobtracker());
  ASSERT_TRUE(auditor.run().empty());
  const NodeId node = h.volatile_ids[2];
  const BlockId victim = plant_phantom(h, node);
  ASSERT_TRUE(victim.valid());
  EXPECT_EQ(render(auditor.run()),
            std::vector<std::string>{not_stored(victim, node)});

  // Repair: the same instance's next sweep must not see the last one's
  // scratch.
  h.dfs().namenode().drop_replica(victim, node);
  EXPECT_TRUE(auditor.run().empty());
  EXPECT_EQ(auditor.passes(), 3);
  EXPECT_EQ(auditor.violations_total(), 1);
}

TEST(Auditor, NullComponentsAreSkipped) {
  Auditor auditor(nullptr, nullptr, nullptr);
  EXPECT_TRUE(auditor.run().empty());
  EXPECT_EQ(auditor.passes(), 1);
}

}  // namespace
}  // namespace moon::audit
