// Data-plane tests: staging, client writes/reads under churn, background
// re-replication, stall handling.
#include "dfs/dfs.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "cluster/cluster.hpp"

namespace moon::dfs {
namespace {

Bytes config_block_size() { return DfsConfig{}.block_size; }

class DfsOpsTest : public ::testing::Test {
 protected:
  void build(DfsConfig config = {}, std::size_t volatiles = 6,
             std::size_t dedicated = 2) {
    cluster_ = std::make_unique<cluster::Cluster>(sim_);
    cluster::NodeConfig vcfg;
    vcfg.type = cluster::NodeType::kVolatile;
    vcfg.nic_in_bw = mibps(100.0);
    vcfg.nic_out_bw = mibps(100.0);
    vcfg.disk_bw = mibps(50.0);
    volatile_ids_ = cluster_->add_nodes(volatiles, vcfg);
    cluster::NodeConfig dcfg = vcfg;
    dcfg.type = cluster::NodeType::kDedicated;
    dedicated_ids_ = cluster_->add_nodes(dedicated, dcfg);
    dfs_ = std::make_unique<Dfs>(sim_, *cluster_, config, 99);
    dfs_->start();
  }

  NameNode& nn() { return dfs_->namenode(); }
  void advance(sim::Duration d) { sim_.run_until(sim_.now() + d); }

  sim::Simulation sim_{2};
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<Dfs> dfs_;
  std::vector<NodeId> volatile_ids_;
  std::vector<NodeId> dedicated_ids_;
};

TEST_F(DfsOpsTest, StageFilePlacesAllReplicasInstantly) {
  build();
  const FileId f = dfs_->stage_file("input", FileKind::kReliable, {1, 3},
                                    3 * config_block_size());
  const auto& meta = nn().file(f);
  EXPECT_EQ(meta.blocks.size(), 3u);
  EXPECT_TRUE(meta.complete);
  for (BlockId b : meta.blocks) {
    const auto live = nn().live_replicas(b);
    EXPECT_EQ(live.dedicated, 1);
    EXPECT_EQ(live.volatile_count, 3);
    EXPECT_TRUE(nn().block_meets_factor(b));
  }

  // Dedicated replicas round-robin across the tier.
  std::size_t on_first = 0;
  for (BlockId b : meta.blocks) {
    if (nn().block(b).has_replica_on(dedicated_ids_[0])) ++on_first;
  }
  EXPECT_GE(on_first, 1u);
  EXPECT_LT(on_first, 3u);
}

TEST_F(DfsOpsTest, StageFileWithPartialTrailingBlock) {
  build();
  const Bytes size = config_block_size() + config_block_size() / 2;
  const FileId f = dfs_->stage_file("x", FileKind::kOpportunistic, {0, 2}, size);
  const auto& meta = nn().file(f);
  ASSERT_EQ(meta.blocks.size(), 2u);
  EXPECT_EQ(nn().block(meta.blocks[0]).size, config_block_size());
  EXPECT_EQ(nn().block(meta.blocks[1]).size, config_block_size() / 2);
  EXPECT_EQ(meta.size, size);
}

TEST_F(DfsOpsTest, StageBlocksMakesOneBlockPerUnit) {
  build();
  const FileId f = dfs_->stage_blocks("sleep.in", FileKind::kReliable, {1, 1},
                                      10, kKiB);
  EXPECT_EQ(nn().file(f).blocks.size(), 10u);
}

TEST_F(DfsOpsTest, WriteFileLandsAllReplicasAndCompletes) {
  build();
  const FileId f = nn().create_file("data", FileKind::kOpportunistic, {1, 2});
  std::optional<bool> result;
  dfs_->write_file(f, volatile_ids_[0], mib(64.0),
                   [&](bool ok) { result = ok; });
  sim_.run_until(5 * sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  const auto& meta = nn().file(f);
  ASSERT_EQ(meta.blocks.size(), 1u);
  const auto live = nn().live_replicas(meta.blocks[0]);
  EXPECT_EQ(live.dedicated, 1);
  EXPECT_EQ(live.volatile_count, 2);
  EXPECT_GT(dfs_->stats().bytes_written, 0);
}

TEST_F(DfsOpsTest, WriteSplitsIntoBlocks) {
  build();
  const FileId f = nn().create_file("big", FileKind::kOpportunistic, {0, 1});
  std::optional<bool> result;
  dfs_->write_file(f, volatile_ids_[1], 3 * config_block_size() + 5,
                   [&](bool ok) { result = ok; });
  sim_.run_until(10 * sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(nn().file(f).blocks.size(), 4u);
}

TEST_F(DfsOpsTest, ReadBlockFromReplica) {
  build();
  const FileId f = dfs_->stage_file("x", FileKind::kOpportunistic, {0, 2},
                                    mib(8.0));
  const BlockId b = nn().file(f).blocks[0];
  std::optional<bool> result;
  dfs_->read_block(b, volatile_ids_[5], [&](bool ok) { result = ok; });
  sim_.run_until(sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  EXPECT_EQ(dfs_->stats().bytes_read, mib(8.0));
}

TEST_F(DfsOpsTest, ReadPartialMovesOnlyRequestedBytes) {
  build();
  const FileId f = dfs_->stage_file("x", FileKind::kOpportunistic, {0, 2},
                                    mib(64.0));
  const BlockId b = nn().file(f).blocks[0];
  std::optional<bool> result;
  dfs_->read_partial(b, volatile_ids_[5], mib(1.0), [&](bool ok) { result = ok; });
  sim_.run_until(sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  EXPECT_EQ(dfs_->stats().bytes_read, mib(1.0));
}

TEST_F(DfsOpsTest, ReadFailsWhenNoReplicaIsEverAvailable) {
  DfsConfig cfg;
  cfg.max_read_rounds = 2;
  cfg.read_round_wait = 5 * sim::kSecond;
  build(cfg);
  const FileId f = dfs_->stage_file("x", FileKind::kOpportunistic, {0, 1},
                                    mib(1.0));
  const BlockId b = nn().file(f).blocks[0];
  // Take the only replica holder down and let the NameNode notice.
  const NodeId holder = nn().block(b).replicas[0];
  cluster_->node(holder).set_available(false);
  advance(3 * sim::kMinute);

  std::optional<bool> result;
  dfs_->read_block(b, volatile_ids_[5], [&](bool ok) { result = ok; });
  sim_.run_until(sim_.now() + 5 * sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(*result);
  EXPECT_GT(dfs_->stats().read_failures, 0);
}

TEST_F(DfsOpsTest, ReadRetriesAcrossRoundsWhenReplicaReturns) {
  DfsConfig cfg;
  cfg.max_read_rounds = 5;
  cfg.read_round_wait = 10 * sim::kSecond;
  build(cfg);
  const FileId f = dfs_->stage_file("x", FileKind::kOpportunistic, {0, 1},
                                    mib(1.0));
  const BlockId b = nn().file(f).blocks[0];
  const NodeId holder = nn().block(b).replicas[0];
  cluster_->node(holder).set_available(false);
  advance(2 * sim::kMinute);  // hibernated: not readable

  std::optional<bool> result;
  dfs_->read_block(b, volatile_ids_[5], [&](bool ok) { result = ok; });
  // Bring the holder back while the read is sweeping rounds.
  sim_.schedule_after(15 * sim::kSecond,
                      [&] { cluster_->node(holder).set_available(true); });
  sim_.run_until(sim_.now() + 5 * sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
}

TEST_F(DfsOpsTest, ReadFallsBackToSecondReplicaWhenFirstStalls) {
  build();
  const FileId f = dfs_->stage_file("x", FileKind::kOpportunistic, {0, 2},
                                    mib(32.0));
  const BlockId b = nn().file(f).blocks[0];
  // Find a reader that holds no replica.
  NodeId reader = NodeId::invalid();
  for (NodeId n : volatile_ids_) {
    if (!nn().block(b).has_replica_on(n)) {
      reader = n;
      break;
    }
  }
  ASSERT_TRUE(reader.valid());

  std::optional<bool> result;
  dfs_->read_block(b, reader, [&](bool ok) { result = ok; });
  // Kill whichever source it picked, shortly after the transfer starts.
  sim_.schedule_after(sim::kSecond, [&] {
    for (NodeId n : nn().block(b).replicas) {
      cluster_->node(n).set_available(false);
      break;  // only the first (the preferred source)
    }
  });
  sim_.run_until(sim_.now() + 5 * sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
}

TEST_F(DfsOpsTest, CancelOpSuppressesCallback) {
  build();
  const FileId f = dfs_->stage_file("x", FileKind::kOpportunistic, {0, 2},
                                    mib(64.0));
  const BlockId b = nn().file(f).blocks[0];
  bool called = false;
  const OpId op = dfs_->read_block(b, volatile_ids_[5], [&](bool) { called = true; });
  dfs_->cancel_op(op);
  sim_.run_until(5 * sim::kMinute);
  EXPECT_FALSE(called);
  EXPECT_EQ(dfs_->active_ops(), 0u);
}

TEST_F(DfsOpsTest, WriteStallsWhileWriterDownThenFinishes) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 2});
  std::optional<bool> result;
  sim::Time done_at = 0;
  dfs_->write_file(f, volatile_ids_[0], mib(32.0), [&](bool ok) {
    result = ok;
    done_at = sim_.now();
  });
  cluster_->node(volatile_ids_[0]).set_available(false);
  sim_.schedule_at(2 * sim::kMinute,
                   [&] { cluster_->node(volatile_ids_[0]).set_available(true); });
  sim_.run_until(10 * sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  EXPECT_GT(done_at, 2 * sim::kMinute);
}

TEST_F(DfsOpsTest, WriteRepicksTargetWhenTargetDies) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 2});
  std::optional<bool> result;
  dfs_->write_file(f, volatile_ids_[0], mib(32.0), [&](bool ok) { result = ok; });
  // Take down every volatile node except the writer and one other, so that
  // whichever remote target was chosen likely dies and gets re-picked.
  sim_.schedule_after(500 * sim::kMillisecond, [&] {
    for (std::size_t i = 2; i < volatile_ids_.size(); ++i) {
      cluster_->node(volatile_ids_[i]).set_available(false);
    }
  });
  sim_.run_until(10 * sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  const BlockId b = nn().file(f).blocks[0];
  EXPECT_GE(nn().live_replicas(b).volatile_count, 1);
}

// Regression: the stall probe drops a replica stalled on a dead target,
// and closing its CapacityBatch settles the network, which lands the other
// replica — the last one in flight — and finishes the write. The probe must
// stop there instead of reading the op it just finished.
TEST_F(DfsOpsTest, StallProbeStopsWhenItsWriteFinishesUnderIt) {
  DfsConfig config;
  config.client_probe_interval = sim::kSecond;
  build(config, /*volatiles=*/2, /*dedicated=*/0);
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 2});
  std::optional<bool> result;
  sim::Time done_at = -1;
  // Both replicas share the writer's 50 MiB/s disk, 25 MiB/s each. The
  // remote target drops at 0.5 s; the local replica then runs alone and
  // is due at exactly 1 s, when the probe (scheduled earlier) runs first.
  dfs_->write_file(f, volatile_ids_[0], mib(37.5), [&](bool ok) {
    result = ok;
    done_at = sim_.now();
  });
  sim_.schedule_at(500 * sim::kMillisecond,
                   [&] { cluster_->node(volatile_ids_[1]).set_available(false); });
  advance(sim::kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  EXPECT_EQ(done_at, sim::kSecond);
  EXPECT_EQ(dfs_->active_ops(), 0u);
}

// Regression: the stall probe aborts a read stalled on a down source, and
// that churn settles the network because another flow is due at the same
// instant; its completion cancels the read. The probe must stop there
// instead of retrying the cancelled read from the second replica.
TEST_F(DfsOpsTest, StallProbeStopsWhenItsReadIsCancelledUnderIt) {
  DfsConfig config;
  config.client_probe_interval = sim::kSecond;
  build(config, /*volatiles=*/3, /*dedicated=*/0);
  const FileId f = dfs_->stage_file("x", FileKind::kOpportunistic, {0, 2},
                                    mib(64.0));
  const BlockId b = nn().file(f).blocks[0];
  NodeId reader = NodeId::invalid();
  for (NodeId n : volatile_ids_) {
    if (!nn().block(b).has_replica_on(n)) reader = n;
  }
  ASSERT_TRUE(reader.valid());
  bool called = false;
  const OpId op = dfs_->read_block(b, reader, [&](bool) { called = true; });
  // The read streams from the lower-id holder at 50 MiB/s (its disk) and
  // stalls when that holder drops at 0.5 s. The blocker moves 1 MiB at
  // 2 MiB/s from 0.5 s, so it is due at exactly 1 s, when the probe
  // (scheduled earlier) runs first.
  auto& net = cluster_->network();
  const auto lane = net.add_resource(mibps(2.0));
  sim_.schedule_at(500 * sim::kMillisecond, [&] {
    cluster_->node(nn().read_order(b, reader).front()).set_available(false);
    net.start_flow({lane}, mib(1.0), [&](FlowId) { dfs_->cancel_op(op); });
  });
  sim_.run_until(sim::kSecond);
  EXPECT_EQ(dfs_->active_ops(), 0u);
  ASSERT_EQ(net.active_flows(), 0u);
  advance(sim::kMinute);
  EXPECT_FALSE(called);
  EXPECT_EQ(dfs_->stats().bytes_read, 0);
}

// A probe pass walks only the ops issued before it began. Here the first
// probe abandons a read stalled on its only source, the read fails, and
// its callback issues a write. Probed in the same pass, that write (not
// yet begun, nothing in flight, a zero re-pick budget) would fail before
// it starts; it must instead begin and land.
TEST_F(DfsOpsTest, ProbePassSkipsOpsIssuedDuringIt) {
  DfsConfig config;
  config.client_probe_interval = sim::kSecond;
  config.max_read_rounds = 1;
  config.max_write_target_retries = 0;
  build(config, /*volatiles=*/3, /*dedicated=*/0);
  const FileId in = dfs_->stage_file("in", FileKind::kOpportunistic, {0, 1},
                                     mib(64.0));
  const BlockId b = nn().file(in).blocks[0];
  const NodeId holder = nn().block(b).replicas[0];
  const NodeId reader =
      volatile_ids_[0] == holder ? volatile_ids_[1] : volatile_ids_[0];
  const FileId out = nn().create_file("out", FileKind::kOpportunistic, {0, 1});
  sim::Time read_failed_at = -1;
  std::optional<bool> written;
  sim::Time written_at = -1;
  // The read streams at 50 MiB/s (the holder's disk) and stalls when the
  // holder drops at 0.5 s; the probe at 1 s abandons it.
  dfs_->read_block(b, reader, [&](bool ok) {
    EXPECT_FALSE(ok);
    read_failed_at = sim_.now();
    dfs_->write_file(out, reader, mib(1.0), [&](bool write_ok) {
      written = write_ok;
      written_at = sim_.now();
    });
  });
  sim_.schedule_at(500 * sim::kMillisecond,
                   [&] { cluster_->node(holder).set_available(false); });
  advance(sim::kMinute);
  EXPECT_EQ(read_failed_at, sim::kSecond);
  ASSERT_TRUE(written.has_value());
  EXPECT_TRUE(*written);
  EXPECT_GT(written_at, sim::kSecond);
  EXPECT_EQ(dfs_->active_ops(), 0u);
}

TEST_F(DfsOpsTest, UnderReplicatedBlockIsRepairedInBackground) {
  build();
  const FileId f = dfs_->stage_file("x", FileKind::kOpportunistic, {0, 3},
                                    mib(4.0));
  const BlockId b = nn().file(f).blocks[0];
  // Kill one holder long enough to be declared dead.
  const NodeId victim = nn().block(b).replicas[0];
  cluster_->node(victim).set_available(false);
  advance(11 * sim::kMinute);
  ASSERT_EQ(nn().state_of(victim), DataNodeState::kDead);
  advance(2 * sim::kMinute);  // replication monitor repairs
  EXPECT_TRUE(nn().block_meets_factor(b));
  EXPECT_GT(dfs_->stats().replication_bytes, 0);
}

TEST_F(DfsOpsTest, ReliableFileRepairGoesToDedicatedTier) {
  build();
  const FileId f = dfs_->stage_file("x", FileKind::kReliable, {1, 1}, mib(4.0));
  const BlockId b = nn().file(f).blocks[0];
  // Remove the dedicated replica by hand.
  NodeId dead_dedicated = NodeId::invalid();
  for (NodeId n : nn().block(b).replicas) {
    if (cluster_->node(n).dedicated()) dead_dedicated = n;
  }
  ASSERT_TRUE(dead_dedicated.valid());
  dfs_->datanode(dead_dedicated).drop_block(b, mib(4.0));
  nn().enqueue_replication(b);
  advance(2 * sim::kMinute);
  EXPECT_EQ(nn().live_replicas(b).dedicated, 1);
}

TEST_F(DfsOpsTest, HibernatedVulnerableBlockGetsNewVolatileCopy) {
  build();
  // Two volatile replicas, no dedicated copy: losing one holder to
  // hibernation makes the block vulnerable, and §IV-C says it must be
  // re-replicated from the surviving copy even though the holder is only
  // hibernated (not dead).
  const FileId f = dfs_->stage_file("inter", FileKind::kOpportunistic, {0, 2},
                                    mib(4.0));
  const BlockId b = nn().file(f).blocks[0];
  const NodeId holder = nn().block(b).replicas[0];
  cluster_->node(holder).set_available(false);
  advance(2 * sim::kMinute);  // hibernated -> vulnerable -> re-replicate
  ASSERT_EQ(nn().state_of(holder), DataNodeState::kHibernated);
  advance(2 * sim::kMinute);
  // Fresh live copies restore the factor while the holder is away.
  EXPECT_GE(nn().live_replicas(b).volatile_count, 2);
  EXPECT_GT(dfs_->stats().replication_bytes, 0);
}

}  // namespace
}  // namespace moon::dfs
