// NameNode policy tests: Figure 3 write decisions, read ordering (§IV-B),
// liveness states (§IV-C), adaptive replication (§IV-A), replication queue
// priorities.
#include "dfs/namenode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "dfs/dfs.hpp"

namespace moon::dfs {
namespace {

class NameNodeTest : public ::testing::Test {
 protected:
  /// 6 volatile + 2 dedicated nodes. Control plane only: a bare NameNode
  /// plus a manual heartbeat pump — no data plane, no background repair, so
  /// liveness/factor assertions are not raced by the replication monitor.
  void build(DfsConfig config = {}) {
    cluster_ = std::make_unique<cluster::Cluster>(sim_);
    cluster::NodeConfig vcfg;
    vcfg.type = cluster::NodeType::kVolatile;
    volatile_ids_ = cluster_->add_nodes(6, vcfg);
    cluster::NodeConfig dcfg;
    dcfg.type = cluster::NodeType::kDedicated;
    dedicated_ids_ = cluster_->add_nodes(2, dcfg);
    namenode_ = std::make_unique<NameNode>(sim_, *cluster_, config);
    for (NodeId id : cluster_->all_nodes()) namenode_->register_datanode(id);
    namenode_->start();
    // Steady positive bandwidth keeps the throttle windows in a neutral
    // state (constant samples never flip Algorithm 1 either way).
    pump_ = std::make_unique<sim::PeriodicTask>(
        sim_, config.heartbeat_interval, [this] {
          for (NodeId id : cluster_->all_nodes()) {
            if (cluster_->node(id).available()) namenode_->heartbeat(id, 100.0);
          }
        });
    pump_->start();
  }

  NameNode& nn() { return *namenode_; }

  /// Drives heartbeats and liveness scans for a while.
  void advance(sim::Duration d) { sim_.run_until(sim_.now() + d); }

  sim::Simulation sim_{1};
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<NameNode> namenode_;
  std::unique_ptr<sim::PeriodicTask> pump_;
  std::vector<NodeId> volatile_ids_;
  std::vector<NodeId> dedicated_ids_;
};

TEST_F(NameNodeTest, DataNodesRegisterLive) {
  build();
  for (NodeId id : cluster_->all_nodes()) {
    EXPECT_EQ(nn().state_of(id), DataNodeState::kLive);
  }
  EXPECT_EQ(nn().datanodes().size(), 8u);
}

TEST_F(NameNodeTest, ReliableWriteAlwaysGetsDedicatedTarget) {
  build();
  const FileId f = nn().create_file("input", FileKind::kReliable, {1, 3});
  nn().add_block(f, 100);
  Rng rng{3};
  const auto targets = nn().pick_write_targets(f, volatile_ids_[0], rng);
  int dedicated = 0;
  for (NodeId n : targets.nodes) {
    if (cluster_->node(n).dedicated()) ++dedicated;
  }
  EXPECT_EQ(dedicated, 1);
  EXPECT_FALSE(targets.dedicated_declined);
  EXPECT_EQ(targets.nodes.size(), 4u);  // 1 dedicated + 3 volatile
}

TEST_F(NameNodeTest, WriterLocalReplicaComesFirst) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 3});
  Rng rng{4};
  const auto targets = nn().pick_write_targets(f, volatile_ids_[2], rng);
  ASSERT_FALSE(targets.nodes.empty());
  EXPECT_EQ(targets.nodes.front(), volatile_ids_[2]);
}

TEST_F(NameNodeTest, VolatileTargetsAreDistinct) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 5});
  Rng rng{5};
  const auto targets = nn().pick_write_targets(f, volatile_ids_[0], rng);
  auto nodes = targets.nodes;
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()), nodes.end());
}

TEST_F(NameNodeTest, OpportunisticWriteDeclinedWhenAllDedicatedSaturated) {
  DfsConfig cfg;
  cfg.throttle_window = 2;
  build(cfg);
  // Saturate both dedicated nodes: rising-but-flattening bandwidth.
  for (NodeId d : dedicated_ids_) {
    nn().heartbeat(d, 100.0);
    nn().heartbeat(d, 104.0);
    EXPECT_TRUE(nn().is_saturated(d));
  }
  EXPECT_TRUE(nn().all_dedicated_saturated());

  const FileId f = nn().create_file("inter", FileKind::kOpportunistic, {1, 1});
  Rng rng{6};
  const auto targets = nn().pick_write_targets(f, volatile_ids_[0], rng);
  EXPECT_TRUE(targets.dedicated_declined);
  for (NodeId n : targets.nodes) {
    EXPECT_FALSE(cluster_->node(n).dedicated());
  }
}

TEST_F(NameNodeTest, ReliableWriteIgnoresSaturation) {
  DfsConfig cfg;
  cfg.throttle_window = 2;
  build(cfg);
  for (NodeId d : dedicated_ids_) {
    nn().heartbeat(d, 100.0);
    nn().heartbeat(d, 104.0);
  }
  const FileId f = nn().create_file("in", FileKind::kReliable, {1, 1});
  Rng rng{7};
  const auto targets = nn().pick_write_targets(f, volatile_ids_[0], rng);
  EXPECT_FALSE(targets.dedicated_declined);
  int dedicated = 0;
  for (NodeId n : targets.nodes) {
    if (cluster_->node(n).dedicated()) ++dedicated;
  }
  EXPECT_EQ(dedicated, 1);
}

TEST_F(NameNodeTest, DeclinedWriteRaisesVolatileRequirement) {
  DfsConfig cfg;
  cfg.throttle_window = 2;
  cfg.availability_goal = 0.9;
  build(cfg);
  // Make p = 0.5:三 of six volatile nodes down long enough to hibernate.
  for (int i = 0; i < 3; ++i) {
    cluster_->node(volatile_ids_[static_cast<std::size_t>(i)]).set_available(false);
  }
  advance(3 * sim::kMinute);  // hibernate + estimate scans run
  EXPECT_GT(nn().estimated_unavailability(), 0.2);

  for (NodeId d : dedicated_ids_) {
    nn().heartbeat(d, 100.0);
    nn().heartbeat(d, 104.0);
  }
  const FileId f = nn().create_file("inter", FileKind::kOpportunistic, {1, 1});
  nn().add_block(f, 100);
  Rng rng{8};
  const auto targets = nn().pick_write_targets(f, volatile_ids_[4], rng);
  EXPECT_TRUE(targets.dedicated_declined);
  // 1 - p^v >= 0.9 with p around 0.4-0.5 needs v >= 3ish; must exceed the
  // configured v = 1.
  EXPECT_GT(targets.effective_volatile, 1);
  EXPECT_EQ(nn().file(f).required_volatile(), targets.effective_volatile);
}

TEST_F(NameNodeTest, AdaptiveRequirementFormula) {
  build();
  // p is 0 right after start: one volatile copy suffices.
  EXPECT_EQ(nn().adaptive_volatile_requirement(), 1);
}

TEST_F(NameNodeTest, ReadOrderPrefersLocalThenVolatile) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {1, 2});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[1]);
  nn().commit_replica(b, volatile_ids_[3]);
  nn().commit_replica(b, dedicated_ids_[0]);

  // Volatile reader holding a replica: itself first.
  auto order = nn().read_order(b, volatile_ids_[1]);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], volatile_ids_[1]);
  // §IV-B: dedicated replicas last for volatile readers.
  EXPECT_EQ(order.back(), dedicated_ids_[0]);

  // Remote volatile reader: volatile replicas before dedicated.
  order = nn().read_order(b, volatile_ids_[5]);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_FALSE(cluster_->node(order[0]).dedicated());
  EXPECT_EQ(order.back(), dedicated_ids_[0]);
}

TEST_F(NameNodeTest, DedicatedReaderPrefersDedicatedReplicas) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {1, 1});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[0]);
  nn().commit_replica(b, dedicated_ids_[1]);
  const auto order = nn().read_order(b, dedicated_ids_[0]);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], dedicated_ids_[1]);
}

TEST_F(NameNodeTest, HibernatedReplicasAreNotReadable) {
  DfsConfig cfg;
  build(cfg);
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 2});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[0]);
  nn().commit_replica(b, volatile_ids_[1]);

  cluster_->node(volatile_ids_[0]).set_available(false);
  advance(2 * sim::kMinute);  // > hibernate_interval (90 s)
  EXPECT_EQ(nn().state_of(volatile_ids_[0]), DataNodeState::kHibernated);

  const auto order = nn().read_order(b, volatile_ids_[2]);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], volatile_ids_[1]);
  EXPECT_TRUE(nn().block_readable(b));

  cluster_->node(volatile_ids_[1]).set_available(false);
  advance(2 * sim::kMinute);
  EXPECT_FALSE(nn().block_readable(b));
}

TEST_F(NameNodeTest, LivenessProgressionLiveHibernatedDead) {
  DfsConfig cfg;
  cfg.hibernate_interval = 90 * sim::kSecond;
  cfg.expiry_interval = 600 * sim::kSecond;
  build(cfg);
  const NodeId victim = volatile_ids_[0];
  cluster_->node(victim).set_available(false);

  advance(30 * sim::kSecond);
  EXPECT_EQ(nn().state_of(victim), DataNodeState::kLive);
  advance(2 * sim::kMinute);
  EXPECT_EQ(nn().state_of(victim), DataNodeState::kHibernated);
  advance(10 * sim::kMinute);
  EXPECT_EQ(nn().state_of(victim), DataNodeState::kDead);

  // Heartbeats resume -> node revives.
  cluster_->node(victim).set_available(true);
  advance(10 * sim::kSecond);
  EXPECT_EQ(nn().state_of(victim), DataNodeState::kLive);
}

TEST_F(NameNodeTest, HibernateDisabledSkipsHibernation) {
  DfsConfig cfg;
  cfg.hibernate_enabled = false;
  build(cfg);
  const NodeId victim = volatile_ids_[0];
  cluster_->node(victim).set_available(false);
  advance(3 * sim::kMinute);
  EXPECT_EQ(nn().state_of(victim), DataNodeState::kLive);
  advance(10 * sim::kMinute);
  EXPECT_EQ(nn().state_of(victim), DataNodeState::kDead);
}

TEST_F(NameNodeTest, HibernationReplicatesOnlyVulnerableOpportunisticBlocks) {
  build();
  // Block A: opportunistic without dedicated copy (vulnerable).
  const FileId fa = nn().create_file("a", FileKind::kOpportunistic, {0, 2});
  const BlockId a = nn().add_block(fa, 100);
  nn().commit_replica(a, volatile_ids_[0]);
  nn().commit_replica(a, volatile_ids_[1]);
  // Block B: opportunistic with a dedicated copy (protected).
  const FileId fb = nn().create_file("b", FileKind::kOpportunistic, {1, 1});
  const BlockId bb = nn().add_block(fb, 100);
  nn().commit_replica(bb, volatile_ids_[0]);
  nn().commit_replica(bb, dedicated_ids_[0]);
  // Block C: reliable (protected).
  const FileId fc = nn().create_file("c", FileKind::kReliable, {1, 1});
  const BlockId c = nn().add_block(fc, 100);
  nn().commit_replica(c, volatile_ids_[0]);
  nn().commit_replica(c, dedicated_ids_[0]);

  const auto before = nn().stats().re_replications;
  cluster_->node(volatile_ids_[0]).set_available(false);
  advance(2 * sim::kMinute);  // hibernated
  ASSERT_EQ(nn().state_of(volatile_ids_[0]), DataNodeState::kHibernated);
  // Only block A re-queued.
  EXPECT_EQ(nn().stats().re_replications, before + 1);
  auto req = nn().next_replication_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->block, a);
}

TEST_F(NameNodeTest, BlockFactorCountsHibernatedWithDedicatedBackup) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {1, 2});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, dedicated_ids_[0]);
  nn().commit_replica(b, volatile_ids_[0]);
  nn().commit_replica(b, volatile_ids_[1]);
  EXPECT_TRUE(nn().block_meets_factor(b));

  cluster_->node(volatile_ids_[0]).set_available(false);
  advance(2 * sim::kMinute);  // hibernated
  // Hibernated replica retains its value because a dedicated copy exists.
  EXPECT_TRUE(nn().block_meets_factor(b));
}

TEST_F(NameNodeTest, DeadReplicasDoNotCount) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 2});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[0]);
  nn().commit_replica(b, volatile_ids_[1]);
  EXPECT_TRUE(nn().block_meets_factor(b));
  cluster_->node(volatile_ids_[0]).set_available(false);
  advance(11 * sim::kMinute);  // dead
  EXPECT_FALSE(nn().block_meets_factor(b));
  const auto live = nn().live_replicas(b);
  EXPECT_EQ(live.volatile_count, 1);
  EXPECT_EQ(live.hibernated, 0);
}

TEST_F(NameNodeTest, ReplicationQueuePrioritisesReliableFiles) {
  build();
  const FileId fo = nn().create_file("opp", FileKind::kOpportunistic, {0, 2});
  const BlockId ob = nn().add_block(fo, 100);
  nn().commit_replica(ob, volatile_ids_[0]);
  const FileId fr = nn().create_file("rel", FileKind::kReliable, {1, 1});
  const BlockId rb = nn().add_block(fr, 100);
  nn().commit_replica(rb, volatile_ids_[1]);

  nn().enqueue_replication(ob);
  nn().enqueue_replication(rb);  // enqueued second, served first

  auto first = nn().next_replication_request();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->block, rb);
  EXPECT_TRUE(first->reliable);
  auto second = nn().next_replication_request();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->block, ob);
}

TEST_F(NameNodeTest, QueueSkipsRepairedAndRemovedBlocks) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 2});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[0]);
  nn().enqueue_replication(b);
  nn().commit_replica(b, volatile_ids_[1]);  // repaired meanwhile
  EXPECT_FALSE(nn().next_replication_request().has_value());

  nn().enqueue_replication(b);
  nn().remove_file(f);  // removed meanwhile
  EXPECT_FALSE(nn().next_replication_request().has_value());
}

TEST_F(NameNodeTest, EnqueueIsDeduplicated) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 3});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[0]);
  nn().enqueue_replication(b);
  nn().enqueue_replication(b);
  nn().enqueue_replication(b);
  EXPECT_EQ(nn().replication_queue_depth(), 1u);
}

TEST_F(NameNodeTest, PlanRepairPicksMissingDimension) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {1, 1});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[0]);  // volatile ok, dedicated missing
  Rng rng{9};
  const auto plan = nn().plan_repair(b, rng);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->source, volatile_ids_[0]);
  EXPECT_TRUE(cluster_->node(plan->target).dedicated());
}

TEST_F(NameNodeTest, PlanRepairUnrecoverableWithoutLiveSource) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 2});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[0]);
  cluster_->node(volatile_ids_[0]).set_available(false);
  advance(11 * sim::kMinute);  // dead
  Rng rng{10};
  EXPECT_FALSE(nn().plan_repair(b, rng).has_value());
}

TEST_F(NameNodeTest, ConvertToReliableRequiresDedicatedCopy) {
  build();
  const FileId f = nn().create_file("out", FileKind::kOpportunistic, {1, 1});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[0]);
  nn().convert_to_reliable(f);
  EXPECT_EQ(nn().file(f).kind, FileKind::kReliable);
  EXPECT_FALSE(nn().block_meets_factor(b));  // dedicated copy still missing
  EXPECT_GE(nn().replication_queue_depth(), 1u);
  nn().commit_replica(b, dedicated_ids_[0]);
  EXPECT_TRUE(nn().block_meets_factor(b));
  EXPECT_TRUE(nn().try_complete_file(f));
  EXPECT_TRUE(nn().file(f).complete);
}

TEST_F(NameNodeTest, StateChangeListenersFire) {
  build();
  std::vector<std::pair<DataNodeState, DataNodeState>> transitions;
  nn().subscribe_state_changes(
      [&](NodeId, DataNodeState from, DataNodeState to) {
        transitions.emplace_back(from, to);
      });
  cluster_->node(volatile_ids_[0]).set_available(false);
  advance(2 * sim::kMinute);
  ASSERT_FALSE(transitions.empty());
  EXPECT_EQ(transitions.back().second, DataNodeState::kHibernated);
}

TEST_F(NameNodeTest, RemoveFileClearsBlocks) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 1});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, volatile_ids_[0]);
  EXPECT_TRUE(nn().block_exists(b));
  nn().remove_file(f);
  EXPECT_FALSE(nn().block_exists(b));
  EXPECT_FALSE(nn().file_exists(f));
}

// ---- id-indexed tables: tombstones, id order, reference stability ---------

TEST_F(NameNodeTest, RemovedFileAndBlocksReadAsAbsent) {
  build();
  const NodeId v0 = volatile_ids_[0];
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 2});
  const BlockId b = nn().add_block(f, 100);
  nn().commit_replica(b, v0);
  nn().remove_file(f);

  EXPECT_FALSE(nn().file_exists(f));
  EXPECT_FALSE(nn().block_exists(b));
  EXPECT_THROW((void)nn().file(f), std::out_of_range);
  EXPECT_THROW((void)nn().block(b), std::out_of_range);
  nn().enqueue_replication(b);
  EXPECT_EQ(nn().replication_queue_depth(), 0u);
  nn().handle_block_report(v0, {b}, 100.0);
  EXPECT_FALSE(nn().block_exists(b));
  EXPECT_TRUE(nn().blocks_on(v0)->opportunistic.empty());
  EXPECT_TRUE(nn().blocks_on(v0)->reliable.empty());
}

TEST_F(NameNodeTest, IdsAreNotReused) {
  build();
  const FileId f = nn().create_file("x", FileKind::kOpportunistic, {0, 1});
  const BlockId b = nn().add_block(f, 100);
  nn().remove_file(f);
  const FileId g = nn().create_file("y", FileKind::kOpportunistic, {0, 1});
  const BlockId c = nn().add_block(g, 100);
  EXPECT_GT(g, f);
  EXPECT_GT(c, b);
  EXPECT_FALSE(nn().file_exists(f));
  EXPECT_FALSE(nn().block_exists(b));
  EXPECT_EQ(nn().block(c).file, g);
}

TEST_F(NameNodeTest, TablesWalkInIdOrderSkippingTombstones) {
  build();
  std::vector<FileId> files;
  std::vector<std::vector<BlockId>> blocks(4);
  for (int i = 0; i < 4; ++i) {
    files.push_back(nn().create_file("f", FileKind::kOpportunistic, {0, 1}));
  }
  // Interleave the files' blocks so each file's ids are not contiguous.
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      blocks[i].push_back(nn().add_block(files[i], 100));
    }
  }
  nn().remove_file(files[1]);
  nn().remove_file(files[3]);

  std::vector<BlockId> want = blocks[0];
  want.insert(want.end(), blocks[2].begin(), blocks[2].end());
  std::sort(want.begin(), want.end());
  std::vector<BlockId> walked;
  for (const BlockMeta& meta : nn().all_blocks()) walked.push_back(meta.id);
  EXPECT_EQ(walked, want);
  std::vector<FileId> walked_files;
  for (const FileMeta& meta : nn().all_files()) walked_files.push_back(meta.id);
  EXPECT_EQ(walked_files, (std::vector<FileId>{files[0], files[2]}));
}

TEST_F(NameNodeTest, MetadataReferencesSurviveTableGrowth) {
  build();
  const FileId f = nn().create_file("held", FileKind::kReliable, {1, 2});
  const BlockId b = nn().add_block(f, 4096);
  nn().commit_replica(b, volatile_ids_[0]);
  nn().commit_replica(b, dedicated_ids_[0]);
  const FileMeta& file = nn().file(f);
  const BlockMeta& block = nn().block(b);
  for (int i = 0; i < 10000; ++i) {
    nn().add_block(nn().create_file("grow", FileKind::kOpportunistic, {0, 1}), 1);
  }
  EXPECT_EQ(file.id, f);
  EXPECT_EQ(file.name, "held");
  EXPECT_EQ(file.kind, FileKind::kReliable);
  EXPECT_EQ(file.blocks, std::vector<BlockId>{b});
  EXPECT_EQ(file.size, 4096);
  EXPECT_EQ(block.id, b);
  EXPECT_EQ(block.file, f);
  EXPECT_EQ(block.size, 4096);
  EXPECT_EQ(block.replicas,
            (std::vector<NodeId>{volatile_ids_[0], dedicated_ids_[0]}));
}

// ---- sweep indices: per-node kind split and the adaptive-file index -------

/// The reverse index as the NameNode's public views imply it: every replica
/// entry of every block, filed under its file's current kind.
struct ExpectedBuckets {
  std::map<NodeId, std::set<BlockId>> opportunistic;
  std::map<NodeId, std::set<BlockId>> reliable;
};

ExpectedBuckets brute_force_buckets(const NameNode& nn) {
  ExpectedBuckets out;
  for (const BlockMeta& meta : nn.all_blocks()) {
    auto& half = nn.file(meta.file).kind == FileKind::kReliable
                     ? out.reliable
                     : out.opportunistic;
    for (NodeId n : meta.replicas) half[n].insert(meta.id);
  }
  return out;
}

std::set<BlockId> as_set(const std::vector<BlockId>& bucket) {
  return {bucket.begin(), bucket.end()};
}

std::set<BlockId> at_or_empty(const std::map<NodeId, std::set<BlockId>>& m,
                              NodeId n) {
  auto it = m.find(n);
  return it == m.end() ? std::set<BlockId>{} : it->second;
}

void expect_buckets_match(const NameNode& nn) {
  const ExpectedBuckets want = brute_force_buckets(nn);
  for (NodeId n : nn.datanodes()) {
    const auto* bucket = nn.blocks_on(n);
    const std::set<BlockId> opp =
        bucket == nullptr ? std::set<BlockId>{} : as_set(bucket->opportunistic);
    const std::set<BlockId> rel =
        bucket == nullptr ? std::set<BlockId>{} : as_set(bucket->reliable);
    EXPECT_EQ(opp, at_or_empty(want.opportunistic, n)) << "node " << n;
    EXPECT_EQ(rel, at_or_empty(want.reliable, n)) << "node " << n;
  }
}

TEST_F(NameNodeTest, HibernationSkipsBlocksConvertedToReliable) {
  DfsConfig cfg;
  cfg.adaptive_replication = false;  // reliable keeps d = 0: no repair at convert
  build(cfg);
  const NodeId v0 = volatile_ids_[0];
  const FileId converted = nn().create_file("out", FileKind::kOpportunistic, {0, 2});
  const BlockId c = nn().add_block(converted, 100);
  const FileId kept = nn().create_file("tmp", FileKind::kOpportunistic, {0, 2});
  const BlockId k = nn().add_block(kept, 100);
  for (BlockId b : {c, k}) {
    nn().commit_replica(b, v0);
    nn().commit_replica(b, volatile_ids_[1]);
  }
  nn().convert_to_reliable(converted);
  ASSERT_EQ(nn().replication_queue_depth(), 0u);
  EXPECT_EQ(as_set(nn().blocks_on(v0)->reliable), std::set<BlockId>{c});
  EXPECT_EQ(as_set(nn().blocks_on(v0)->opportunistic), std::set<BlockId>{k});

  // Both blocks fall under factor when v0 hibernates; only the block that is
  // still opportunistic is re-replicated (§IV-C).
  const auto before = nn().stats().re_replications;
  cluster_->node(v0).set_available(false);
  advance(2 * sim::kMinute);
  ASSERT_EQ(nn().state_of(v0), DataNodeState::kHibernated);
  EXPECT_FALSE(nn().block_meets_factor(c));
  EXPECT_EQ(nn().stats().re_replications, before + 1);
  const auto req = nn().next_replication_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->block, k);
  EXPECT_FALSE(nn().next_replication_request().has_value());
}

TEST_F(NameNodeTest, DeathEnqueuesInBlockIdOrderAcrossKinds) {
  DfsConfig cfg;
  cfg.hibernate_enabled = false;  // the death sweep alone queues the blocks
  build(cfg);
  const NodeId v0 = volatile_ids_[0];
  const FileId opp = nn().create_file("opp", FileKind::kOpportunistic, {0, 1});
  const FileId rel = nn().create_file("rel", FileKind::kReliable, {0, 1});
  // Interleaved ids: opp, rel, opp, rel on the same node.
  std::vector<BlockId> ids;
  for (int i = 0; i < 2; ++i) {
    for (FileId f : {opp, rel}) {
      ids.push_back(nn().add_block(f, 100));
      nn().commit_replica(ids.back(), v0);
    }
  }
  ASSERT_EQ(nn().blocks_on(v0)->opportunistic.size(), 2u);
  ASSERT_EQ(nn().blocks_on(v0)->reliable.size(), 2u);
  cluster_->node(v0).set_available(false);
  advance(11 * sim::kMinute);
  ASSERT_EQ(nn().state_of(v0), DataNodeState::kDead);
  ASSERT_EQ(nn().replication_queue_depth(), 4u);
  // Promoting the opportunistic file serves every block in enqueue order.
  nn().convert_to_reliable(opp);
  std::vector<BlockId> served;
  while (auto req = nn().next_replication_request()) served.push_back(req->block);
  EXPECT_EQ(served, ids);
}

TEST_F(NameNodeTest, AdaptiveIndexTracksRaisedFiles) {
  DfsConfig cfg;
  cfg.throttle_window = 2;
  cfg.availability_goal = 0.9;
  build(cfg);
  for (int i = 0; i < 3; ++i) {
    cluster_->node(volatile_ids_[static_cast<std::size_t>(i)]).set_available(false);
  }
  advance(3 * sim::kMinute);  // p > 0, so v' exceeds the configured v = 1
  for (NodeId d : dedicated_ids_) {
    nn().heartbeat(d, 100.0);
    nn().heartbeat(d, 104.0);
  }
  const FileId f = nn().create_file("inter", FileKind::kOpportunistic, {1, 1});
  const BlockId b = nn().add_block(f, 100);
  const FileId never = nn().create_file("plain", FileKind::kOpportunistic, {0, 1});
  nn().add_block(never, 100);
  EXPECT_TRUE(nn().adaptive_files().empty());

  Rng rng{11};
  ASSERT_TRUE(nn().pick_write_targets(f, volatile_ids_[4], rng).dedicated_declined);
  nn().pick_write_targets(never, volatile_ids_[4], rng);  // d = 0: never declined
  EXPECT_EQ(nn().adaptive_files(), std::set<FileId>{f});
  nn().commit_replica(b, volatile_ids_[4]);

  // Still no dedicated copy: the raise stands.
  nn().refresh_adaptive_requirements();
  EXPECT_GT(nn().file(f).adaptive_volatile, 1);
  EXPECT_EQ(nn().adaptive_files(), std::set<FileId>{f});

  // A dedicated copy lands: the raise lapses and the file leaves the index.
  nn().commit_replica(b, dedicated_ids_[0]);
  nn().refresh_adaptive_requirements();
  EXPECT_EQ(nn().file(f).adaptive_volatile, 0);
  EXPECT_TRUE(nn().adaptive_files().empty());

  // Conversion and removal drop a raised file too.
  ASSERT_TRUE(nn().pick_write_targets(f, volatile_ids_[4], rng).dedicated_declined);
  EXPECT_EQ(nn().adaptive_files(), std::set<FileId>{f});
  nn().convert_to_reliable(f);
  EXPECT_TRUE(nn().adaptive_files().empty());
  const FileId g = nn().create_file("g", FileKind::kOpportunistic, {1, 1});
  ASSERT_TRUE(nn().pick_write_targets(g, volatile_ids_[4], rng).dedicated_declined);
  EXPECT_EQ(nn().adaptive_files(), std::set<FileId>{g});
  nn().remove_file(g);
  EXPECT_TRUE(nn().adaptive_files().empty());
}

TEST_F(NameNodeTest, CrashThenBlockReportsRebuildBothHalves) {
  build();
  const FileId opp = nn().create_file("opp", FileKind::kOpportunistic, {0, 2});
  const FileId rel = nn().create_file("rel", FileKind::kReliable, {1, 1});
  std::map<NodeId, std::vector<BlockId>> stored;
  for (int i = 0; i < 6; ++i) {
    const BlockId b = nn().add_block(i % 2 == 0 ? opp : rel, 100);
    for (NodeId n : {volatile_ids_[static_cast<std::size_t>(i % 3)],
                     i % 2 == 0 ? volatile_ids_[5] : dedicated_ids_[0]}) {
      nn().commit_replica(b, n);
      stored[n].push_back(b);
    }
  }
  const ExpectedBuckets before = brute_force_buckets(nn());
  expect_buckets_match(nn());

  nn().crash();
  for (NodeId n : nn().datanodes()) {
    EXPECT_TRUE(nn().blocks_on(n)->opportunistic.empty());
    EXPECT_TRUE(nn().blocks_on(n)->reliable.empty());
  }
  nn().begin_recovery();
  for (auto& [node, blocks] : stored) {
    std::sort(blocks.begin(), blocks.end());
    nn().handle_block_report(node, blocks, 100.0);
  }
  nn().finish_recovery();
  expect_buckets_match(nn());
  for (NodeId n : nn().datanodes()) {
    EXPECT_EQ(as_set(nn().blocks_on(n)->opportunistic),
              at_or_empty(before.opportunistic, n));
    EXPECT_EQ(as_set(nn().blocks_on(n)->reliable), at_or_empty(before.reliable, n));
  }
}

TEST_F(NameNodeTest, RandomOperationsKeepIndicesExact) {
  DfsConfig cfg;
  cfg.throttle_window = 2;
  build(cfg);
  // After every hibernation or death, each block the brute force says the
  // sweep must queue is queued already: re-enqueueing it is a no-op.
  int sweeps_checked = 0;
  nn().subscribe_state_changes([&](NodeId node, DataNodeState, DataNodeState to) {
    if (to == DataNodeState::kLive) return;
    ++sweeps_checked;
    const std::size_t depth = nn().replication_queue_depth();
    for (const BlockMeta& meta : nn().all_blocks()) {
      const BlockId id = meta.id;
      if (!meta.has_replica_on(node) || nn().block_meets_factor(id)) continue;
      if (to == DataNodeState::kHibernated &&
          (nn().file(meta.file).kind != FileKind::kOpportunistic ||
           nn().live_replicas(id).dedicated > 0)) {
        continue;
      }
      nn().enqueue_replication(id);
      EXPECT_EQ(nn().replication_queue_depth(), depth) << "block " << id;
    }
  });

  Rng rng{2024};
  std::vector<FileId> files;
  std::vector<BlockId> blocks;
  const auto pick = [&](const auto& v) {
    return v[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  };
  const std::vector<NodeId> nodes = cluster_->all_nodes();
  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    switch (rng.uniform_int(0, 9)) {
      case 0: {
        const bool reliable = rng.uniform() < 0.3;
        files.push_back(nn().create_file(
            "f", reliable ? FileKind::kReliable : FileKind::kOpportunistic,
            {static_cast<int>(rng.uniform_int(0, 1)),
             static_cast<int>(rng.uniform_int(1, 3))}));
        break;
      }
      case 1:
        if (!files.empty()) {
          const FileId f = pick(files);
          if (nn().file_exists(f)) blocks.push_back(nn().add_block(f, 100));
        }
        break;
      case 2:
      case 3:
        if (!blocks.empty()) {
          const BlockId b = pick(blocks);
          if (nn().block_exists(b)) nn().commit_replica(b, pick(nodes));
        }
        break;
      case 4:
        if (!blocks.empty()) nn().drop_replica(pick(blocks), pick(nodes));
        break;
      case 5:
        if (!files.empty()) {
          const FileId f = pick(files);
          if (nn().file_exists(f)) {
            if (rng.uniform() < 0.5) {
              nn().convert_to_reliable(f);
            } else if (rng.uniform() < 0.3) {
              nn().remove_file(f);
            } else {
              nn().pick_write_targets(f, pick(volatile_ids_), rng);
            }
          }
        }
        break;
      case 6: {
        // Saturate or relieve the dedicated tier (Algorithm 1).
        const double bw = rng.uniform() < 0.5 ? 104.0 : 10.0;
        for (NodeId d : dedicated_ids_) nn().heartbeat(d, bw);
        break;
      }
      case 7: {
        const NodeId v = pick(volatile_ids_);
        cluster_->node(v).set_available(!cluster_->node(v).available());
        break;
      }
      case 8:
        advance(sim::seconds(rng.uniform(10.0, 400.0)));
        break;
      case 9:
        if (rng.uniform() < 0.1) {
          std::map<NodeId, std::vector<BlockId>> reports;
          for (const BlockMeta& meta : nn().all_blocks()) {
            for (NodeId n : meta.replicas) reports[n].push_back(meta.id);
          }
          nn().crash();
          nn().begin_recovery();
          for (auto& [node, report] : reports) {
            if (!cluster_->node(node).available()) continue;
            std::sort(report.begin(), report.end());
            nn().handle_block_report(node, report, 100.0);
          }
          nn().finish_recovery();
        } else {
          nn().refresh_adaptive_requirements();
        }
        break;
    }
    expect_buckets_match(nn());
    std::set<FileId> raised;
    for (FileId f : files) {
      if (nn().file_exists(f) && nn().file(f).adaptive_volatile != 0) raised.insert(f);
    }
    EXPECT_EQ(nn().adaptive_files(), raised);
    if (HasFailure()) break;
  }
  EXPECT_GT(sweeps_checked, 0);
  EXPECT_GT(nn().stats().adaptive_v_raises, 0);
  EXPECT_GT(nn().stats().hibernate_transitions, 0);
  EXPECT_GT(nn().stats().dead_transitions, 0);
}

}  // namespace
}  // namespace moon::dfs
