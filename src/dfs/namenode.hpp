// The NameNode: metadata service, liveness tracking, placement decisions
// (Figure 3), adaptive replication (§IV-A) and the priority replication
// queue. Data movement itself happens in DataNode/ReplicationMonitor/client
// ops; the NameNode only decides.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "dfs/metadata.hpp"
#include "dfs/throttle.hpp"
#include "dfs/types.hpp"
#include "simkit/periodic.hpp"
#include "simkit/simulation.hpp"

namespace moon::recovery {
class NameNodeJournal;
}

namespace moon::dfs {

class NameNode {
 public:
  NameNode(sim::Simulation& sim, cluster::Cluster& cluster, DfsConfig config);

  // ---- control plane -------------------------------------------------

  /// Registers a DataNode host. All cluster nodes hosting DFS storage must
  /// be registered before I/O starts.
  void register_datanode(NodeId node);

  /// Heartbeat from a DataNode carrying its recent I/O bandwidth (bytes/s),
  /// which feeds Algorithm 1 for dedicated nodes.
  void heartbeat(NodeId node, double reported_bandwidth);

  [[nodiscard]] DataNodeState state_of(NodeId node) const;
  [[nodiscard]] bool is_saturated(NodeId dedicated_node) const;
  [[nodiscard]] bool all_dedicated_saturated() const;

  /// Current estimate p of volatile-node unavailability (fraction of
  /// registered volatile DataNodes not Live, averaged over interval I).
  [[nodiscard]] double estimated_unavailability() const { return estimate_p_; }

  /// Starts periodic liveness scanning / estimation. Idempotent.
  void start();

  // ---- crash-recovery (DESIGN.md §14) ---------------------------------

  /// False while the master is down: mutating calls must not be made (the
  /// Dfs parks client ops; DataNodes buffer their heartbeats). Metadata
  /// *reads* stay legal — they model the client-side cached view.
  [[nodiscard]] bool available() const { return up_; }

  /// Registration epoch, bumped on every recovery. A DataNode whose
  /// registered epoch is stale must re-register with a block report before
  /// plain heartbeats are meaningful again.
  [[nodiscard]] int epoch() const { return epoch_; }

  /// Installs the recovery journal (null = journaling off, the
  /// zero-perturbation default). Not owned.
  void set_journal(recovery::NameNodeJournal* journal) { journal_ = journal; }
  [[nodiscard]] recovery::NameNodeJournal* journal() { return journal_; }

  /// Crashes the master. All soft state is lost: replica locations (wiped
  /// in BlockId order, firing removal events so scheduler locality indices
  /// stay consistent), the DataNode liveness view, the replication queue,
  /// and the unavailability estimator. The journaled namespace
  /// (files/blocks metadata) survives as the clients' cached view.
  void crash();

  /// Recovery phase 1: bump the registration epoch, replay the journal and
  /// diff the image against the live namespace (mismatches are counted as
  /// journal divergences — recovery would have lost state), come back up.
  /// Block reports then rebuild replica locations.
  void begin_recovery();

  /// Re-registration: `node` reports every block it physically stores
  /// (sorted). Restores its liveness and re-commits known replicas;
  /// stale blocks of meanwhile-deleted files are ignored.
  void handle_block_report(NodeId node, const std::vector<BlockId>& report,
                           double reported_bandwidth);

  /// Recovery phase 3 (after the re-registration storm): drain file
  /// removals deferred during downtime, then re-queue every block still
  /// short of its factor through the normal repair path.
  void finish_recovery();

  // ---- namespace -----------------------------------------------------

  FileId create_file(std::string name, FileKind kind, ReplicationFactor factor);
  [[nodiscard]] const FileMeta& file(FileId id) const;
  [[nodiscard]] bool file_exists(FileId id) const;

  /// Output commit: "once all [Reduce tasks] are completed they are then
  /// converted to reliable files". Enqueues dedicated replication as needed.
  void convert_to_reliable(FileId id);

  /// Marks the file complete once every block meets its factor; returns
  /// whether it did.
  bool try_complete_file(FileId id);

  void remove_file(FileId id);

  // ---- blocks ----------------------------------------------------------

  BlockId add_block(FileId file, Bytes size);
  [[nodiscard]] const BlockMeta& block(BlockId id) const;
  [[nodiscard]] bool block_exists(BlockId id) const;

  /// Write-target selection for one block (Figure 3 decision process).
  struct WriteTargets {
    std::vector<NodeId> nodes;      ///< chosen replica hosts, writer-local first
    bool dedicated_declined = false;  ///< opportunistic write hit saturation
    int effective_volatile = 0;       ///< v or adjusted v'
  };
  WriteTargets pick_write_targets(FileId file, NodeId writer, Rng& rng);

  /// Registers that `node` now holds a replica of `block`.
  void commit_replica(BlockId block, NodeId node);

  /// Replica on `node` is gone (node death handling / explicit delete).
  void drop_replica(BlockId block, NodeId node);

  /// Replicas visible for reading: on Live nodes only, ordered volatile-
  /// first for volatile readers (§IV-B), local replica always first.
  [[nodiscard]] std::vector<NodeId> read_order(BlockId block, NodeId reader) const;

  [[nodiscard]] bool block_readable(BlockId block) const;

  /// Count of replicas on Live dedicated / Live volatile nodes.
  struct LiveReplicas {
    int dedicated = 0;
    int volatile_count = 0;
    int hibernated = 0;
  };
  [[nodiscard]] LiveReplicas live_replicas(BlockId block) const;

  /// True once `block` meets its file's factor (counting Live replicas;
  /// hibernated replicas count when a live dedicated copy exists, per §IV-C).
  [[nodiscard]] bool block_meets_factor(BlockId block) const;
  [[nodiscard]] bool file_meets_factor(FileId file) const;

  // ---- replication queue ----------------------------------------------

  /// A block in need of copies, with "higher priority to reliable files".
  struct ReplicationRequest {
    BlockId block;
    bool reliable;  // priority key
  };
  void enqueue_replication(BlockId block);
  /// Pops the highest-priority block still under factor; nullopt when done.
  std::optional<ReplicationRequest> next_replication_request();
  [[nodiscard]] std::size_t replication_queue_depth() const;

  /// Picks a (source, target) pair to repair `block`: source is any Live
  /// replica holder; target honours the missing dimension (dedicated vs
  /// volatile) and Fig. 3 saturation rules. nullopt if not repairable now.
  struct RepairPlan {
    NodeId source;
    NodeId target;
  };
  std::optional<RepairPlan> plan_repair(BlockId block, Rng& rng);

  // ---- adaptive replication -------------------------------------------

  /// v' = min v such that 1 - p^v >= availability_goal (>= 1).
  [[nodiscard]] int adaptive_volatile_requirement() const;

  /// Recomputes v' for opportunistic files still lacking a dedicated copy
  /// ("If p changes before a dedicated replica can be stored, v' will be
  /// recalculated accordingly"). Walks only the adaptive-file index.
  void refresh_adaptive_requirements();

  // ---- events / stats ---------------------------------------------------

  using StateListener =
      std::function<void(NodeId, DataNodeState, DataNodeState)>;
  void subscribe_state_changes(StateListener listener);

  /// Fires whenever a replica enters (`added`) or leaves the replica list of
  /// a block — commit_replica, drop_replica, and remove_file teardown. The
  /// scheduler's per-job locality indices hang off this hook.
  using ReplicaListener = std::function<void(BlockId, NodeId, bool added)>;
  void subscribe_replica_events(ReplicaListener listener);

  [[nodiscard]] const DfsStats& stats() const { return stats_; }
  [[nodiscard]] DfsStats& stats_mutable() { return stats_; }
  [[nodiscard]] const DfsConfig& config() const { return config_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }

  /// All registered datanode ids (tests/benches).
  [[nodiscard]] std::vector<NodeId> datanodes() const;

  // ---- auditor views (read-only) ----------------------------------------

  /// Reverse index of one node: the blocks whose replica list includes it,
  /// split by the owning file's current kind into two disjoint sorted
  /// BlockId lists. The hibernation sweep walks only `opportunistic`
  /// (§IV-C never re-replicates reliable blocks on hibernation); the death
  /// sweep merge-walks both in BlockId order.
  struct NodeBlocks {
    std::vector<BlockId> opportunistic;
    std::vector<BlockId> reliable;
    [[nodiscard]] std::vector<BlockId>& of(FileKind kind) {
      return kind == FileKind::kReliable ? reliable : opportunistic;
    }
    [[nodiscard]] const std::vector<BlockId>& of(FileKind kind) const {
      return kind == FileKind::kReliable ? reliable : opportunistic;
    }
  };
  /// `node`'s reverse index; nullptr when none recorded.
  [[nodiscard]] const NodeBlocks* blocks_on(NodeId node) const {
    return node.value() < node_blocks_.size() ? &node_blocks_[node.value()]
                                              : nullptr;
  }
  /// Files whose `adaptive_volatile` is non-zero, in FileId order: exactly
  /// the files the estimate scan re-evaluates.
  [[nodiscard]] const std::set<FileId>& adaptive_files() const {
    return adaptive_files_;
  }
  /// Every live block's / file's metadata, in id order (moon::audit walks
  /// these for conservation checks).
  [[nodiscard]] auto all_blocks() const { return blocks_.live(); }
  [[nodiscard]] auto all_files() const { return files_.live(); }

 private:
  struct DataNodeInfo {
    DataNodeState state = DataNodeState::kLive;
    sim::Time last_heartbeat = 0;
    ThrottleState throttle;
    bool dedicated = false;
  };

  /// Mutable access stays private: `kind` and `adaptive_volatile` key the
  /// reverse-index split and the adaptive-file index, so every change to
  /// them must go through a NameNode method that keeps those in step.
  [[nodiscard]] FileMeta& file_mutable(FileId id);
  /// The registered DataNode `node`, or nullptr.
  [[nodiscard]] const DataNodeInfo* info_of(NodeId node) const {
    return node.value() < datanodes_.size() && datanodes_[node.value()]
               ? &*datanodes_[node.value()]
               : nullptr;
  }
  [[nodiscard]] DataNodeInfo* info_of(NodeId node) {
    return const_cast<DataNodeInfo*>(std::as_const(*this).info_of(node));
  }
  /// `node`'s reverse-index bucket, grown on first use.
  NodeBlocks& bucket_of(NodeId node);
  /// live_replicas / block_meets_factor on a block already looked up.
  [[nodiscard]] LiveReplicas count_live(const BlockMeta& meta) const;
  [[nodiscard]] bool meets_factor(const BlockMeta& meta,
                                  const LiveReplicas& live) const;

  void liveness_scan();
  void estimate_scan();
  /// Journal-replay image vs live namespace mismatch count (recovery).
  [[nodiscard]] std::int64_t diff_against_journal();
  void set_state(NodeId node, DataNodeState next);
  void on_node_dead(NodeId node);
  void on_node_hibernated(NodeId node);
  void update_live_partition(NodeId node);
  void notify_replica(BlockId block, NodeId node, bool added);

  /// Reverse index for death/hibernation handling, indexed by NodeId.
  /// Sorted buckets: the sweeps enqueue replication while walking a bucket,
  /// and the queue position decides repair order (§2 determinism contract).
  std::vector<NodeBlocks> node_blocks_;
  /// Files with `adaptive_volatile != 0`. A file enters on a declined
  /// dedicated write and leaves wherever the raise lapses (refresh,
  /// convert_to_reliable, remove_file); ordered so the estimate scan
  /// enqueues in FileId order.
  std::set<FileId> adaptive_files_;

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  DfsConfig config_;

  /// Indexed by NodeId, empty for unregistered ids. Walks go in NodeId
  /// order: the liveness scan takes state-changing actions (death ->
  /// replication enqueues, listener callbacks), so its order must not
  /// depend on registration order (DESIGN.md §2 determinism contract).
  std::vector<std::optional<DataNodeInfo>> datanodes_;
  IdTable<FileId, FileMeta> files_;
  IdTable<BlockId, BlockMeta> blocks_;
  IdAllocator<FileId> file_ids_;
  IdAllocator<BlockId> block_ids_;

  /// Live-node partitions, maintained on registration and every state
  /// transition so placement never rescans the full datanode map. Ordered
  /// sets: iteration order must reproduce the old gather-then-sort path.
  std::set<NodeId> live_dedicated_;
  std::set<NodeId> live_volatile_;
  std::size_t volatile_registered_ = 0;

  /// Replication queue, one entry per queued block keyed by (class, seq,
  /// block): class 0 holds reliable files' blocks and pops first, class 1
  /// the rest; within a class blocks pop in enqueue (seq) order. The
  /// block's live seq sits in its BlockMeta::queue_seq.
  using QueueKey = std::tuple<int, std::uint64_t, BlockId>;
  [[nodiscard]] static int queue_class(FileKind kind) {
    return kind == FileKind::kReliable ? 0 : 1;
  }
  std::set<QueueKey> replication_queue_;
  std::uint64_t queue_seq_ = 0;

  double estimate_p_ = 0.0;
  double estimate_accum_ = 0.0;
  int estimate_samples_ = 0;

  std::vector<StateListener> state_listeners_;
  std::vector<ReplicaListener> replica_listeners_;
  sim::PeriodicTask liveness_task_;
  sim::PeriodicTask estimate_task_;
  bool started_ = false;

  // Crash-recovery state (DESIGN.md §14).
  bool up_ = true;
  int epoch_ = 0;
  recovery::NameNodeJournal* journal_ = nullptr;  ///< null when disabled
  /// remove_file calls that arrived while down, drained at recovery in
  /// arrival order.
  std::vector<FileId> deferred_removals_;

  DfsStats stats_;
};

}  // namespace moon::dfs
