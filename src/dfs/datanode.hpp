// DataNode: per-node storage daemon.
//
// Holds the set of blocks physically on the node and heartbeats the
// NameNode while its host is available, piggybacking the recently consumed
// I/O bandwidth (feeding Algorithm 1 on the NameNode side). When the host
// goes down, heartbeats simply stop — the NameNode notices via its liveness
// scan, exactly like Hadoop.
#pragma once

#include <unordered_set>
#include <vector>

#include "cluster/node.hpp"
#include "common/ids.hpp"
#include "dfs/namenode.hpp"
#include "simkit/flow_network.hpp"
#include "simkit/periodic.hpp"
#include "simkit/simulation.hpp"

namespace moon::dfs {

class DataNode {
 public:
  DataNode(sim::Simulation& sim, sim::FlowNetwork& net, cluster::Node& host,
           NameNode& namenode);

  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  [[nodiscard]] NodeId node_id() const { return host_.id(); }
  [[nodiscard]] cluster::Node& host() { return host_; }

  [[nodiscard]] bool stores(BlockId block) const {
    return sorted_contains(blocks_, block);
  }
  /// Every block physically here, in BlockId order (auditor view).
  [[nodiscard]] const std::vector<BlockId>& blocks() const { return blocks_; }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] Bytes stored_bytes() const { return stored_bytes_; }

  /// Physically lands a replica here (called by write/replication paths on
  /// transfer completion); informs the NameNode. A re-store of a block this
  /// node already holds clears any corruption mark (fresh bytes).
  void store_block(BlockId block, Bytes size);

  void drop_block(BlockId block, Bytes size);

  /// Fault injection: marks the stored replica as silently corrupted. The
  /// NameNode still counts it (corruption is silent until a reader's
  /// checksum verification catches it).
  void mark_corrupted(BlockId block);
  [[nodiscard]] bool corrupted(BlockId block) const {
    return corrupted_.contains(block);
  }

  /// Begins heartbeating (first beat after one interval).
  void start();

  /// Re-registration after a NameNode recovery: sends the full sorted list
  /// of physically stored blocks (the NameNode rebuilds its location soft
  /// state from these). Called by the recovery storm for available nodes
  /// and from beat() when this node notices the epoch moved under it.
  void send_block_report();

 private:
  void beat();
  [[nodiscard]] double current_bandwidth();

  sim::Simulation& sim_;
  sim::FlowNetwork& net_;
  cluster::Node& host_;
  NameNode& namenode_;
  std::vector<BlockId> blocks_;  ///< sorted; sent as-is in block reports
  std::unordered_set<BlockId> corrupted_;
  Bytes stored_bytes_ = 0;
  double last_reported_transferred_ = 0.0;
  sim::Time last_beat_at_ = 0;
  int registered_epoch_ = 0;  ///< NameNode epoch this node registered under
  sim::PeriodicTask heartbeat_;
};

}  // namespace moon::dfs
