// MoonFS façade: wires a NameNode and one DataNode per cluster node, hosts
// the asynchronous client operations (file writes, block reads) and the
// background replication monitor that services the NameNode's queue.
//
// All data movement is expressed as flows on the cluster's FlowNetwork:
//   local write/read   : {node.disk}
//   remote write       : {writer.nic_out, target.nic_in, target.disk}
//   remote read        : {source.disk, source.nic_out, reader.nic_in}
//   re-replication     : {source.disk, source.nic_out, target.nic_in, target.disk}
//
// Stall handling: transfers through an unavailable node run at rate 0; a
// periodic probe abandons stalled attempts and retries elsewhere (clients
// "experience timeouts trying to access the nodes", §IV-C).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "dfs/datanode.hpp"
#include "dfs/namenode.hpp"
#include "dfs/types.hpp"
#include "simkit/periodic.hpp"

namespace moon::dfs {

/// Handle for an in-flight client operation.
using OpId = std::uint64_t;

class Dfs {
 public:
  /// Completion callback: `true` on success.
  using Done = std::function<void(bool)>;

  Dfs(sim::Simulation& sim, cluster::Cluster& cluster, DfsConfig config,
      std::uint64_t seed);
  ~Dfs();

  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  /// Starts heartbeats, liveness scans, the replication monitor and the
  /// client stall probe.
  void start();

  // ---- NameNode crash-recovery (DESIGN.md §14) ---------------------------

  /// Crashes the NameNode (fault injector entry point). In-flight data
  /// transfers keep streaming — the data plane is not the control plane —
  /// but everything that needs master metadata parks until recovery.
  void crash_namenode();

  /// Full recovery sequence: journal replay + diff, re-registration storm
  /// (available DataNodes send block reports in NodeId order), deferred
  /// deletes + under-factor sweep, then parked client ops are re-kicked in
  /// issue order and the repair pipeline refilled.
  void recover_namenode();

  [[nodiscard]] NameNode& namenode() { return namenode_; }
  [[nodiscard]] const NameNode& namenode() const { return namenode_; }
  [[nodiscard]] DataNode& datanode(NodeId node);
  [[nodiscard]] const DfsConfig& config() const { return namenode_.config(); }
  [[nodiscard]] const DfsStats& stats() const { return namenode_.stats(); }

  // ---- staging (no simulated cost) --------------------------------------
  /// Creates a file whose blocks are already resident per `factor`
  /// (round-robin dedicated placement, random distinct volatile placement).
  /// Used to pre-load job input, as the paper does before timing starts.
  FileId stage_file(const std::string& name, FileKind kind,
                    ReplicationFactor factor, Bytes size);

  /// Like stage_file but with an explicit block layout (`count` blocks of
  /// `block_bytes` each) — e.g. the sleep workload needs one (tiny) input
  /// block per map task.
  FileId stage_blocks(const std::string& name, FileKind kind,
                      ReplicationFactor factor, int count, Bytes block_bytes);

  // ---- asynchronous client operations ------------------------------------
  /// Writes `size` fresh bytes from `writer` into `file` (appending blocks).
  /// Replication degree/placement follow the file's factor and Figure 3.
  OpId write_file(FileId file, NodeId writer, Bytes size, Done done);

  /// Reads one block to `reader`, retrying across replicas on stalls.
  OpId read_block(BlockId block, NodeId reader, Done done);

  /// Reads `bytes` out of a block (a shuffle partition fetch). Replica
  /// selection and retry behaviour match read_block.
  OpId read_partial(BlockId block, NodeId reader, Bytes bytes, Done done);

  /// Aborts an in-flight operation (no callback fires).
  void cancel_op(OpId op);

  [[nodiscard]] std::size_t active_ops() const { return ops_.size(); }
  [[nodiscard]] std::size_t active_repairs() const { return repairs_.size(); }
  /// Bytes of in-flight partial (shuffle partition) reads. Maintained
  /// unconditionally — cheap integer bookkeeping — so metrics gauges can
  /// read it without perturbing anything.
  [[nodiscard]] Bytes shuffle_bytes_in_flight() const {
    return partial_inflight_;
  }

  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }

 private:
  struct Op;
  struct WriteOp;
  struct ReadOp;
  struct Repair;

  void probe_ops();
  /// Probes, in issue order, every op issued before the call; an op issued
  /// by a probe's callbacks waits for the next pass.
  void probe_issued_ops();
  /// Runs one op's stall probe. An op that finishes or is cancelled during
  /// its own probe stays alive (closed) until the probe returns.
  void probe_op(OpId id);
  void replication_scan();
  void start_repair_streams();
  void finish_op(OpId id, bool ok);
  void begin_op(OpId id);

  /// Lands a transferred replica on `target`, honouring injected storage
  /// faults: a rejected (disk-full) store never reaches the DataNode, a
  /// corrupted one lands marked for checksum-on-read detection. Returns
  /// whether the replica landed.
  bool land_replica(BlockId block, NodeId target, Bytes size);

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  Rng rng_;
  NameNode namenode_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;  // indexed by node id
  /// Ordered by OpId (issue order), so walks over them need no sort.
  std::map<OpId, std::unique_ptr<Op>> ops_;
  Op* probing_ = nullptr;               ///< op whose probe() is running
  std::unique_ptr<Op> probed_closed_;   ///< it, once closed mid-probe
  /// Ordered by FlowId (stream start order).
  std::map<FlowId, Repair> repairs_;
  OpId next_op_ = 1;
  Bytes partial_inflight_ = 0;
  sim::PeriodicTask probe_task_;
  sim::PeriodicTask replication_task_;
  bool started_ = false;
};

}  // namespace moon::dfs
