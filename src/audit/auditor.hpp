// Cross-component invariant auditor (DESIGN.md §13).
//
// Walks the Cluster, NameNode/DataNodes, JobTracker/Jobs, and
// CheckpointStore and asserts the conservation invariants that hold at
// every event boundary, fault injection or not:
//
//   dfs.replica-consistency   NameNode replica lists, the per-node reverse
//                             index, and physical DataNode block sets agree
//                             (NameNode-side entries always have the bytes;
//                             DataNodes may additionally hold stale blocks
//                             of deleted files — that direction is not an
//                             error).
//   mapred.task-attempts      Task state matches its live-attempt set
//                             (kPending = none, kRunning = some), the
//                             per-job live-attempt counter is conserved,
//                             and no live attempt runs on a tracker the
//                             JobTracker has declared dead.
//   checkpoint.segments       Committed checkpoint records reference only
//                             blocks of their own log file, without
//                             duplicates.
//
// The auditor is strictly read-only — running it cannot perturb the
// simulation (same contract as obs::) — so it can ride as a periodic sim
// event during chaos sweeps and be called directly from tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_store.hpp"
#include "cluster/cluster.hpp"
#include "dfs/dfs.hpp"
#include "mapred/jobtracker.hpp"

namespace moon::audit {

struct Violation {
  std::string invariant;  ///< e.g. "dfs.replica-consistency"
  std::string detail;

  friend bool operator<(const Violation& a, const Violation& b) {
    return a.invariant != b.invariant ? a.invariant < b.invariant
                                      : a.detail < b.detail;
  }
};

class Auditor {
 public:
  /// Any ref may be null; the corresponding checks are skipped. Violations
  /// are logged to the Simulation the first non-null one belongs to.
  Auditor(cluster::Cluster* cluster, dfs::Dfs* dfs,
          mapred::JobTracker* jobtracker);

  /// Runs every applicable invariant once. Returns the violations found
  /// (sorted, empty when clean) and logs each at error level.
  std::vector<Violation> run();

  [[nodiscard]] std::int64_t passes() const { return passes_; }
  [[nodiscard]] std::int64_t violations_total() const {
    return violations_total_;
  }

 private:
  void check_dfs(std::vector<Violation>& out);
  void check_mapred(std::vector<Violation>& out);
  void check_checkpoints(std::vector<Violation>& out);

  cluster::Cluster* cluster_;
  dfs::Dfs* dfs_;
  mapred::JobTracker* jobtracker_;
  sim::Simulation* sim_;
  std::int64_t passes_ = 0;
  std::int64_t violations_total_ = 0;

  /// check_dfs scratch, indexed by NodeId: the blocks whose replica lists
  /// name the node, split by file kind like the reverse index and in all
  /// (one list to merge against the DataNode), each in BlockId order.
  /// Cleared and refilled every pass, so a clean sweep allocates nothing
  /// once the lists have grown.
  struct Expected {
    dfs::NameNode::NodeBlocks by_kind;
    std::vector<BlockId> all;
  };
  std::vector<Expected> expected_;
};

}  // namespace moon::audit
