#include "audit/auditor.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "mapred/task.hpp"
#include "obs/event_log.hpp"

namespace moon::audit {
namespace {

std::string node_str(NodeId n) { return std::to_string(n.value()); }
std::string block_str(BlockId b) { return std::to_string(b.value()); }

/// Calls `f(b)` for each block of the sorted list `list` that the sorted
/// list `other` lacks, in one merge walk.
template <class F>
void for_each_unmatched(const std::vector<BlockId>& list,
                        const std::vector<BlockId>& other, F f) {
  auto it = other.begin();
  for (BlockId b : list) {
    while (it != other.end() && *it < b) ++it;
    if (it == other.end() || *it != b) f(b);
  }
}

}  // namespace

Auditor::Auditor(cluster::Cluster* cluster, dfs::Dfs* dfs,
                 mapred::JobTracker* jobtracker)
    : cluster_(cluster),
      dfs_(dfs),
      jobtracker_(jobtracker),
      sim_(cluster != nullptr      ? &cluster->simulation()
           : dfs != nullptr        ? &dfs->simulation()
           : jobtracker != nullptr ? &jobtracker->simulation()
                                   : nullptr) {}

std::vector<Violation> Auditor::run() {
  std::vector<Violation> out;
  if (dfs_ != nullptr) check_dfs(out);
  if (jobtracker_ != nullptr) {
    check_mapred(out);
    check_checkpoints(out);
  }
  // One canonical order for the findings of all the walks.
  std::sort(out.begin(), out.end());
  ++passes_;
  violations_total_ += static_cast<std::int64_t>(out.size());
  if (sim_ != nullptr && sim_->event_log() != nullptr) {
    for (const Violation& v : out) {
      obs::emit(*sim_, obs::Level::kError, "audit", "invariant violated",
                {{"invariant", v.invariant}, {"detail", v.detail}});
    }
  }
  return out;
}

void Auditor::check_dfs(std::vector<Violation>& out) {
  using dfs::FileKind;
  auto& nn = dfs_->namenode();
  const auto violation = [&out](std::string detail) {
    out.push_back({"dfs.replica-consistency", std::move(detail)});
  };
  // File every replica entry under its node, by its file's kind and in all.
  // The walk goes in BlockId order, so every list comes out sorted. The
  // scratch covers every node with a reverse-index bucket too, so a bucket
  // past the highest replica holder is still walked below.
  for (Expected& e : expected_) {
    e.by_kind.opportunistic.clear();
    e.by_kind.reliable.clear();
    e.all.clear();
  }
  while (nn.blocks_on(NodeId(expected_.size())) != nullptr) {
    expected_.emplace_back();
  }
  for (const dfs::BlockMeta& meta : nn.all_blocks()) {
    const BlockId id = meta.id;
    const FileKind kind = nn.file(meta.file).kind;
    for (auto r = meta.replicas.begin(); r != meta.replicas.end(); ++r) {
      const NodeId n = *r;
      if (std::find(meta.replicas.begin(), r, n) != r) {
        violation("block " + block_str(id) + " lists node " + node_str(n) +
                  " twice");
        continue;
      }
      if (n.value() >= expected_.size()) expected_.resize(n.value() + 1);
      Expected& e = expected_[n.value()];
      e.by_kind.of(kind).push_back(id);
      e.all.push_back(id);
    }
  }
  // Per node, sorted merges against the reverse index and the DataNode:
  // each block filed under the node must sit in the reverse-index half of
  // its file's kind and be physically stored, each reverse-index entry must
  // point at a live block that lists the node, and the two halves are
  // disjoint. With both directions, an entry filed under the wrong kind
  // cannot hide. (DataNodes may hold stale blocks of deleted files; that
  // direction is by design and not checked.)
  const std::vector<BlockId> none;
  for (std::size_t i = 0; i < expected_.size(); ++i) {
    const NodeId n(i);
    const Expected& expected = expected_[i];
    const auto* bucket = nn.blocks_on(n);
    for (FileKind kind : {FileKind::kOpportunistic, FileKind::kReliable}) {
      const std::vector<BlockId>& want = expected.by_kind.of(kind);
      const std::vector<BlockId>& have =
          bucket != nullptr ? bucket->of(kind) : none;
      for_each_unmatched(want, have, [&](BlockId b) {
        violation("block " + block_str(b) + " replica on node " + node_str(n) +
                  " missing from the " + dfs::to_string(kind) +
                  " reverse index");
      });
      // A listed block not expected in this half is deleted, does not
      // list the node, or (found by the other half's walk) has the other
      // kind.
      for_each_unmatched(have, want, [&](BlockId b) {
        if (!nn.block_exists(b)) {
          violation("reverse index holds deleted block " + block_str(b) +
                    " on node " + node_str(n));
        } else if (!nn.block(b).has_replica_on(n)) {
          violation("reverse index lists block " + block_str(b) + " on node " +
                    node_str(n) + " absent from the block's replica list");
        }
      });
    }
    // Only a node some replica list names must host a DataNode.
    if (!expected.all.empty()) {
      const std::vector<BlockId>& stored = dfs_->datanode(n).blocks();
      for_each_unmatched(expected.all, stored, [&](BlockId b) {
        violation("block " + block_str(b) + " replica on node " + node_str(n) +
                  " not physically stored");
      });
    }
    if (bucket != nullptr) {
      auto rel = bucket->reliable.begin();
      for (BlockId b : bucket->opportunistic) {
        while (rel != bucket->reliable.end() && *rel < b) ++rel;
        if (rel != bucket->reliable.end() && *rel == b) {
          violation("block " + block_str(b) +
                    " in both reverse-index halves of node " + node_str(n));
        }
      }
    }
  }
  // Adaptive index: exactly the files whose volatile requirement is raised.
  for (const dfs::FileMeta& meta : nn.all_files()) {
    if ((meta.adaptive_volatile != 0) != nn.adaptive_files().contains(meta.id)) {
      out.push_back({"dfs.adaptive-index",
                     "file " + std::to_string(meta.id.value()) + " adaptive v " +
                         std::to_string(meta.adaptive_volatile) +
                         " disagrees with the adaptive index"});
    }
  }
  for (FileId id : nn.adaptive_files()) {
    if (!nn.file_exists(id)) {
      out.push_back({"dfs.adaptive-index",
                     "adaptive index holds deleted file " +
                         std::to_string(id.value())});
    }
  }
}

void Auditor::check_mapred(std::vector<Violation>& out) {
  using mapred::TaskState;
  using mapred::TrackerState;
  // While the master is crashed its tracker table is wiped soft state: every
  // tracker reads kDead even though its workers still run attempts, so the
  // liveness cross-check only means something against an up master. (A sweep
  // can land here mid-downtime when the *other* master just recovered.)
  const bool master_up = jobtracker_->available();
  for (mapred::Job* job : jobtracker_->jobs_in_order()) {
    if (job->finished()) continue;
    // Tags are built only for a finding: a clean sweep makes no strings.
    const auto job_tag = [job] {
      return "job " + std::to_string(job->id().value());
    };
    int live_total = 0;
    for (mapred::TaskType type :
         {mapred::TaskType::kMap, mapred::TaskType::kReduce}) {
      for (TaskId tid : job->tasks_of(type)) {
        const mapred::Task& t = job->task(tid);
        const auto task_tag = [&] {
          return job_tag() + " task " + std::to_string(tid.value());
        };
        live_total += static_cast<int>(t.live_attempts.size());
        for (mapred::TaskAttempt* a : t.live_attempts) {
          if (a->terminal()) {
            out.push_back({"mapred.task-attempts",
                           task_tag() + " live set holds a terminal attempt"});
          }
          if (master_up && jobtracker_->tracker_state(a->tracker().node_id()) ==
                               TrackerState::kDead) {
            out.push_back({"mapred.task-attempts",
                           task_tag() + " has a live attempt on dead tracker " +
                               node_str(a->tracker().node_id())});
          }
        }
        if (t.state == TaskState::kPending && !t.live_attempts.empty()) {
          out.push_back({"mapred.task-attempts",
                         task_tag() + " pending with live attempts"});
        }
        if (t.state == TaskState::kRunning && t.live_attempts.empty()) {
          out.push_back({"mapred.task-attempts",
                         task_tag() + " running with no live attempt"});
        }
      }
    }
    if (live_total != job->live_attempts()) {
      out.push_back({"mapred.task-attempts",
                     job_tag() + " live-attempt counter " +
                         std::to_string(job->live_attempts()) +
                         " != per-task sum " + std::to_string(live_total)});
    }
  }
}

void Auditor::check_checkpoints(std::vector<Violation>& out) {
  const auto& nn = jobtracker_->dfs().namenode();
  for (const auto& [key, rec] : jobtracker_->checkpoint_store().records()) {
    const auto tag = [&key] {
      return "checkpoint job " + std::to_string(key.first.value()) + " task " +
             std::to_string(key.second.value());
    };
    for (auto seg = rec.blocks.begin(); seg != rec.blocks.end(); ++seg) {
      const BlockId b = *seg;
      if (std::find(rec.blocks.begin(), seg, b) != seg) {
        out.push_back({"checkpoint.segments",
                       tag() + " logs segment " + block_str(b) + " twice"});
        continue;
      }
      // Replica loss is legal (latest_live/is_dead handle it); a committed
      // segment pointing outside its own log file is not.
      if (!nn.file_exists(rec.file) || !nn.block_exists(b)) continue;
      if (nn.block(b).file != rec.file) {
        out.push_back({"checkpoint.segments",
                       tag() + " segment " + block_str(b) +
                           " belongs to a different file"});
      }
    }
  }
}

}  // namespace moon::audit
