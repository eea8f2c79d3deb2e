#include "audit/auditor.hpp"

#include <algorithm>
#include <unordered_set>

#include "mapred/task.hpp"
#include "obs/event_log.hpp"

namespace moon::audit {
namespace {

std::string node_str(NodeId n) { return std::to_string(n.value()); }
std::string block_str(BlockId b) { return std::to_string(b.value()); }

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
  // Forward: every NameNode replica entry is mirrored in the half of the
  // reverse index that matches its file's kind, and is physically present
  // on the DataNode.
  for (const dfs::BlockMeta& meta : nn.all_blocks()) {
    const BlockId id = meta.id;
    const FileKind kind = nn.file(meta.file).kind;
    for (auto r = meta.replicas.begin(); r != meta.replicas.end(); ++r) {
      const NodeId n = *r;
      if (std::find(meta.replicas.begin(), r, n) != r) {
        out.push_back({"dfs.replica-consistency",
                       "block " + block_str(id) + " lists node " + node_str(n) +
                           " twice"});
        continue;
      }
      const auto* bucket = nn.blocks_on(n);
      if (bucket == nullptr || !dfs::sorted_contains(bucket->of(kind), id)) {
        out.push_back({"dfs.replica-consistency",
                       "block " + block_str(id) + " replica on node " +
                           node_str(n) + " missing from the " +
                           dfs::to_string(kind) + " reverse index"});
      }
      if (!dfs_->datanode(n).stores(id)) {
        out.push_back({"dfs.replica-consistency",
                       "block " + block_str(id) + " replica on node " +
                           node_str(n) + " not physically stored"});
      }
    }
  }
  // Reverse: every reverse-index entry points at a live block that lists
  // the node, and the two halves are disjoint — with the forward check, an
  // entry filed under the wrong kind cannot hide. (DataNodes may hold stale
  // blocks of deleted files; that direction is by design and not checked.)
  for (NodeId n : nn.datanodes()) {
    const auto* bucket = nn.blocks_on(n);
    if (bucket == nullptr) continue;
    for (FileKind kind : {FileKind::kOpportunistic, FileKind::kReliable}) {
      const bool check_disjoint = kind == FileKind::kOpportunistic;
      for (BlockId b : bucket->of(kind)) {
        if (check_disjoint && dfs::sorted_contains(bucket->reliable, b)) {
          out.push_back({"dfs.replica-consistency",
                         "block " + block_str(b) +
                             " in both reverse-index halves of node " +
                             node_str(n)});
        }
        if (!nn.block_exists(b)) {
          out.push_back({"dfs.replica-consistency",
                         "reverse index holds deleted block " + block_str(b) +
                             " on node " + node_str(n)});
          continue;
        }
        if (!nn.block(b).has_replica_on(n)) {
          out.push_back({"dfs.replica-consistency",
                         "reverse index lists block " + block_str(b) +
                             " on node " + node_str(n) +
                             " absent from the block's replica list"});
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
    const std::string job_tag = "job " + std::to_string(job->id().value());
    int live_total = 0;
    for (mapred::TaskType type :
         {mapred::TaskType::kMap, mapred::TaskType::kReduce}) {
      for (TaskId tid : job->tasks_of(type)) {
        const mapred::Task& t = job->task(tid);
        const std::string task_tag =
            job_tag + " task " + std::to_string(tid.value());
        live_total += static_cast<int>(t.live_attempts.size());
        for (mapred::TaskAttempt* a : t.live_attempts) {
          if (a->terminal()) {
            out.push_back({"mapred.task-attempts",
                           task_tag + " live set holds a terminal attempt"});
          }
          if (master_up && jobtracker_->tracker_state(a->tracker().node_id()) ==
                               TrackerState::kDead) {
            out.push_back({"mapred.task-attempts",
                           task_tag + " has a live attempt on dead tracker " +
                               node_str(a->tracker().node_id())});
          }
        }
        if (t.state == TaskState::kPending && !t.live_attempts.empty()) {
          out.push_back({"mapred.task-attempts",
                         task_tag + " pending with live attempts"});
        }
        if (t.state == TaskState::kRunning && t.live_attempts.empty()) {
          out.push_back({"mapred.task-attempts",
                         task_tag + " running with no live attempt"});
        }
      }
    }
    if (live_total != job->live_attempts()) {
      out.push_back({"mapred.task-attempts",
                     job_tag + " live-attempt counter " +
                         std::to_string(job->live_attempts()) +
                         " != per-task sum " + std::to_string(live_total)});
    }
  }
}

void Auditor::check_checkpoints(std::vector<Violation>& out) {
  const auto& nn = jobtracker_->dfs().namenode();
  for (const auto& [key, rec] : jobtracker_->checkpoint_store().records()) {
    const std::string tag = "checkpoint job " +
                            std::to_string(key.first.value()) + " task " +
                            std::to_string(key.second.value());
    std::unordered_set<BlockId> seen;
    for (BlockId b : rec.blocks) {
      if (!seen.insert(b).second) {
        out.push_back(
            {"checkpoint.segments", tag + " logs segment " + block_str(b) +
                                        " twice"});
        continue;
      }
      // Replica loss is legal (latest_live/is_dead handle it); a committed
      // segment pointing outside its own log file is not.
      if (!nn.file_exists(rec.file) || !nn.block_exists(b)) continue;
      if (nn.block(b).file != rec.file) {
        out.push_back({"checkpoint.segments",
                       tag + " segment " + block_str(b) +
                           " belongs to a different file"});
      }
    }
  }
}

}  // namespace moon::audit
