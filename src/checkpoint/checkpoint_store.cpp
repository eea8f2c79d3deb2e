#include "checkpoint/checkpoint_store.hpp"

#include <algorithm>

#include "obs/event_log.hpp"
#include "simkit/profiler.hpp"
#include "simkit/simulation.hpp"

namespace moon::checkpoint {

CheckpointStore::CheckpointStore(dfs::Dfs& dfs, CheckpointConfig config)
    : dfs_(dfs), config_(config) {}

CheckpointStore::~CheckpointStore() {
  // Cancelled ops never run their callbacks, so no record mutates after this.
  for (const auto& [key, in] : inflight_) dfs_.cancel_op(in.op);
}

void CheckpointStore::emit(Snapshot snap, NodeId writer,
                           std::function<void(bool)> done) {
  const Key key{snap.job, snap.task};
  if (inflight_.contains(key)) {
    if (done) done(false);
    return;
  }
  auto& nn = dfs_.namenode();

  // Append to the existing log, or open a fresh one on the first emit (and
  // after a drop).
  FileId file;
  auto it = records_.find(key);
  if (it != records_.end() && nn.file_exists(it->second.file)) {
    file = it->second.file;
  } else {
    file = nn.create_file("ckpt." + snap.label, dfs::FileKind::kOpportunistic,
                          config_.factor);
  }

  ++stats_.emits_started;
  sim::Profiler::Scope profile(dfs_.simulation().profiler(),
                               sim::Profiler::Key::kCheckpoint);
  const Bytes bytes = std::max<Bytes>(snap.delta_bytes, 1);
  obs::Tracer::SpanId span;
  if (auto* tracer = dfs_.simulation().tracer()) {
    span = tracer->begin(obs::kDfsPid, obs::node_track(writer),
                         obs::Cat::kCheckpoint, "ckpt " + snap.label,
                         dfs_.simulation().now(),
                         {{"bytes", std::to_string(bytes)},
                          {"progress", std::to_string(snap.progress)}});
  }
  // write_file allocates this emit's blocks synchronously; remember them so
  // the record tracks exactly the committed log segments (stray blocks from
  // failed emits are never required for liveness).
  const std::size_t pre_blocks = nn.file(file).blocks.size();
  auto shared = std::make_shared<Snapshot>(std::move(snap));
  const dfs::OpId op = dfs_.write_file(
      file, writer, bytes,
      [this, key, file, bytes, pre_blocks, shared, span,
       done = std::move(done)](bool ok) {
        inflight_.erase(key);
        if (auto* tracer = dfs_.simulation().tracer()) {
          tracer->end(span, dfs_.simulation().now(),
                      {{"outcome", ok ? "ok" : "failed"}});
        }
        if (ok) {
          ReduceCheckpoint& rec = records_[key];
          rec.job = shared->job;
          rec.task = shared->task;
          if (rec.file != file) {
            rec.file = file;
            rec.blocks.clear();
            rec.bytes_logged = 0;
          }
          const auto& meta = dfs_.namenode().file(file);
          for (std::size_t i = pre_blocks; i < meta.blocks.size(); ++i) {
            rec.blocks.push_back(meta.blocks[i]);
          }
          rec.fetched = std::move(shared->fetched);
          rec.compute_total = shared->compute_total;
          rec.compute_done = shared->compute_done;
          rec.progress = shared->progress;
          rec.bytes_logged += bytes;
          rec.updated_at = dfs_.simulation().now();
          ++stats_.emits_committed;
          stats_.bytes_logged += bytes;
          if (auto& sim = dfs_.simulation(); sim.event_log() != nullptr) {
            obs::emit(sim, obs::Level::kDebug, "checkpoint", "emit committed",
                      {{"job", std::to_string(shared->job.value())},
                       {"task", std::to_string(shared->task.value())},
                       {"bytes", std::to_string(bytes)},
                       {"progress", std::to_string(shared->progress)}});
          }
        } else {
          ++stats_.emits_failed;
          // A fresh file whose first emit never landed holds nothing worth
          // keeping.
          auto rit = records_.find(key);
          const bool referenced = rit != records_.end() && rit->second.file == file;
          if (!referenced && dfs_.namenode().file_exists(file)) {
            dfs_.namenode().remove_file(file);
          }
        }
        if (done) done(ok);
      });
  inflight_.emplace(key, Inflight{op, writer, file, span});
}

void CheckpointStore::cancel_inflight(std::map<Key, Inflight>::iterator it) {
  dfs_.cancel_op(it->second.op);
  if (auto* tracer = dfs_.simulation().tracer()) {
    tracer->end(it->second.span, dfs_.simulation().now(),
                {{"outcome", "aborted"}});
  }
  auto rec = records_.find(it->first);
  const bool referenced = rec != records_.end() && rec->second.file == it->second.file;
  if (!referenced && dfs_.namenode().file_exists(it->second.file)) {
    dfs_.namenode().remove_file(it->second.file);
  }
  inflight_.erase(it);
  ++stats_.emits_aborted;
}

bool CheckpointStore::emit_in_flight(JobId job, TaskId task) const {
  return inflight_.contains(Key{job, task});
}

void CheckpointStore::abort_emit_from(JobId job, TaskId task, NodeId writer) {
  auto it = inflight_.find(Key{job, task});
  if (it == inflight_.end() || it->second.writer != writer) return;
  cancel_inflight(it);
}

const ReduceCheckpoint* CheckpointStore::latest(JobId job, TaskId task) const {
  auto it = records_.find(Key{job, task});
  return it == records_.end() ? nullptr : &it->second;
}

const ReduceCheckpoint* CheckpointStore::latest_live(JobId job,
                                                     TaskId task) const {
  const ReduceCheckpoint* rec = latest(job, task);
  if (rec == nullptr || rec->blocks.empty()) return nullptr;
  const auto& nn = dfs_.namenode();
  if (!nn.file_exists(rec->file)) return nullptr;
  // Delta-encoded log: restore needs every committed segment.
  for (BlockId b : rec->blocks) {
    if (!nn.block_exists(b) || !nn.block_readable(b)) return nullptr;
  }
  return rec;
}

bool CheckpointStore::is_dead(JobId job, TaskId task) const {
  const ReduceCheckpoint* rec = latest(job, task);
  if (rec == nullptr) return false;
  const auto& nn = dfs_.namenode();
  if (!nn.file_exists(rec->file)) return true;
  for (BlockId b : rec->blocks) {
    if (!nn.block_exists(b)) return true;
    if (nn.block_readable(b)) continue;
    // Hibernated holders may return with data intact; a segment whose every
    // holder is *expired* is gone for good.
    bool any_holder = false;
    for (NodeId n : nn.block(b).replicas) {
      if (nn.state_of(n) != dfs::DataNodeState::kDead) {
        any_holder = true;
        break;
      }
    }
    if (!any_holder) return true;
  }
  return false;
}

void CheckpointStore::drop(JobId job, TaskId task, bool dead) {
  const Key key{job, task};
  auto in = inflight_.find(key);
  if (in != inflight_.end()) cancel_inflight(in);
  auto it = records_.find(key);
  if (it == records_.end()) return;
  if (dfs_.namenode().file_exists(it->second.file)) {
    dfs_.namenode().remove_file(it->second.file);
  }
  records_.erase(it);
  ++stats_.dropped;
  if (dead) ++stats_.dropped_dead;
}

void CheckpointStore::drop_job(JobId job) {
  // Include tasks whose *first* emit is still in flight (no record yet):
  // left alone, such a write would commit after the job finished and leak
  // its checkpoint file for the rest of the run.
  std::vector<TaskId> tasks;
  for (const auto& [key, rec] : records_) {
    if (key.first == job) tasks.push_back(key.second);
  }
  for (const auto& [key, in] : inflight_) {
    if (key.first == job) tasks.push_back(key.second);
  }
  for (TaskId t : tasks) drop(job, t);
}

}  // namespace moon::checkpoint
