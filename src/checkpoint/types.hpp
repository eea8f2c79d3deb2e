// Reduce-task checkpointing vocabulary (see DESIGN.md § checkpointing).
//
// MOON pins reduce tasks on dedicated nodes because a killed reduce attempt
// loses everything, including a completed shuffle (§V-C). The checkpoint
// subsystem removes that cliff: running reduce attempts periodically persist
// their shuffle completion state and post-shuffle compute progress into the
// DFS as opportunistic files, and a rescheduled attempt resumes from the
// latest live checkpoint instead of starting cold.
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "dfs/types.hpp"

namespace moon::checkpoint {

/// Tunables; lives inside mapred::SchedulerConfig as `checkpoint`.
struct CheckpointConfig {
  bool enabled = false;

  /// TaskTracker scan cadence: how often hosted reduce attempts are offered
  /// a checkpoint.
  sim::Duration scan_interval = 60 * sim::kSecond;

  /// Progress score that must accrue since the last committed checkpoint
  /// before a new one is written (bounds checkpoint I/O).
  double min_progress_delta = 0.05;

  /// Replication factor of checkpoint files. They are always written as
  /// dfs::FileKind::kOpportunistic — checkpoints are transient by nature —
  /// but a {1,v} factor buys a dedicated copy that survives volatile churn.
  dfs::ReplicationFactor factor{1, 1};

  /// Fixed serialization overhead charged per emit on top of the payload.
  Bytes state_overhead = 4 * kKiB;

  /// Whether speculative (backup) reduce attempts may also bootstrap from a
  /// checkpoint. On by default: the checkpoint lives in the DFS, so any
  /// node can read it.
  bool resume_speculative = true;

  /// Tasks whose live attempt resumed from a checkpoint and whose progress
  /// is at or above this score are exempt from backup copies (frozen-task
  /// rescue still applies). Stops speculation from duplicating work the
  /// checkpoint just salvaged.
  double speculation_shield = 0.7;
};

/// The latest durable snapshot of one reduce task. The DFS file is an
/// append-only log: every emit appends the *delta* since the previous
/// committed checkpoint (newly fetched partitions + compute state), so a
/// restore needs every logged segment — `blocks` tracks exactly the blocks
/// committed by successful emits, and all of them must be readable for the
/// checkpoint to count as live.
struct ReduceCheckpoint {
  JobId job;
  TaskId task;
  FileId file;
  std::vector<BlockId> blocks;  ///< committed log segments, oldest first

  std::vector<TaskId> fetched;  ///< map tasks whose partitions are salvaged
  sim::Duration compute_total = 0;  ///< checkpointing attempt's jittered total
  sim::Duration compute_done = 0;   ///< post-shuffle compute work accrued
  double progress = 0.0;            ///< progress score at snapshot time
  Bytes bytes_logged = 0;           ///< cumulative log size
  sim::Time updated_at = 0;
};

}  // namespace moon::checkpoint
