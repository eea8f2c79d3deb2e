// Tasks and task attempts.
//
// A `Task` is a unit of the job (map i / reduce j) with scheduling metadata;
// a `TaskAttempt` is one execution instance on a specific tracker, a small
// asynchronous state machine over DFS I/O and a pausable compute WorkUnit:
//
//   map    : READ input block -> COMPUTE -> WRITE intermediate file
//   reduce : SHUFFLE (fetch every map's partition) -> COMPUTE -> WRITE output
//
// Attempts never self-destruct: terminal transitions are driven through the
// Job, which owns them and keeps the metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "checkpoint/types.hpp"
#include "common/ids.hpp"
#include "simkit/retry.hpp"
#include "dfs/dfs.hpp"
#include "mapred/types.hpp"
#include "obs/trace.hpp"
#include "simkit/work_unit.hpp"

namespace moon::mapred {

class Job;
class TaskTracker;
class TaskAttempt;

struct Task {
  TaskId id;
  TaskType type = TaskType::kMap;
  int index = 0;            ///< map index / reduce partition
  TaskState state = TaskState::kPending;
  BlockId input_block;      ///< maps only
  int failures = 0;         ///< failed attempts (footnote-1 accounting)
  std::vector<AttemptId> attempts;  ///< all attempts ever launched

  /// Non-terminal attempts only (maintained by the Job on launch/finalize):
  /// the kIndexed hot path reads per-task aggregates — counts, oldest start,
  /// best progress, placement checks — from this handful of live pointers
  /// instead of walking every attempt ever launched.
  std::vector<TaskAttempt*> live_attempts;

  /// Output of the winning map attempt (maps only; invalid until complete).
  FileId output_file;

  /// Node that hosted the winning attempt (for Hadoop's re-execute-on-
  /// tracker-death rule; maps only).
  NodeId completed_on;
};

class TaskAttempt {
 public:
  enum class Phase { kRead, kCompute, kWrite, kShuffle, kDone };

  TaskAttempt(Job& job, AttemptId id, TaskId task, TaskTracker& tracker,
              bool speculative);
  ~TaskAttempt();

  TaskAttempt(const TaskAttempt&) = delete;
  TaskAttempt& operator=(const TaskAttempt&) = delete;

  void start();

  /// Framework-initiated termination (redundant copy, tracker death, ...).
  void kill();

  [[nodiscard]] AttemptId id() const { return id_; }
  [[nodiscard]] const Job& job() const { return job_; }
  [[nodiscard]] TaskId task() const { return task_; }
  [[nodiscard]] TaskTracker& tracker() { return tracker_; }
  [[nodiscard]] const TaskTracker& tracker() const { return tracker_; }
  [[nodiscard]] AttemptState state() const { return state_; }
  [[nodiscard]] bool terminal() const {
    return state_ == AttemptState::kSucceeded || state_ == AttemptState::kKilled ||
           state_ == AttemptState::kFailed;
  }
  [[nodiscard]] bool speculative() const { return speculative_; }
  [[nodiscard]] bool on_dedicated() const;
  [[nodiscard]] sim::Time started_at() const { return started_at_; }
  [[nodiscard]] Phase phase() const { return phase_; }
  /// File this attempt is writing (intermediate for maps, output for
  /// reduces); invalid before the write phase.
  [[nodiscard]] FileId output_file() const { return my_output_; }
  [[nodiscard]] sim::Time shuffle_done_at() const { return shuffle_done_at_; }

  /// Hadoop progress score in [0,1]:
  ///   map   : 0.05 read + 0.90 x compute + 0.05 write
  ///   reduce: (shuffled_fraction + 2 x compute_progress) / 3
  [[nodiscard]] double progress() const;

  /// Scheduler view (MOON): mark inactive / reactivate on tracker
  /// suspension transitions. Physical progress is governed by node
  /// availability, not by this flag.
  void set_inactive(bool inactive);

  /// Node availability transitions (pauses/resumes the compute unit).
  void on_node_availability(bool up);

  /// Shuffle bookkeeping: a map completed (fresh output available).
  void notify_map_completed(TaskId map_task);

  // ---- checkpointing (reduces only) ---------------------------------------
  /// Offers this attempt a checkpoint (TaskTracker scan / suspension hook).
  /// Policy-gated; `forced` bypasses the min-progress-delta.
  void maybe_checkpoint(bool forced = false);

  /// Arms the restore path: start() will read `ckpt`'s log from the DFS and
  /// bootstrap shuffle/compute state from it before running. Must be called
  /// before start().
  void prime_resume(checkpoint::ReduceCheckpoint ckpt);

  /// True once this attempt successfully restored a checkpoint.
  [[nodiscard]] bool resumed() const { return resumed_; }

  // ---- master crash-recovery (DESIGN.md §14) ------------------------------
  /// True when an outcome (success/failure) or fetch-failure report is
  /// waiting for the JobTracker to come back.
  [[nodiscard]] bool has_parked_report() const {
    return parked_outcome_ != ParkedOutcome::kNone ||
           !parked_fetch_failures_.empty();
  }
  /// Delivers the parked reports through the normal Job paths (recovery
  /// sweep). Fetch failures first, then the terminal outcome.
  void deliver_parked_report();

  /// Maps whose partitions this (reduce) attempt has not yet fetched.
  [[nodiscard]] std::vector<TaskId> unfetched_maps() const;
  [[nodiscard]] std::size_t fetching_count() const { return fetching_.size(); }
  [[nodiscard]] std::size_t retry_wait_count() const;

 private:
  // --- map pipeline ---
  void map_read_input();
  void map_compute_done();

  // --- reduce pipeline ---
  /// Seeds pending_fetch_ with the currently-fetchable maps; call once when
  /// entering Phase::kShuffle (cold start or checkpoint restore).
  void init_shuffle_queue();
  void shuffle_pump();
  /// Launches the partition fetch; false when the output file has no blocks
  /// yet (defensive — the map stays queued for a later pump).
  bool start_fetch(TaskId map_task);
  void fetch_done(TaskId map_task, bool ok);
  void reduce_compute_done();

  // --- checkpoint restore ---
  void restore_read_next();
  void apply_restored_checkpoint();

  void begin_compute(sim::Duration duration);
  /// Creates this attempt's output file and starts the write. When the
  /// NameNode is down the step parks behind the exponential-backoff retrier
  /// (the computed output waits, spilled locally, like a real task's would).
  void start_output_write();
  void write_output(Bytes size, dfs::FileKind kind, dfs::ReplicationFactor factor,
                    const char* label);
  void write_done(bool ok);

  void succeed();
  void fail();
  void cleanup_io();

  /// Phase-transition instant on this attempt's trace track (no-op when
  /// tracing is off).
  void note_phase(const char* name);

  /// All state_ changes flow through here so the Job's incremental counters
  /// (running speculative copies) stay in sync with attempt transitions.
  void transition(AttemptState next);

  Job& job_;
  AttemptId id_;
  TaskId task_;
  TaskTracker& tracker_;
  bool speculative_;
  AttemptState state_ = AttemptState::kRunning;
  Phase phase_ = Phase::kRead;
  sim::Time started_at_ = 0;

  std::optional<dfs::OpId> io_op_;        ///< read or write in flight
  std::unique_ptr<sim::WorkUnit> compute_;
  sim::Duration compute_total_ = 0;
  FileId my_output_;                       ///< file this attempt is writing

  // Checkpoint restore state.
  std::optional<checkpoint::ReduceCheckpoint> resume_;  ///< armed before start
  std::size_t restore_block_ = 0;  ///< next log segment to read back
  sim::Duration resume_compute_total_ = 0;
  sim::Duration resume_compute_done_ = 0;
  bool resumed_ = false;

  // Reduce/shuffle state.
  enum class Fetch : std::uint8_t { kNone, kFetching, kRetryWait, kFetched };
  /// Per map, indexed by its TaskId (maps hold job-local ids 0..maps-1);
  /// empty for map attempts. kRetryWait: failed, waiting for the retry tick.
  std::vector<Fetch> fetch_state_;
  std::size_t fetched_count_ = 0;
  /// In-flight partition fetches (at most shuffle_parallelism) in issue
  /// order, which is OpId order: cleanup cancels them in this order.
  std::vector<std::pair<TaskId, dfs::OpId>> fetching_;
  /// Maps believed fetchable (output committed; state kNone),
  /// in TaskId order — the order the old full scan picked them in. Fed by
  /// shuffle start + map-completion notifications + retry expiry; a map whose
  /// output was revoked (re-execution) lingers until the lazy validity check
  /// at pick time skips it, exactly as the scan's `continue` did. Replaces
  /// the O(maps) rescan per fetch completion (quadratic per attempt).
  std::set<TaskId> pending_fetch_;
  std::vector<EventId> retry_events_;
  sim::Time shuffle_done_at_ = 0;
  obs::Tracer::SpanId span_;  ///< start→terminal span on the job's node track

  // Master crash-recovery state (inert while master_crash is off).
  enum class ParkedOutcome { kNone, kSucceeded, kFailed };
  ParkedOutcome parked_outcome_ = ParkedOutcome::kNone;
  std::vector<TaskId> parked_fetch_failures_;  ///< arrival order
  sim::Retrier master_retry_;  ///< NameNode-down output-write backoff
};

}  // namespace moon::mapred
