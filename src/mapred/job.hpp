// A MapReduce job: tasks, attempts, intermediate/output files, metrics.
//
// The Job owns every Task and TaskAttempt and is the single place where
// attempt state transitions are book-kept (slots released, metrics counted,
// redundant copies killed, tasks reverted). The JobTracker drives
// scheduling; TaskAttempts call back into the Job as they progress.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "mapred/task.hpp"
#include "mapred/types.hpp"
#include "obs/trace.hpp"

namespace moon::mapred {

class JobTracker;
class TaskTracker;

class Job {
 public:
  Job(JobTracker& jobtracker, JobId id, JobSpec spec);

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  [[nodiscard]] JobId id() const { return id_; }
  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  [[nodiscard]] JobMetrics& metrics() { return metrics_; }
  [[nodiscard]] const JobMetrics& metrics() const { return metrics_; }

  // ---- tasks -------------------------------------------------------------
  [[nodiscard]] Task& task(TaskId id);
  [[nodiscard]] const Task& task(TaskId id) const;
  [[nodiscard]] const std::vector<TaskId>& tasks_of(TaskType type) const;
  [[nodiscard]] TaskAttempt* attempt(AttemptId id);

  [[nodiscard]] int remaining_tasks() const;  ///< not yet completed (both types)
  [[nodiscard]] int completed_tasks(TaskType type) const;
  [[nodiscard]] bool all_maps_done() const;
  [[nodiscard]] bool all_reduces_done() const;

  /// Max progress across a task's attempts (1.0 once completed).
  [[nodiscard]] double task_progress(TaskId id) const;
  /// Average progress over all *started or completed* tasks of a type
  /// (Hadoop's straggler baseline).
  [[nodiscard]] double average_progress(TaskType type) const;

  [[nodiscard]] int non_terminal_attempts(TaskId id) const;  ///< running+inactive
  [[nodiscard]] int active_attempts(TaskId id) const;        ///< running only
  [[nodiscard]] bool has_attempt_on(TaskId id, NodeId node) const;
  [[nodiscard]] bool has_active_dedicated_attempt(TaskId id) const;
  /// First-launch time of the oldest non-terminal attempt; nullopt if none.
  [[nodiscard]] std::optional<sim::Time> oldest_attempt_start(TaskId id) const;

  /// Count of non-terminal speculative attempts across the job.
  [[nodiscard]] int running_speculative() const;

  /// Count of non-terminal attempts across the job — the job's current slot
  /// footprint, which the fair-share multi-job policy ranks against
  /// remaining_tasks(). O(1): maintained on launch/finalize.
  [[nodiscard]] int live_attempts() const { return live_attempt_count_; }

  /// True when `id`'s live attempt resumed from a checkpoint with enough
  /// salvaged progress that backup copies would only duplicate work the
  /// checkpoint already saved (SpeculationPolicy consults this).
  [[nodiscard]] bool checkpoint_shielded(TaskId id) const;

  // ---- scheduling indices (hot path) --------------------------------------
  /// The non-running task the Hadoop ranking — failed tasks first, then map
  /// input locality on `tracker`, then original schedule order — selects;
  /// nullopt when nothing is pending. kIndexed answers from the pending /
  /// locality buckets in O(log n); kScan replays the original full scan.
  [[nodiscard]] std::optional<TaskId> pick_pending(TaskType type,
                                                   TaskTracker& tracker) const;

  /// Invokes `fn(TaskId)` on every TaskState::kRunning task of `type` in
  /// schedule order; `fn` returns false to stop early. Index-backed under
  /// kIndexed, a filtered scan under kScan — identical visit sequences.
  template <typename Fn>
  void for_each_running(TaskType type, Fn&& fn) const {
    if (use_index_) {
      for (const TaskId id : running_[type_index(type)]) {
        if (!fn(id)) return;
      }
    } else {
      for (TaskId id : tasks_of(type)) {
        if (task(id).state != TaskState::kRunning) continue;
        if (!fn(id)) return;
      }
    }
  }

  /// NameNode replica add/remove, routed here by the JobTracker's
  /// subscription: keeps the per-node locality buckets of pending maps fresh.
  void on_replica_event(BlockId block, NodeId node, bool added);

  /// TaskAttempt state-transition hook (maintains the running-speculative
  /// counter the speculation caps read).
  void note_attempt_state(TaskAttempt& attempt, AttemptState prev,
                          AttemptState next);

  /// True when this job runs the kIndexed hot path (latched at submit).
  [[nodiscard]] bool indexed() const { return use_index_; }

  /// Order-of-magnitude estimate of this Job's heap footprint (task table,
  /// attempt objects, scheduling indices) — the quantity retired-job GC
  /// bounds. O(1): fixed weights per job, task and attempt record, never a
  /// walk and never a `sizeof`, so the figure (and every fingerprint that
  /// reads it) does not move when a struct's layout or the standard
  /// library changes. The contract is proportionality, not bytes.
  [[nodiscard]] std::size_t approx_retained_bytes() const;

  /// Monotonic stamp of the job's discrete scheduling state: task/attempt
  /// transitions, launches, shuffle-fetch completions, phase changes,
  /// checkpoint restores. Within one (sim time, epoch) pair every
  /// scheduling-relevant quantity — progress scores, candidate sets,
  /// averages — is constant, so heartbeat bursts landing on the same tick
  /// can share one enumeration (the speculators' candidate memos key on
  /// it). Attempts bump it as their discrete state advances.
  [[nodiscard]] std::uint64_t sched_epoch() const { return sched_epoch_; }
  void bump_sched_epoch() { ++sched_epoch_; }

  // Index introspection (tests).
  [[nodiscard]] std::size_t pending_index_size(TaskType type) const {
    return pending_[type_index(type)].size();
  }
  [[nodiscard]] std::size_t locality_bucket_size(NodeId node) const;
  [[nodiscard]] std::size_t running_index_size(TaskType type) const {
    return running_[type_index(type)].size();
  }

  // ---- lifecycle ---------------------------------------------------------
  void submit();
  [[nodiscard]] bool finished() const { return metrics_.completed || metrics_.failed; }

  /// Launches an attempt of `task` on `tracker` (slot must be free).
  TaskAttempt& launch_attempt(TaskId task, TaskTracker& tracker, bool speculative);

  /// Kills one attempt (bookkeeping + slot release + file cleanup).
  void kill_attempt(TaskAttempt& attempt);
  /// Kills every attempt hosted by `tracker` (tracker declared dead).
  void kill_attempts_on(TaskTracker& tracker);

  /// Full tracker-death handling: kill attempts, then re-execute completed
  /// maps that lived there (Hadoop rule; MOON consults the DFS first).
  void handle_tracker_death(TaskTracker& tracker);

  /// Post-recovery orphan reconciliation (DESIGN.md §14): kills non-terminal
  /// attempts whose task is already completed or whose job already finished.
  /// Returns the number killed (0 outside crash-recovery runs).
  int reconcile_after_recovery();

  // Called by TaskAttempt on self transitions.
  void attempt_succeeded(TaskAttempt& attempt);
  void attempt_failed(TaskAttempt& attempt);

  // ---- intermediate / output data -----------------------------------------
  /// Map-output file for a *completed* map task; invalid id otherwise.
  [[nodiscard]] FileId map_output(TaskId map_task) const;

  /// Bytes of one map's output that belong to one reduce partition — the
  /// unit both shuffle fetches and checkpoint payloads are sized in.
  [[nodiscard]] Bytes shuffle_partition_bytes() const;
  FileId create_intermediate_file(TaskId map_task, AttemptId attempt);
  FileId create_output_file(TaskId reduce_task, AttemptId attempt);

  /// A reduce attempt could not fetch `map_task`'s output.
  void report_fetch_failure(TaskId map_task, TaskAttempt& reporter);

  /// Reverts a completed map (its output is gone); re-queues it.
  void revert_map(TaskId map_task);

  /// Called by the JobTracker's completion scan: converts outputs to
  /// reliable once all reduces are done, then completes the job when every
  /// output block meets its replication factor.
  void try_commit();

  void fail_job(JobFailureReason reason = JobFailureReason::kTaskFailures);

  /// Writes a human-readable snapshot of every incomplete task (state,
  /// attempts, phases, shuffle progress) — debugging aid for stuck jobs.
  void debug_dump(std::ostream& os) const;

  [[nodiscard]] JobTracker& jobtracker() { return jobtracker_; }

 private:
  /// (priority class, task): class 0 = recently failed, 1 = fresh. TaskIds
  /// ascend in creation order, Hadoop's original scheduling order, so
  /// begin() of an ordered bucket is the scan winner within that bucket.
  using PendingKey = std::pair<int, TaskId>;

  void build_tasks();
  /// Containment: aborts the job (kTooManyAttempts) when an uncompleted
  /// task's total attempt count reaches max_attempt_failures — kills never
  /// bump t.failures, so under injected churn a task could otherwise burn
  /// attempts forever.
  void check_attempt_cap(Task& t);
  void update_task_state(Task& t);
  void set_task_state(Task& t, TaskState next);
  void pending_insert(Task& t);
  void pending_remove(Task& t);
  void finalize_attempt(TaskAttempt& attempt);
  void notify_reduces_of_map(TaskId map_task);
  [[nodiscard]] std::optional<TaskId> pick_pending_scan(
      TaskType type, TaskTracker& tracker) const;
  [[nodiscard]] std::optional<TaskId> pick_pending_indexed(
      TaskType type, TaskTracker& tracker) const;
  [[nodiscard]] static int type_index(TaskType type) {
    return type == TaskType::kMap ? 0 : 1;
  }
  [[nodiscard]] static PendingKey pending_key(const Task& t) {
    return {t.failures > 0 ? 0 : 1, t.id};
  }

  JobTracker& jobtracker_;
  JobId id_;
  JobSpec spec_;
  JobMetrics metrics_;
  obs::Tracer::SpanId span_;  ///< submit→finish span on the job-wide track
  const bool use_index_;  ///< SchedulerConfig::index_mode, latched at birth

  /// Indexed by the job-local TaskId: maps take ids 0..num_maps-1, then the
  /// reduces; never erased. Walks run in id order.
  std::vector<Task> tasks_;
  std::vector<TaskId> map_tasks_;
  std::vector<TaskId> reduce_tasks_;
  /// Indexed by the job-local AttemptId (dense from 0 in launch order);
  /// never erased, so teardown walks run in AttemptId order.
  std::vector<std::unique_ptr<TaskAttempt>> attempts_;

  // ---- scheduling indices, maintained on every task/attempt transition ----
  std::set<PendingKey> pending_[2];     ///< pending tasks, per type
  std::set<TaskId> running_[2];         ///< running tasks, per type
  /// Pending *map* tasks with an input replica on the node — the locality
  /// join, fed by NameNode replica events + pending transitions.
  std::unordered_map<NodeId, std::set<PendingKey>> pending_local_;
  /// Input block -> pending map task (locality-event routing).
  std::unordered_map<BlockId, TaskId> block_to_pending_map_;
  int completed_count_[2] = {0, 0};     ///< per-type completed tasks
  int ever_started_[2] = {0, 0};        ///< tasks that ever launched an attempt
  int running_speculative_count_ = 0;   ///< attempts running && speculative
  int live_attempt_count_ = 0;          ///< non-terminal attempts, all tasks
  std::uint64_t sched_epoch_ = 0;       ///< discrete-state stamp (see getter)

  /// Memo for average_progress under kIndexed: constant within one
  /// (time, epoch) pair, so a same-tick heartbeat burst pays once.
  struct AverageCache {
    bool valid = false;
    sim::Time time = 0;
    std::uint64_t epoch = 0;
    double value = 0.0;
  };
  mutable AverageCache average_cache_[2];

  /// Distinct reduce tasks reporting fetch failure per map (Hadoop rule
  /// counts reduces, not individual retries).
  std::unordered_map<TaskId, std::unordered_set<TaskId>> fetch_failures_;

  bool outputs_converted_ = false;
};

}  // namespace moon::mapred
