#include "mapred/job.hpp"

#include <algorithm>
#include <ostream>
#include <cassert>
#include <stdexcept>

#include "mapred/jobtracker.hpp"
#include "obs/event_log.hpp"
#include "recovery/master_journal.hpp"

namespace moon::mapred {

Job::Job(JobTracker& jobtracker, JobId id, JobSpec spec)
    : jobtracker_(jobtracker),
      id_(id),
      spec_(std::move(spec)),
      use_index_(jobtracker.config().index_mode ==
                 SchedulerConfig::IndexMode::kIndexed) {
  build_tasks();
}

void Job::build_tasks() {
  const auto& input = jobtracker_.dfs().namenode().file(spec_.input_file);
  if (static_cast<int>(input.blocks.size()) < spec_.num_maps) {
    throw std::logic_error("Job: input file has fewer blocks than maps");
  }
  tasks_.resize(static_cast<std::size_t>(spec_.num_maps + spec_.num_reduces));
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    Task& t = tasks_[i];
    t.id = TaskId{i};
    if (i < static_cast<std::size_t>(spec_.num_maps)) {
      t.index = static_cast<int>(i);
      t.input_block = input.blocks[i];
      map_tasks_.push_back(t.id);
    } else {
      t.type = TaskType::kReduce;
      t.index = static_cast<int>(i) - spec_.num_maps;
      reduce_tasks_.push_back(t.id);
    }
    pending_insert(t);
  }
}

// ---- scheduling indices -----------------------------------------------------

void Job::set_task_state(Task& t, TaskState next) {
  const TaskState prev = t.state;
  if (prev == next) return;
  bump_sched_epoch();
  if (auto* journal = jobtracker_.journal()) {
    if (next == TaskState::kCompleted) {
      journal->record_task_completed(id_, t.id);
    } else if (prev == TaskState::kCompleted) {
      journal->record_task_reverted(id_, t.id);
    }
  }
  t.state = next;
  const int ti = type_index(t.type);
  switch (prev) {
    case TaskState::kPending: pending_remove(t); break;
    case TaskState::kRunning: running_[ti].erase(t.id); break;
    case TaskState::kCompleted: --completed_count_[ti]; break;
  }
  switch (next) {
    case TaskState::kPending: pending_insert(t); break;
    case TaskState::kRunning: running_[ti].insert(t.id); break;
    case TaskState::kCompleted: ++completed_count_[ti]; break;
  }
}

void Job::pending_insert(Task& t) {
  const PendingKey key = pending_key(t);
  pending_[type_index(t.type)].insert(key);
  if (t.type != TaskType::kMap) return;
  const auto& nn = jobtracker_.dfs().namenode();
  if (!nn.block_exists(t.input_block)) return;
  block_to_pending_map_[t.input_block] = t.id;
  for (NodeId n : nn.block(t.input_block).replicas) {
    pending_local_[n].insert(key);
  }
}

void Job::pending_remove(Task& t) {
  const PendingKey key = pending_key(t);
  pending_[type_index(t.type)].erase(key);
  if (t.type != TaskType::kMap) return;
  block_to_pending_map_.erase(t.input_block);
  const auto& nn = jobtracker_.dfs().namenode();
  if (!nn.block_exists(t.input_block)) return;
  for (NodeId n : nn.block(t.input_block).replicas) {
    auto it = pending_local_.find(n);
    if (it != pending_local_.end()) it->second.erase(key);
  }
}

void Job::on_replica_event(BlockId block, NodeId node, bool added) {
  auto it = block_to_pending_map_.find(block);
  if (it == block_to_pending_map_.end()) return;  // not a pending map's input
  const PendingKey key = pending_key(task(it->second));
  if (added) {
    pending_local_[node].insert(key);
  } else {
    auto bucket = pending_local_.find(node);
    if (bucket != pending_local_.end()) bucket->second.erase(key);
  }
}

void Job::note_attempt_state(TaskAttempt& attempt, AttemptState prev,
                             AttemptState next) {
  bump_sched_epoch();
  if (!attempt.speculative()) return;
  if (prev == AttemptState::kRunning) --running_speculative_count_;
  if (next == AttemptState::kRunning) ++running_speculative_count_;
}

std::size_t Job::locality_bucket_size(NodeId node) const {
  auto it = pending_local_.find(node);
  return it == pending_local_.end() ? 0 : it->second.size();
}

std::optional<TaskId> Job::pick_pending(TaskType type,
                                        TaskTracker& tracker) const {
  return use_index_ ? pick_pending_indexed(type, tracker)
                    : pick_pending_scan(type, tracker);
}

std::optional<TaskId> Job::pick_pending_scan(TaskType type,
                                             TaskTracker& tracker) const {
  // "The JobTracker first tries to schedule a non-running task, giving high
  // priority to the recently failed tasks"; map input locality preferred.
  const auto& nn = jobtracker_.dfs().namenode();
  TaskId best = TaskId::invalid();
  // Rank: (failures > 0, locality, schedule order = TaskId order); the walk
  // runs in TaskId order, so the first of equal rank wins.
  int best_key_failed = -1;
  int best_key_local = -1;
  for (TaskId id : tasks_of(type)) {
    const Task& t = task(id);
    if (t.state != TaskState::kPending) continue;
    const int failed = t.failures > 0 ? 1 : 0;
    int local = 0;
    if (type == TaskType::kMap && nn.block_exists(t.input_block) &&
        nn.block(t.input_block).has_replica_on(tracker.node_id())) {
      local = 1;
    }
    const bool better =
        !best.valid() || failed > best_key_failed ||
        (failed == best_key_failed && local > best_key_local);
    if (better) {
      best = id;
      best_key_failed = failed;
      best_key_local = local;
    }
  }
  if (!best.valid()) return std::nullopt;
  return best;
}

std::optional<TaskId> Job::pick_pending_indexed(TaskType type,
                                                TaskTracker& tracker) const {
  // Bucket lookups reproduce the scan ranking: the global pending set's
  // begin() is the best (failed-class, order) candidate overall; the
  // tracker's locality bucket begin() is the best local one. A local
  // candidate wins its failed class; a failed non-local outranks a fresh
  // local.
  const auto& pending = pending_[type_index(type)];
  if (pending.empty()) return std::nullopt;
  const PendingKey global_best = *pending.begin();
  if (type == TaskType::kMap) {
    auto it = pending_local_.find(tracker.node_id());
    if (it != pending_local_.end() && !it->second.empty()) {
      const PendingKey local_best = *it->second.begin();
      return local_best.first <= global_best.first ? local_best.second
                                                   : global_best.second;
    }
  }
  return global_best.second;
}

Task& Job::task(TaskId id) {
  return const_cast<Task&>(std::as_const(*this).task(id));
}

const Task& Job::task(TaskId id) const {
  if (id.value() >= tasks_.size()) throw std::out_of_range("Job: unknown task");
  return tasks_[id.value()];
}

const std::vector<TaskId>& Job::tasks_of(TaskType type) const {
  return type == TaskType::kMap ? map_tasks_ : reduce_tasks_;
}

TaskAttempt* Job::attempt(AttemptId id) {
  return id.value() < attempts_.size() ? attempts_[id.value()].get() : nullptr;
}

int Job::remaining_tasks() const {
  if (use_index_) {
    return static_cast<int>(tasks_.size()) - completed_count_[0] -
           completed_count_[1];
  }
  int remaining = 0;
  for (const Task& t : tasks_) {
    if (t.state != TaskState::kCompleted) ++remaining;
  }
  return remaining;
}

int Job::completed_tasks(TaskType type) const {
  if (use_index_) return completed_count_[type_index(type)];
  int done = 0;
  for (TaskId id : tasks_of(type)) {
    if (task(id).state == TaskState::kCompleted) ++done;
  }
  return done;
}

bool Job::all_maps_done() const {
  return completed_tasks(TaskType::kMap) == spec_.num_maps;
}

bool Job::all_reduces_done() const {
  return completed_tasks(TaskType::kReduce) == spec_.num_reduces;
}

double Job::task_progress(TaskId id) const {
  const Task& t = task(id);
  if (t.state == TaskState::kCompleted) return 1.0;
  double best = 0.0;
  if (use_index_) {
    // max() over the same live set the scan filters down to: exact.
    for (const TaskAttempt* a : t.live_attempts) {
      best = std::max(best, a->progress());
    }
    return best;
  }
  for (AttemptId a : t.attempts) {
    const TaskAttempt& attempt = *attempts_[a.value()];
    if (!attempt.terminal()) best = std::max(best, attempt.progress());
  }
  return best;
}

double Job::average_progress(TaskType type) const {
  // Canonical form shared by both modes so the doubles match bit for bit:
  // completed tasks contribute an exact integer, running-task fractions are
  // summed in schedule order, started-but-frozen pending tasks contribute
  // 0.0 (they only widen the denominator).
  int completed = 0;
  int counted = 0;
  double fractions = 0.0;
  if (use_index_) {
    const int ti = type_index(type);
    AverageCache& cache = average_cache_[ti];
    const sim::Time now = jobtracker_.simulation().now();
    if (cache.valid && cache.time == now && cache.epoch == sched_epoch_) {
      return cache.value;
    }
    completed = completed_count_[ti];
    counted = ever_started_[ti];
    for (const TaskId id : running_[ti]) fractions += task_progress(id);
    const double value =
        counted == 0 ? 0.0
                     : (static_cast<double>(completed) + fractions) / counted;
    cache = AverageCache{true, now, sched_epoch_, value};
    return value;
  }
  {
    for (TaskId id : tasks_of(type)) {
      const Task& t = task(id);
      if (t.state == TaskState::kPending && t.attempts.empty()) continue;
      ++counted;
      if (t.state == TaskState::kCompleted) {
        ++completed;
      } else if (t.state == TaskState::kRunning) {
        fractions += task_progress(id);
      }
    }
  }
  if (counted == 0) return 0.0;
  return (static_cast<double>(completed) + fractions) / counted;
}

int Job::non_terminal_attempts(TaskId id) const {
  const Task& t = task(id);
  if (use_index_) return static_cast<int>(t.live_attempts.size());
  int n = 0;
  for (AttemptId a : t.attempts) {
    if (!attempts_[a.value()]->terminal()) ++n;
  }
  return n;
}

int Job::active_attempts(TaskId id) const {
  const Task& t = task(id);
  int n = 0;
  if (use_index_) {
    for (const TaskAttempt* a : t.live_attempts) {
      if (a->state() == AttemptState::kRunning) ++n;
    }
    return n;
  }
  for (AttemptId a : t.attempts) {
    if (attempts_[a.value()]->state() == AttemptState::kRunning) ++n;
  }
  return n;
}

bool Job::has_attempt_on(TaskId id, NodeId node) const {
  const Task& t = task(id);
  if (use_index_) {
    for (const TaskAttempt* a : t.live_attempts) {
      if (a->tracker().node_id() == node) return true;
    }
    return false;
  }
  for (AttemptId a : t.attempts) {
    const TaskAttempt& attempt = *attempts_[a.value()];
    if (!attempt.terminal() && attempt.tracker().node_id() == node) return true;
  }
  return false;
}

bool Job::has_active_dedicated_attempt(TaskId id) const {
  const Task& t = task(id);
  if (use_index_) {
    for (const TaskAttempt* a : t.live_attempts) {
      if (a->state() == AttemptState::kRunning && a->on_dedicated()) return true;
    }
    return false;
  }
  for (AttemptId a : t.attempts) {
    const TaskAttempt& attempt = *attempts_[a.value()];
    if (attempt.state() == AttemptState::kRunning && attempt.on_dedicated()) {
      return true;
    }
  }
  return false;
}

std::optional<sim::Time> Job::oldest_attempt_start(TaskId id) const {
  const Task& t = task(id);
  std::optional<sim::Time> oldest;
  if (use_index_) {
    for (const TaskAttempt* a : t.live_attempts) {
      const sim::Time s = a->started_at();
      if (!oldest || s < *oldest) oldest = s;
    }
    return oldest;
  }
  for (AttemptId a : t.attempts) {
    const TaskAttempt& attempt = *attempts_[a.value()];
    if (attempt.terminal()) continue;
    const sim::Time s = attempt.started_at();
    if (!oldest || s < *oldest) oldest = s;
  }
  return oldest;
}

int Job::running_speculative() const {
  // Counts copies that are actually consuming a live slot: speculative
  // attempts marooned on suspended trackers don't hold back the cap, or a
  // burst of suspensions would starve frozen-task rescue precisely when it
  // is needed.
  if (use_index_) return running_speculative_count_;
  int n = 0;
  for (const auto& attempt : attempts_) {
    if (attempt->state() == AttemptState::kRunning && attempt->speculative()) ++n;
  }
  return n;
}

bool Job::checkpoint_shielded(TaskId id) const {
  const auto& policy = jobtracker_.checkpoint_policy();
  if (!policy.config().enabled) return false;
  const Task& t = task(id);
  if (use_index_) {
    for (const TaskAttempt* a : t.live_attempts) {
      if (a->state() == AttemptState::kRunning && a->resumed() &&
          policy.shields_speculation(a->progress())) {
        return true;
      }
    }
    return false;
  }
  for (AttemptId a : t.attempts) {
    const TaskAttempt& attempt = *attempts_[a.value()];
    if (attempt.state() == AttemptState::kRunning && attempt.resumed() &&
        policy.shields_speculation(attempt.progress())) {
      return true;
    }
  }
  return false;
}

// ---- lifecycle -------------------------------------------------------------

void Job::submit() {
  auto& sim = jobtracker_.simulation();
  metrics_.submitted_at = sim.now();
  if (spec_.deadline > 0) {
    metrics_.deadline_at = sim.now() + spec_.deadline;
  }
  if (auto* tracer = sim.tracer()) {
    const std::uint32_t pid = obs::job_pid(id_);
    tracer->name_process(pid, "job" + std::to_string(id_.value()) + " " +
                                  spec_.name);
    tracer->name_track(pid, 0, "job");
    span_ = tracer->begin(pid, 0, obs::Cat::kJob, spec_.name, sim.now(),
                          {{"maps", std::to_string(spec_.num_maps)},
                           {"reduces", std::to_string(spec_.num_reduces)}});
  }
  if (sim.event_log() != nullptr) {
    obs::emit(sim, obs::Level::kInfo, "job", "submitted",
              {{"job", std::to_string(id_.value())},
               {"name", spec_.name},
               {"maps", std::to_string(spec_.num_maps)},
               {"reduces", std::to_string(spec_.num_reduces)}});
  }
}

TaskAttempt& Job::launch_attempt(TaskId task_id, TaskTracker& tracker,
                                 bool speculative) {
  Task& t = task(task_id);
  const AttemptId id{attempts_.size()};
  auto attempt = std::make_unique<TaskAttempt>(*this, id, task_id, tracker,
                                               speculative);
  TaskAttempt* raw = attempt.get();
  bump_sched_epoch();
  if (t.attempts.empty()) ++ever_started_[type_index(t.type)];
  if (speculative) ++running_speculative_count_;  // born AttemptState::kRunning
  if (metrics_.first_launch_at < 0) {
    metrics_.first_launch_at = jobtracker_.simulation().now();
  }
  ++live_attempt_count_;
  metrics_.peak_running_attempts =
      std::max(metrics_.peak_running_attempts, live_attempt_count_);
  if (t.type == TaskType::kReduce &&
      jobtracker_.config().checkpoint.enabled) {
    // Resume from the latest live checkpoint (a prior attempt's salvaged
    // shuffle/compute state) instead of starting cold. Mirrors the
    // dfs_aware_recovery map path: the lookup trusts only checkpoints whose
    // every log segment still has a readable replica, and drops ones whose
    // segments are gone for good.
    auto& store = jobtracker_.checkpoint_store();
    const auto* ckpt = store.latest_live(id_, task_id);
    if (ckpt != nullptr &&
        jobtracker_.checkpoint_policy().should_resume(*ckpt, speculative)) {
      raw->prime_resume(*ckpt);
    } else if (ckpt == nullptr && store.is_dead(id_, task_id)) {
      store.drop(id_, task_id, /*dead=*/true);
    }
  }
  attempts_.push_back(std::move(attempt));
  t.attempts.push_back(id);
  t.live_attempts.push_back(raw);
  tracker.occupy(t.type, raw);
  if (t.type == TaskType::kMap) {
    ++metrics_.launched_map_attempts;
  } else {
    ++metrics_.launched_reduce_attempts;
  }
  if (speculative) ++metrics_.speculative_attempts;
  update_task_state(t);
  raw->start();
  return *raw;
}

void Job::kill_attempt(TaskAttempt& attempt) {
  if (attempt.terminal()) return;
  attempt.kill();
  Task& t = task(attempt.task());
  if (t.type == TaskType::kMap) {
    ++metrics_.killed_map_attempts;
  } else {
    ++metrics_.killed_reduce_attempts;
  }
  finalize_attempt(attempt);
  // Abandon the attempt's partial output unless it is the winning copy.
  const FileId file = attempt.output_file();
  if (file.valid() && file != t.output_file) {
    jobtracker_.dfs().namenode().remove_file(file);
  }
  update_task_state(t);
  check_attempt_cap(t);
}

void Job::kill_attempts_on(TaskTracker& tracker) {
  // The tracker hosts every job's attempts; each job kills only its own.
  for (TaskAttempt* attempt : tracker.all_attempts()) {
    if (&attempt->job() == this) kill_attempt(*attempt);
  }
}

void Job::attempt_succeeded(TaskAttempt& attempt) {
  Task& t = task(attempt.task());
  finalize_attempt(attempt);

  if (t.state == TaskState::kCompleted) {
    // A redundant copy finished after the task was already done; drop its
    // output.
    const FileId file = attempt.output_file();
    if (file.valid() && file != t.output_file) {
      jobtracker_.dfs().namenode().remove_file(file);
    }
    return;
  }

  set_task_state(t, TaskState::kCompleted);
  t.output_file = attempt.output_file();
  t.completed_on = attempt.tracker().node_id();
  fetch_failures_.erase(t.id);

  const double elapsed =
      sim::to_seconds(jobtracker_.simulation().now() - attempt.started_at());
  if (t.type == TaskType::kMap) {
    metrics_.map_time_s.add(elapsed);
  } else {
    metrics_.reduce_time_s.add(
        sim::to_seconds(jobtracker_.simulation().now() - attempt.shuffle_done_at()));
  }

  // Kill the losers.
  for (AttemptId a : t.attempts) kill_attempt(*attempts_[a.value()]);

  if (t.type == TaskType::kMap) {
    notify_reduces_of_map(t.id);
  } else {
    // The reduce is done; its checkpoint log is dead weight in the DFS.
    jobtracker_.checkpoint_store().drop(id_, t.id);
  }
}

void Job::attempt_failed(TaskAttempt& attempt) {
  Task& t = task(attempt.task());
  finalize_attempt(attempt);
  if (t.type == TaskType::kMap) {
    ++metrics_.failed_map_attempts;
  } else {
    ++metrics_.failed_reduce_attempts;
  }
  const FileId file = attempt.output_file();
  if (file.valid() && file != t.output_file) {
    jobtracker_.dfs().namenode().remove_file(file);
  }
  jobtracker_.note_attempt_failure(attempt.tracker());
  ++t.failures;
  if (t.failures > jobtracker_.config().max_task_failures) {
    fail_job(JobFailureReason::kTaskFailures);
    return;
  }
  update_task_state(t);
  check_attempt_cap(t);
}

void Job::check_attempt_cap(Task& t) {
  if (finished() || t.state == TaskState::kCompleted) return;
  const int cap = jobtracker_.config().max_attempt_failures;
  if (cap <= 0 || static_cast<int>(t.attempts.size()) < cap) return;
  if (auto& sim = jobtracker_.simulation(); sim.event_log() != nullptr) {
    obs::emit(sim, obs::Level::kWarn, "job", "task attempt cap reached",
              {{"job", std::to_string(id_.value())},
               {"task", std::to_string(t.id.value())},
               {"attempts", std::to_string(t.attempts.size())}});
  }
  fail_job(JobFailureReason::kTooManyAttempts);
}

void Job::finalize_attempt(TaskAttempt& attempt) {
  Task& t = task(attempt.task());
  bump_sched_epoch();
  --live_attempt_count_;
  auto& live = t.live_attempts;
  auto it = std::find(live.begin(), live.end(), &attempt);
  if (it != live.end()) {
    *it = live.back();
    live.pop_back();
  }
  attempt.tracker().release(t.type, &attempt);
  // A killed/failed reduce must not leave its own (possibly stalled-on-a-
  // dead-node) checkpoint emit in flight: it would block the relocated
  // attempt's emits until the write resolves — potentially never.
  if (t.type == TaskType::kReduce && attempt.state() != AttemptState::kSucceeded &&
      jobtracker_.config().checkpoint.enabled) {
    jobtracker_.checkpoint_store().abort_emit_from(
        id_, t.id, attempt.tracker().node_id());
  }
}

void Job::update_task_state(Task& t) {
  if (t.state == TaskState::kCompleted) return;
  set_task_state(t, non_terminal_attempts(t.id) > 0 ? TaskState::kRunning
                                                    : TaskState::kPending);
}

// ---- intermediate / output data ---------------------------------------------

FileId Job::map_output(TaskId map_task) const {
  const Task& t = task(map_task);
  if (t.state != TaskState::kCompleted) return FileId::invalid();
  return t.output_file;
}

Bytes Job::shuffle_partition_bytes() const {
  return std::max<Bytes>(
      1, spec_.intermediate_per_map / std::max(1, spec_.num_reduces));
}

FileId Job::create_intermediate_file(TaskId map_task, AttemptId attempt) {
  const std::string name = spec_.name + ".m" +
                           std::to_string(task(map_task).index) + ".a" +
                           std::to_string(attempt.value());
  return jobtracker_.dfs().namenode().create_file(name, spec_.intermediate_kind,
                                                  spec_.intermediate_factor);
}

FileId Job::create_output_file(TaskId reduce_task, AttemptId attempt) {
  const std::string name = spec_.name + ".r" +
                           std::to_string(task(reduce_task).index) + ".a" +
                           std::to_string(attempt.value());
  // §IV-A: output starts life as an opportunistic file.
  return jobtracker_.dfs().namenode().create_file(
      name, dfs::FileKind::kOpportunistic, spec_.output_factor);
}

void Job::report_fetch_failure(TaskId map_task, TaskAttempt& reporter) {
  ++metrics_.fetch_failures;
  const Task& mt = task(map_task);
  if (mt.state != TaskState::kCompleted) return;  // already being re-run

  auto& reporters = fetch_failures_[map_task];
  reporters.insert(reporter.task());

  const auto& cfg = jobtracker_.config();
  bool reexecute = false;

  if (cfg.fetch_failure_query_threshold > 0 &&
      static_cast<int>(reporters.size()) >= cfg.fetch_failure_query_threshold) {
    // Augmented rule: consult the DFS; if no live replica of the output
    // remains, reissue the map immediately (§VI-B).
    auto& nn = jobtracker_.dfs().namenode();
    bool any_live = false;
    if (mt.output_file.valid() && nn.file_exists(mt.output_file)) {
      for (BlockId b : nn.file(mt.output_file).blocks) {
        if (nn.block_readable(b)) {
          any_live = true;
          break;
        }
      }
    }
    if (!any_live) reexecute = true;
  }

  // Classic Hadoop rule: > fraction of running reduces reporting.
  int running_reduces = 0;
  for (TaskId r : reduce_tasks_) {
    if (task(r).state == TaskState::kRunning) ++running_reduces;
  }
  if (running_reduces > 0 &&
      static_cast<double>(reporters.size()) >
          cfg.fetch_failure_fraction * running_reduces) {
    reexecute = true;
  }

  if (reexecute) revert_map(map_task);
}

void Job::revert_map(TaskId map_task) {
  Task& t = task(map_task);
  if (t.state != TaskState::kCompleted) return;
  ++metrics_.map_reexecutions;
  if (auto* tracer = jobtracker_.simulation().tracer()) {
    tracer->instant(obs::job_pid(id_), 0, obs::Cat::kSched, "map-revert",
                    jobtracker_.simulation().now(),
                    {{"map", std::to_string(t.index)}});
  }
  if (auto& sim = jobtracker_.simulation(); sim.event_log() != nullptr) {
    obs::emit(sim, obs::Level::kWarn, "job", "map output lost, re-executing",
              {{"job", std::to_string(id_.value())},
               {"map", std::to_string(t.index)}});
  }
  fetch_failures_.erase(map_task);
  if (t.output_file.valid()) {
    jobtracker_.dfs().namenode().remove_file(t.output_file);
    t.output_file = FileId::invalid();
  }
  t.completed_on = NodeId::invalid();
  ++t.failures;  // "recently failed" priority boost for rescheduling
  set_task_state(t, TaskState::kPending);
}

void Job::handle_tracker_death(TaskTracker& tracker) {
  kill_attempts_on(tracker);
  // The kills may have tripped the attempt cap and aborted the job.
  if (finished()) return;
  if (all_reduces_done()) return;
  // Hadoop semantics: completed maps that ran on a dead tracker are
  // re-executed — their output is presumed local to the lost node. MOON
  // instead asks the DFS whether live replicas of the output remain and
  // re-runs only when they do not.
  const bool dfs_aware = jobtracker_.config().dfs_aware_recovery;
  auto& nn = jobtracker_.dfs().namenode();
  for (TaskId id : map_tasks_) {
    Task& t = task(id);
    if (t.state != TaskState::kCompleted) continue;
    if (t.completed_on != tracker.node_id()) continue;
    if (dfs_aware && t.output_file.valid() && nn.file_exists(t.output_file)) {
      bool any_live = false;
      for (BlockId b : nn.file(t.output_file).blocks) {
        if (nn.block_readable(b)) {
          any_live = true;
          break;
        }
      }
      if (any_live) continue;  // replicas survive; no need to re-run
    }
    revert_map(id);
  }
}

int Job::reconcile_after_recovery() {
  // Orphaned attempts: the recovered state says their work is already done
  // (the task completed via another copy, or the whole job finished). Normal
  // operation kills these on the spot; a crash window can leave them
  // running, so the post-recovery sweep catches up. AttemptId order (§2
  // determinism contract).
  int killed = 0;
  for (const auto& a : attempts_) {
    if (a->terminal()) continue;
    if (finished() || task(a->task()).state == TaskState::kCompleted) {
      kill_attempt(*a);
      ++killed;
    }
  }
  return killed;
}

void Job::notify_reduces_of_map(TaskId map_task) {
  for (TaskId r : reduce_tasks_) {
    for (AttemptId a : task(r).attempts) {
      TaskAttempt& attempt = *attempts_[a.value()];
      if (!attempt.terminal()) attempt.notify_map_completed(map_task);
    }
  }
}

void Job::try_commit() {
  if (finished()) return;
  if (!all_maps_done() || !all_reduces_done()) return;
  auto& nn = jobtracker_.dfs().namenode();
  // Committing converts and completes output files — metadata ops against
  // the NameNode. The completion scan retries once it is back.
  if (!nn.available()) return;
  if (!outputs_converted_) {
    // "Once all [Reduce tasks] are completed [output files] are then
    // converted to reliable files."
    for (TaskId r : reduce_tasks_) {
      const FileId f = task(r).output_file;
      if (f.valid()) nn.convert_to_reliable(f);
    }
    outputs_converted_ = true;
  }
  // "Only after all data blocks of the output file have reached its
  // replication factor, will the job be marked as complete." Reaching the
  // factor latches per file (try_complete_file is sticky): transient replica
  // loss after a file is fully replicated does not un-commit it.
  bool all_complete = true;
  for (TaskId r : reduce_tasks_) {
    const FileId f = task(r).output_file;
    if (!f.valid() || !nn.try_complete_file(f)) all_complete = false;
  }
  if (!all_complete) return;
  metrics_.completed = true;
  metrics_.finished_at = jobtracker_.simulation().now();
  if (auto* journal = jobtracker_.journal()) {
    journal->record_job_finished(id_, /*completed=*/true);
  }
  if (auto* tracer = jobtracker_.simulation().tracer()) {
    tracer->end(span_, metrics_.finished_at, {{"outcome", "completed"}});
    span_ = {};
  }
  if (auto& sim = jobtracker_.simulation(); sim.event_log() != nullptr) {
    obs::emit(sim, obs::Level::kInfo, "job", "completed",
              {{"job", std::to_string(id_.value())}});
  }
  jobtracker_.checkpoint_store().drop_job(id_);
  jobtracker_.notify_job_finished(*this);
}

void Job::fail_job(JobFailureReason reason) {
  if (finished()) return;
  metrics_.failed = true;
  metrics_.failure_reason = reason;
  metrics_.finished_at = jobtracker_.simulation().now();
  if (auto* journal = jobtracker_.journal()) {
    journal->record_job_finished(id_, /*completed=*/false);
  }
  if (auto* tracer = jobtracker_.simulation().tracer()) {
    tracer->end(span_, metrics_.finished_at,
                {{"outcome", "failed"}, {"reason", to_string(reason)}});
    span_ = {};
  }
  if (auto& sim = jobtracker_.simulation(); sim.event_log() != nullptr) {
    obs::emit(sim, obs::Level::kWarn, "job", "failed",
              {{"job", std::to_string(id_.value())},
               {"reason", to_string(reason)}});
  }
  // Tear down all live attempts in AttemptId order: finalize_attempt releases
  // tracker slots and bumps scheduling counters (§2 determinism contract).
  for (const auto& attempt : attempts_) {
    if (!attempt->terminal()) {
      attempt->kill();
      finalize_attempt(*attempt);
    }
  }
  jobtracker_.checkpoint_store().drop_job(id_);
  jobtracker_.notify_job_finished(*this);
}

std::size_t Job::approx_retained_bytes() const {
  // The weights are what the struct sizes plus per-record overhead came to
  // on GCC 12.2 x86-64 when they were fixed, so every recorded fingerprint
  // stays valid: the job (1080); per task its struct (104), 96 of index
  // overhead and an 8-byte order entry; per attempt its struct (608) plus
  // 128 of fetch bookkeeping.
  constexpr std::size_t kJob = 1080;
  constexpr std::size_t kTask = 208;
  constexpr std::size_t kAttempt = 736;
  return kJob + spec_.name.size() + tasks_.size() * kTask +
         attempts_.size() * kAttempt;
}

void Job::debug_dump(std::ostream& os) const {
  os << "job " << id_ << " '" << spec_.name << "' maps "
     << completed_tasks(TaskType::kMap) << '/' << spec_.num_maps << " reduces "
     << completed_tasks(TaskType::kReduce) << '/' << spec_.num_reduces << '\n';
  for (const Task& t : tasks_) {
    if (t.state == TaskState::kCompleted) continue;
    os << "  " << to_string(t.type) << '[' << t.index << "] "
       << to_string(t.state) << " failures=" << t.failures << '\n';
    for (AttemptId a : t.attempts) {
      const TaskAttempt& att = *attempts_[a.value()];
      if (att.terminal()) continue;
      os << "    attempt " << a << " on node " << att.tracker().node_id()
         << (att.tracker().host_available() ? " (up)" : " (down)") << " state="
         << to_string(att.state()) << " phase=" << static_cast<int>(att.phase())
         << " progress=" << att.progress()
         << (att.speculative() ? " speculative" : "");
      if (t.type == TaskType::kReduce &&
          att.phase() == TaskAttempt::Phase::kShuffle) {
        os << " fetching=" << att.fetching_count()
           << " retrywait=" << att.retry_wait_count();
        auto missing = att.unfetched_maps();
        os << " missing=[";
        for (std::size_t i = 0; i < missing.size() && i < 3; ++i) {
          const Task& mt = task(missing[i]);
          os << "map" << mt.index << ":" << to_string(mt.state) << ":file="
             << mt.output_file;
          auto& nn = jobtracker_.dfs().namenode();
          if (mt.output_file.valid() && nn.file_exists(mt.output_file)) {
            for (BlockId b : nn.file(mt.output_file).blocks) {
              const auto live = nn.live_replicas(b);
              os << "(d" << live.dedicated << ",v" << live.volatile_count
                 << ",h" << live.hibernated << ")";
            }
          } else {
            os << "(nofile)";
          }
          os << ' ';
        }
        os << "]";
      }
      os << '\n';
    }
  }
}

const char* to_string(TaskType type) {
  return type == TaskType::kMap ? "map" : "reduce";
}

const char* to_string(TaskState state) {
  switch (state) {
    case TaskState::kPending: return "pending";
    case TaskState::kRunning: return "running";
    case TaskState::kCompleted: return "completed";
  }
  return "?";
}

const char* to_string(AttemptState state) {
  switch (state) {
    case AttemptState::kRunning: return "running";
    case AttemptState::kInactive: return "inactive";
    case AttemptState::kSucceeded: return "succeeded";
    case AttemptState::kKilled: return "killed";
    case AttemptState::kFailed: return "failed";
  }
  return "?";
}

const char* to_string(JobFailureReason reason) {
  switch (reason) {
    case JobFailureReason::kNone: return "none";
    case JobFailureReason::kTaskFailures: return "task_failures";
    case JobFailureReason::kTooManyAttempts: return "too_many_attempts";
    case JobFailureReason::kShed: return "shed";
  }
  return "?";
}

const char* to_string(AdmissionConfig::Policy policy) {
  switch (policy) {
    case AdmissionConfig::Policy::kRejectNewest: return "reject-newest";
    case AdmissionConfig::Policy::kDeferWithBackoff: return "defer-backoff";
    case AdmissionConfig::Policy::kShedLowestPriority: return "shed-lowest";
  }
  return "?";
}

}  // namespace moon::mapred
