#include "mapred/task.hpp"

#include <algorithm>
#include <cassert>

#include "mapred/job.hpp"
#include "mapred/jobtracker.hpp"
#include "mapred/tasktracker.hpp"
#include "obs/metrics.hpp"

namespace moon::mapred {

namespace {
/// Applies the per-attempt compute jitter: uniform in [1-j, 1+j].
sim::Duration jittered(sim::Duration mean, double jitter, Rng& rng) {
  if (jitter <= 0.0) return mean;
  const double factor = rng.uniform(1.0 - jitter, 1.0 + jitter);
  return static_cast<sim::Duration>(static_cast<double>(mean) * factor);
}
}  // namespace

TaskAttempt::TaskAttempt(Job& job, AttemptId id, TaskId task, TaskTracker& tracker,
                         bool speculative)
    : job_(job),
      id_(id),
      task_(task),
      tracker_(tracker),
      speculative_(speculative),
      master_retry_(job.jobtracker().simulation()) {
  if (job.task(task).type == TaskType::kReduce) {
    fetch_state_.resize(job.tasks_of(TaskType::kMap).size());
  }
}

TaskAttempt::~TaskAttempt() { cleanup_io(); }

bool TaskAttempt::on_dedicated() const { return tracker_.dedicated(); }

void TaskAttempt::start() {
  auto& sim = job_.jobtracker().simulation();
  started_at_ = sim.now();
  const Task& t = job_.task(task_);
  if (auto* tracer = sim.tracer()) {
    obs::Tracer::Args args{{"attempt", std::to_string(id_.value())},
                           {"node", std::to_string(tracker_.node_id().value())}};
    if (speculative_) args.emplace_back("speculative", "1");
    if (resume_) args.emplace_back("resume", "1");
    span_ = tracer->begin(
        obs::job_pid(job_.id()), obs::node_track(tracker_.node_id()),
        obs::Cat::kAttempt,
        (t.type == TaskType::kMap ? "map" : "reduce") + std::to_string(t.index),
        sim.now(), std::move(args));
  }
  if (t.type == TaskType::kMap) {
    phase_ = Phase::kRead;
    note_phase("read");
    map_read_input();
  } else if (resume_) {
    // Bootstrap from the checkpoint log before shuffling: reading the
    // salvaged state back costs real I/O too.
    phase_ = Phase::kRead;
    note_phase("restore");
    restore_block_ = 0;
    restore_read_next();
  } else {
    phase_ = Phase::kShuffle;
    note_phase("shuffle");
    init_shuffle_queue();
    shuffle_pump();
  }
}

// ---- map pipeline ----------------------------------------------------------

void TaskAttempt::map_read_input() {
  const Task& t = job_.task(task_);
  io_op_ = job_.jobtracker().dfs().read_block(
      t.input_block, tracker_.node_id(), [this](bool ok) {
        io_op_.reset();
        if (terminal()) return;
        if (!ok) {
          // Input block unreachable: this attempt fails (footnote 1: the map
          // is rescheduled up to 4 times, then the job is terminated).
          fail();
          return;
        }
        phase_ = Phase::kCompute;
        note_phase("compute");
        begin_compute(jittered(job_.spec().map_compute, job_.spec().compute_jitter,
                               job_.jobtracker().rng()));
      });
}

void TaskAttempt::map_compute_done() {
  job_.bump_sched_epoch();  // discrete progress step (0.95 plateau)
  phase_ = Phase::kWrite;
  note_phase("write");
  start_output_write();
}

// ---- reduce pipeline -------------------------------------------------------

void TaskAttempt::init_shuffle_queue() {
  // One O(maps) pass at shuffle entry; from here on the queue is maintained
  // by map-completion notifications and retry expiries, so each pump costs
  // O(picks) instead of rescanning every map per fetch completion.
  pending_fetch_.clear();
  for (TaskId m : job_.tasks_of(TaskType::kMap)) {
    if (fetch_state_[m.value()] != Fetch::kFetched && job_.map_output(m).valid()) {
      pending_fetch_.insert(m);
    }
  }
}

void TaskAttempt::shuffle_pump() {
  if (terminal() || phase_ != Phase::kShuffle) return;
  const auto& maps = job_.tasks_of(TaskType::kMap);
  if (fetched_count_ == maps.size()) {
    // Shuffle complete.
    shuffle_done_at_ = job_.jobtracker().simulation().now();
    job_.metrics().shuffle_time_s.add(
        sim::to_seconds(shuffle_done_at_ - started_at_));
    phase_ = Phase::kCompute;
    note_phase("compute");
    begin_compute(jittered(job_.spec().reduce_compute, job_.spec().compute_jitter,
                           job_.jobtracker().rng()));
    return;
  }
  // Pick fetchable maps in TaskId order — the same order the historical
  // full scan produced (map TaskIds ascend in creation order).
  const int parallelism = job_.jobtracker().config().shuffle_parallelism;
  for (auto it = pending_fetch_.begin();
       it != pending_fetch_.end() &&
       static_cast<int>(fetching_.size()) < parallelism;) {
    const TaskId m = *it;
    if (!job_.map_output(m).valid()) {
      // Output revoked by a re-execution after it was queued: skip it, like
      // the scan did. It re-queues via notify_map_completed when the re-run
      // commits.
      ++it;
      continue;
    }
    if (!start_fetch(m)) {
      ++it;
      continue;
    }
    it = pending_fetch_.erase(it);
  }
}

bool TaskAttempt::start_fetch(TaskId map_task) {
  auto& dfs = job_.jobtracker().dfs();
  const FileId file = job_.map_output(map_task);
  const auto& meta = dfs.namenode().file(file);
  if (meta.blocks.empty()) return false;
  // The partition is spread across the file's blocks; pick one keyed by the
  // reduce index so concurrent reducers spread their load.
  const Task& me = job_.task(task_);
  const BlockId block =
      meta.blocks[static_cast<std::size_t>(me.index) % meta.blocks.size()];
  const Bytes partition = job_.shuffle_partition_bytes();
  const dfs::OpId op = dfs.read_partial(
      block, tracker_.node_id(), partition,
      [this, map_task](bool ok) { fetch_done(map_task, ok); });
  fetching_.emplace_back(map_task, op);
  fetch_state_[map_task.value()] = Fetch::kFetching;
  return true;
}

void TaskAttempt::fetch_done(TaskId map_task, bool ok) {
  std::erase_if(fetching_, [map_task](const auto& f) { return f.first == map_task; });
  fetch_state_[map_task.value()] = Fetch::kNone;
  if (terminal()) return;
  job_.bump_sched_epoch();  // shuffled fraction (progress) stepped
  if (ok) {
    fetch_state_[map_task.value()] = Fetch::kFetched;
    ++fetched_count_;
  } else {
    if (job_.jobtracker().available()) {
      job_.report_fetch_failure(map_task, *this);
    } else {
      // Master down: the report parks here (the worker-side retry machinery
      // below runs regardless) and replays at recovery.
      parked_fetch_failures_.push_back(map_task);
      job_.jobtracker().note_report_parked();
    }
    fetch_state_[map_task.value()] = Fetch::kRetryWait;
    auto& sim = job_.jobtracker().simulation();
    retry_events_.push_back(sim.schedule_after(
        job_.jobtracker().config().fetch_retry_interval, [this, map_task] {
          // Re-queue unless a fresh map completion already superseded the
          // backoff.
          Fetch& state = fetch_state_[map_task.value()];
          if (state == Fetch::kRetryWait) {
            state = Fetch::kNone;
            pending_fetch_.insert(map_task);
          }
          shuffle_pump();
        }));
  }
  shuffle_pump();
}

std::vector<TaskId> TaskAttempt::unfetched_maps() const {
  std::vector<TaskId> out;
  for (TaskId m : job_.tasks_of(TaskType::kMap)) {
    if (fetch_state_[m.value()] != Fetch::kFetched) out.push_back(m);
  }
  return out;
}

std::size_t TaskAttempt::retry_wait_count() const {
  return static_cast<std::size_t>(std::ranges::count(fetch_state_, Fetch::kRetryWait));
}

void TaskAttempt::notify_map_completed(TaskId map_task) {
  if (terminal() || phase_ != Phase::kShuffle) return;
  // Fresh output supersedes any backoff for this map. An in-flight fetch of
  // the superseded output is left to finish or fail on its own (its failure
  // path re-queues); anything else unfetched becomes fetchable now.
  Fetch& state = fetch_state_[map_task.value()];
  if (state == Fetch::kRetryWait) state = Fetch::kNone;
  if (state == Fetch::kNone) pending_fetch_.insert(map_task);
  shuffle_pump();
}

// ---- checkpoint restore ----------------------------------------------------

void TaskAttempt::restore_read_next() {
  if (terminal()) return;
  const auto& ckpt = *resume_;
  if (restore_block_ >= ckpt.blocks.size()) {
    apply_restored_checkpoint();
    return;
  }
  auto& dfs = job_.jobtracker().dfs();
  if (!dfs.namenode().block_exists(ckpt.blocks[restore_block_])) {
    // Log segment vanished between scheduling and the read: start cold.
    job_.bump_sched_epoch();
    resume_.reset();
    phase_ = Phase::kShuffle;
    note_phase("shuffle");
    init_shuffle_queue();
    shuffle_pump();
    return;
  }
  io_op_ = dfs.read_block(
      ckpt.blocks[restore_block_], tracker_.node_id(), [this](bool ok) {
        io_op_.reset();
        if (terminal()) return;
        if (!ok) {
          job_.bump_sched_epoch();
          resume_.reset();
          phase_ = Phase::kShuffle;
          note_phase("shuffle");
          init_shuffle_queue();
          shuffle_pump();
          return;
        }
        ++restore_block_;
        restore_read_next();
      });
}

void TaskAttempt::apply_restored_checkpoint() {
  sim::Profiler::Scope profile(job_.jobtracker().simulation().profiler(),
                               sim::Profiler::Key::kCheckpoint);
  job_.bump_sched_epoch();  // salvaged shuffle state lands at once
  const checkpoint::ReduceCheckpoint ckpt = std::move(*resume_);
  resume_.reset();
  // Restore runs before this attempt fetches anything.
  for (TaskId m : ckpt.fetched) fetch_state_[m.value()] = Fetch::kFetched;
  fetched_count_ = ckpt.fetched.size();
  resume_compute_total_ = ckpt.compute_total;
  resume_compute_done_ = ckpt.compute_done;
  resumed_ = true;
  ++job_.metrics().checkpoint_resumes;
  job_.metrics().checkpoint_progress_salvaged += ckpt.progress;
  phase_ = Phase::kShuffle;
  init_shuffle_queue();
  shuffle_pump();
}

void TaskAttempt::prime_resume(checkpoint::ReduceCheckpoint ckpt) {
  resume_ = std::move(ckpt);
}

void TaskAttempt::maybe_checkpoint(bool forced) {
  if (terminal()) return;
  // Checkpoint emits are DFS writes; with the NameNode down they are simply
  // skipped (the next scan tick retries — no state to park).
  if (!job_.jobtracker().dfs().namenode().available()) return;
  const Task& t = job_.task(task_);
  if (t.type != TaskType::kReduce) return;
  // Only phases with salvageable state; a writing attempt is nearly done.
  if (phase_ != Phase::kShuffle && phase_ != Phase::kCompute) return;
  auto& jobtracker = job_.jobtracker();
  sim::Profiler::Scope profile(jobtracker.simulation().profiler(),
                               sim::Profiler::Key::kCheckpoint);
  auto& store = jobtracker.checkpoint_store();
  const auto& policy = jobtracker.checkpoint_policy();
  if (store.emit_in_flight(job_.id(), task_)) return;
  const checkpoint::ReduceCheckpoint* last = store.latest(job_.id(), task_);
  const double score = progress();
  if (!policy.should_emit(last, score, forced)) return;

  checkpoint::CheckpointStore::Snapshot snap;
  snap.job = job_.id();
  snap.task = task_;
  snap.label = job_.spec().name + ".r" + std::to_string(t.index);
  for (TaskId m : job_.tasks_of(TaskType::kMap)) {
    if (fetch_state_[m.value()] == Fetch::kFetched) snap.fetched.push_back(m);
  }
  snap.compute_total = compute_total_;
  snap.compute_done = compute_ ? compute_->work_done() : 0;
  snap.progress = score;

  // Incremental payload: newly fetched partitions + compute state delta.
  // Both fetched lists ascend by TaskId, so one merge walk finds the maps
  // the last checkpoint lacks.
  const Bytes partition = job_.shuffle_partition_bytes();
  Bytes delta = policy.config().state_overhead;
  const std::vector<TaskId> none;
  const std::vector<TaskId>& prior = last != nullptr ? last->fetched : none;
  auto p = prior.begin();
  for (TaskId m : snap.fetched) {
    while (p != prior.end() && *p < m) ++p;
    if (p == prior.end() || *p != m) delta += partition;
  }
  if (job_.spec().output_per_reduce > 0 && snap.compute_total > 0) {
    const double frac = static_cast<double>(snap.compute_done) /
                        static_cast<double>(snap.compute_total);
    const double last_frac =
        (last != nullptr && last->compute_total > 0)
            ? static_cast<double>(last->compute_done) /
                  static_cast<double>(last->compute_total)
            : 0.0;
    if (frac > last_frac) {
      delta += static_cast<Bytes>(
          static_cast<double>(job_.spec().output_per_reduce) * (frac - last_frac));
    }
  }
  snap.delta_bytes = delta;

  Job* job = &job_;
  store.emit(std::move(snap), tracker_.node_id(), [job, delta](bool ok) {
    if (!ok) return;
    ++job->metrics().checkpoints_written;
    job->metrics().checkpoint_bytes += delta;
  });
}

void TaskAttempt::reduce_compute_done() {
  job_.bump_sched_epoch();  // discrete progress step (write plateau)
  phase_ = Phase::kWrite;
  note_phase("write");
  start_output_write();
}

// ---- shared ---------------------------------------------------------------

void TaskAttempt::begin_compute(sim::Duration duration) {
  job_.bump_sched_epoch();  // phase flip to kCompute (+ any resume credit)
  // A resumed attempt inherits the checkpointing attempt's jittered total so
  // the restored work fraction stays meaningful, and is credited the
  // salvaged compute time.
  sim::Duration credit = 0;
  if (resume_compute_total_ > 0) {
    duration = resume_compute_total_;
    credit = resume_compute_done_;
    resume_compute_total_ = 0;
    resume_compute_done_ = 0;
  }
  compute_total_ = duration;
  auto& sim = job_.jobtracker().simulation();
  compute_ = std::make_unique<sim::WorkUnit>(sim, duration, [this] {
    if (terminal()) return;
    if (job_.task(task_).type == TaskType::kMap) {
      map_compute_done();
    } else {
      reduce_compute_done();
    }
  });
  compute_->start();
  if (credit > 0) compute_->credit(credit);
  if (!tracker_.host_available()) compute_->pause();
}

void TaskAttempt::start_output_write() {
  if (terminal()) return;
  auto& nn = job_.jobtracker().dfs().namenode();
  if (!nn.available()) {
    // Creating the output file is a metadata op against a dead master: park
    // behind the backoff timer. The computed output waits on the worker.
    ++nn.stats_mutable().master_retries;
    master_retry_.retry([this] { start_output_write(); });
    return;
  }
  master_retry_.reset();
  const Task& t = job_.task(task_);
  if (t.type == TaskType::kMap) {
    my_output_ = job_.create_intermediate_file(task_, id_);
    write_output(job_.spec().intermediate_per_map, job_.spec().intermediate_kind,
                 job_.spec().intermediate_factor, "intermediate");
  } else {
    my_output_ = job_.create_output_file(task_, id_);
    // "Output data will first be stored as opportunistic files while the
    // Reduce tasks are completing" (§IV-A).
    write_output(job_.spec().output_per_reduce, dfs::FileKind::kOpportunistic,
                 job_.spec().output_factor, "output");
  }
}

void TaskAttempt::write_output(Bytes size, dfs::FileKind /*kind*/,
                               dfs::ReplicationFactor /*factor*/,
                               const char* /*label*/) {
  io_op_ = job_.jobtracker().dfs().write_file(
      my_output_, tracker_.node_id(), std::max<Bytes>(size, 1),
      [this](bool ok) { write_done(ok); });
}

void TaskAttempt::write_done(bool ok) {
  io_op_.reset();
  if (terminal()) return;
  if (ok) {
    succeed();
  } else {
    fail();
  }
}

double TaskAttempt::progress() const {
  if (state_ == AttemptState::kSucceeded) return 1.0;
  const Task& t = job_.task(task_);
  if (t.type == TaskType::kMap) {
    switch (phase_) {
      case Phase::kRead: return 0.0;
      case Phase::kCompute:
        return 0.05 + 0.90 * (compute_ ? compute_->progress() : 0.0);
      case Phase::kWrite: return 0.95;
      default: return 1.0;
    }
  }
  // Reduce: shuffle third + compute two-thirds (sort+reduce), write at ~1.
  const auto num_maps =
      static_cast<double>(job_.tasks_of(TaskType::kMap).size());
  const double shuffled =
      num_maps == 0.0 ? 1.0 : static_cast<double>(fetched_count_) / num_maps;
  switch (phase_) {
    case Phase::kRead: return 0.0;  // restoring a checkpoint; nothing yet
    case Phase::kShuffle: return shuffled / 3.0;
    case Phase::kCompute:
      return (1.0 + 2.0 * (compute_ ? compute_->progress() : 0.0)) / 3.0;
    case Phase::kWrite: return 0.99;
    default: return 1.0;
  }
}

void TaskAttempt::set_inactive(bool inactive) {
  if (terminal()) return;
  transition(inactive ? AttemptState::kInactive : AttemptState::kRunning);
}

void TaskAttempt::transition(AttemptState next) {
  const AttemptState prev = state_;
  if (prev == next) return;
  state_ = next;
  auto& sim = job_.jobtracker().simulation();
  if (auto* tracer = sim.tracer()) {
    if (terminal()) {
      const char* outcome = next == AttemptState::kSucceeded ? "succeeded"
                            : next == AttemptState::kFailed  ? "failed"
                                                             : "killed";
      tracer->end(span_, sim.now(), {{"outcome", outcome}});
      span_ = {};
    } else if (next == AttemptState::kInactive) {
      tracer->instant(obs::job_pid(job_.id()),
                      obs::node_track(tracker_.node_id()), obs::Cat::kAttempt,
                      "suspended", sim.now());
    } else if (prev == AttemptState::kInactive) {
      tracer->instant(obs::job_pid(job_.id()),
                      obs::node_track(tracker_.node_id()), obs::Cat::kAttempt,
                      "resumed", sim.now());
    }
  }
  if (next == AttemptState::kSucceeded) {
    if (auto* metrics = sim.metrics()) {
      const Task& t = job_.task(task_);
      metrics
          ->histogram(t.type == TaskType::kMap ? "map_attempt_runtime_s"
                                               : "reduce_attempt_runtime_s")
          .record(sim::to_seconds(sim.now() - started_at_));
    }
  }
  job_.note_attempt_state(*this, prev, next);
}

void TaskAttempt::note_phase(const char* name) {
  auto& sim = job_.jobtracker().simulation();
  if (auto* tracer = sim.tracer()) {
    tracer->instant(obs::job_pid(job_.id()),
                    obs::node_track(tracker_.node_id()), obs::Cat::kPhase,
                    name, sim.now());
  }
}

void TaskAttempt::on_node_availability(bool up) {
  if (terminal()) return;
  if (compute_ && phase_ == Phase::kCompute) {
    if (up) {
      compute_->start();
    } else {
      compute_->pause();
    }
  }
  if (up && phase_ == Phase::kShuffle) shuffle_pump();
}

void TaskAttempt::succeed() {
  assert(!terminal());
  phase_ = Phase::kDone;
  if (!job_.jobtracker().available()) {
    // Master down: the attempt is locally done but cannot report. It stays
    // kRunning (slot held, like a real tracker's) until recovery replays
    // the parked outcome through the normal attempt_succeeded path.
    parked_outcome_ = ParkedOutcome::kSucceeded;
    job_.jobtracker().note_report_parked();
    return;
  }
  transition(AttemptState::kSucceeded);
  cleanup_io();
  job_.attempt_succeeded(*this);
}

void TaskAttempt::fail() {
  assert(!terminal());
  if (!job_.jobtracker().available()) {
    parked_outcome_ = ParkedOutcome::kFailed;
    job_.jobtracker().note_report_parked();
    return;
  }
  transition(AttemptState::kFailed);
  cleanup_io();
  job_.attempt_failed(*this);
}

void TaskAttempt::deliver_parked_report() {
  // Fetch failures first — they may revert maps, which the outcome's
  // bookkeeping must observe — then the terminal outcome.
  std::vector<TaskId> fetch_failures;
  fetch_failures.swap(parked_fetch_failures_);
  const ParkedOutcome outcome = parked_outcome_;
  parked_outcome_ = ParkedOutcome::kNone;
  for (TaskId m : fetch_failures) {
    if (terminal()) return;
    job_.report_fetch_failure(m, *this);
  }
  if (terminal() || outcome == ParkedOutcome::kNone) return;
  if (outcome == ParkedOutcome::kSucceeded) {
    transition(AttemptState::kSucceeded);
    cleanup_io();
    job_.attempt_succeeded(*this);
  } else {
    transition(AttemptState::kFailed);
    cleanup_io();
    job_.attempt_failed(*this);
  }
}

void TaskAttempt::kill() {
  if (terminal()) return;
  // A killed attempt owes nobody a report (orphan reconciliation relies on
  // this: killing an orphan drops its parked outcome too).
  parked_outcome_ = ParkedOutcome::kNone;
  parked_fetch_failures_.clear();
  transition(AttemptState::kKilled);
  cleanup_io();
}

void TaskAttempt::cleanup_io() {
  auto& dfs = job_.jobtracker().dfs();
  auto& sim = job_.jobtracker().simulation();
  if (io_op_) {
    dfs.cancel_op(*io_op_);
    io_op_.reset();
  }
  // Cancel in issue (OpId) order: each cancel tears down a flow, and under
  // eager settles the recompute sequence is order-observable (§2
  // determinism contract).
  for (const auto& [map_task, op] : fetching_) {
    dfs.cancel_op(op);
    fetch_state_[map_task.value()] = Fetch::kNone;
  }
  fetching_.clear();
  for (EventId e : retry_events_) sim.cancel(e);
  retry_events_.clear();
  master_retry_.cancel();
  if (compute_) compute_->cancel();
}

}  // namespace moon::mapred
