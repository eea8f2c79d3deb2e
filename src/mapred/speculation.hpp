// Speculative-execution policies (paper §V).
//
// `HadoopSpeculator` reproduces the Hadoop-0.17 baseline: a task is a
// straggler if it has run for at least a minute and its progress score lags
// the average of its type by 0.2; one backup copy max; stragglers picked in
// original scheduling order with map-locality preference.
//
// `MoonSpeculator` implements §V-A/B/C: frozen-before-slow lists sorted by
// ascending progress, a global cap on concurrent speculative copies (20 % of
// available slots), two-phase homestretch replication (maintain R active
// copies when remaining tasks < H % of slots), and optional hybrid awareness
// (dedicated nodes host backups; tasks with a dedicated copy are excluded
// from further replication and from the homestretch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "mapred/types.hpp"

namespace moon::mapred {

class Job;
class JobTracker;
class TaskTracker;

class SpeculationPolicy {
 public:
  virtual ~SpeculationPolicy() = default;

  /// Picks a task of `type` deserving a speculative copy on `tracker`;
  /// nullopt if none qualifies.
  virtual std::optional<TaskId> pick(Job& job, TaskType type,
                                     TaskTracker& tracker) = 0;

  /// Drops `job`'s candidate memos; the JobTracker calls it when the job
  /// retires, so memo state stays O(live jobs) on open-ended streams.
  virtual void forget(JobId job) = 0;
  /// Memo entries held, across both task types.
  [[nodiscard]] virtual std::size_t memo_entries() const = 0;

 protected:
  /// Memo key for tracker-independent candidate enumeration, valid for one
  /// (job, sim tick, sched-epoch) combination — callers keep one memo per
  /// task type so map/reduce probes within a heartbeat don't thrash each
  /// other. Heartbeat bursts land on the same tick (every tracker beats on
  /// the same schedule), so under kIndexed the O(running) enumeration is
  /// paid once per tick instead of once per heartbeat; only the cheap
  /// per-tracker filters (placement, locality) run per pick. `slots`
  /// captures any additional input the candidate predicate reads that can
  /// change without a job epoch bump (live execution slots: a tracker with
  /// no hosted attempts flipping state moves the homestretch threshold but
  /// touches no job). kScan never consults the memo.
  struct MemoKey {
    bool valid = false;
    JobId job;
    sim::Time time = 0;
    std::uint64_t epoch = 0;
    int slots = 0;
  };
  [[nodiscard]] static bool fresh(const MemoKey& key, const Job& job,
                                  sim::Time now, std::uint64_t epoch,
                                  int slots = 0);
  static void stamp(MemoKey& key, const Job& job, sim::Time now,
                    std::uint64_t epoch, int slots = 0);
  [[nodiscard]] static int type_slot(TaskType type) {
    return type == TaskType::kMap ? 0 : 1;
  }
};

class HadoopSpeculator final : public SpeculationPolicy {
 public:
  explicit HadoopSpeculator(JobTracker& jobtracker) : jobtracker_(jobtracker) {}
  std::optional<TaskId> pick(Job& job, TaskType type, TaskTracker& tracker) override;
  void forget(JobId job) override {
    memo_[0].erase(job);
    memo_[1].erase(job);
  }
  [[nodiscard]] std::size_t memo_entries() const override {
    return memo_[0].size() + memo_[1].size();
  }

 private:
  [[nodiscard]] bool is_straggler(Job& job, TaskId id, double average) const;
  JobTracker& jobtracker_;
  struct Memo {
    MemoKey key;
    std::vector<TaskId> stragglers;  ///< schedule order, pre-tracker filters
  };
  /// Per (task type, job): concurrent jobs alternate within a heartbeat
  /// burst (assign_work probes them in order), so a shared slot would
  /// thrash. Entries are few (one per live job probed) and tiny.
  std::unordered_map<JobId, Memo> memo_[2];
};

/// LATE — "Longest Approximate Time to End" (Zaharia et al., OSDI'08).
///
/// Estimates each running task's progress *rate* (score / elapsed time) and
/// speculates on the slow task expected to finish furthest in the future,
/// subject to a global SpeculativeCap. Designed for heterogeneous but
/// *dedicated* resources: the paper's related work explains why a constant-
/// rate assumption misfires on opportunistic ones ("the task progress rate
/// is not constant on a node"), and combining LATE with MOON is named as
/// future work — this implementation enables exactly that comparison.
class LateSpeculator final : public SpeculationPolicy {
 public:
  explicit LateSpeculator(JobTracker& jobtracker) : jobtracker_(jobtracker) {}
  std::optional<TaskId> pick(Job& job, TaskType type, TaskTracker& tracker) override;
  void forget(JobId job) override {
    memo_[0].erase(job);
    memo_[1].erase(job);
  }
  [[nodiscard]] std::size_t memo_entries() const override {
    return memo_[0].size() + memo_[1].size();
  }

  /// Estimated seconds until `task` completes at its current rate;
  /// +infinity for stalled tasks.
  [[nodiscard]] double estimated_time_left(Job& job, TaskId task) const;
  /// Progress score per second since first launch (0 for unstarted).
  [[nodiscard]] double progress_rate(Job& job, TaskId task) const;

 private:
  JobTracker& jobtracker_;
  struct Memo {
    MemoKey key;
    std::vector<double> rates;  ///< every running task, schedule order
    struct Candidate {
      TaskId id;
      double rate;
      double time_left;
    };
    std::vector<Candidate> candidates;  ///< pre-tracker filters applied
  };
  std::unordered_map<JobId, Memo> memo_[2];  ///< per (task type, job)
};

class MoonSpeculator final : public SpeculationPolicy {
 public:
  explicit MoonSpeculator(JobTracker& jobtracker) : jobtracker_(jobtracker) {}
  std::optional<TaskId> pick(Job& job, TaskType type, TaskTracker& tracker) override;
  void forget(JobId job) override {
    memos_[0].erase(job);
    memos_[1].erase(job);
  }
  [[nodiscard]] std::size_t memo_entries() const override {
    return memos_[0].size() + memos_[1].size();
  }

  /// True when the job has entered the homestretch phase (§V-B).
  [[nodiscard]] bool in_homestretch(const Job& job) const;

 private:
  std::optional<TaskId> pick_frozen(Job& job, TaskType type, TaskTracker& tracker);
  std::optional<TaskId> pick_slow(Job& job, TaskType type, TaskTracker& tracker);
  std::optional<TaskId> pick_homestretch(Job& job, TaskType type,
                                         TaskTracker& tracker);
  std::optional<TaskId> pick_dedicated_backup(Job& job, TaskType type,
                                              TaskTracker& tracker);
  JobTracker& jobtracker_;
  struct ListMemo {
    MemoKey key;
    std::vector<TaskId> list;  ///< schedule order, pre-tracker filters
  };
  /// Returns the tracker-independent candidate list: enumerated fresh under
  /// kScan, served from (and lazily rebuilt into) `memo` under kIndexed.
  /// `slots` must carry every predicate input that can change without a job
  /// epoch bump (0 when there is none).
  template <typename Enumerate>
  std::vector<TaskId> memoized_list(Job& job, ListMemo& memo,
                                    Enumerate&& enumerate, int slots = 0);
  struct JobMemos {
    ListMemo frozen;
    ListMemo slow;
    ListMemo homestretch;
    ListMemo dedicated;
  };
  /// Per (task type, job) — see HadoopSpeculator::memo_.
  std::unordered_map<JobId, JobMemos> memos_[2];
};

}  // namespace moon::mapred
