// Journaled master images for control-plane crash-recovery (DESIGN.md §14).
//
// Each master keeps a write-ahead record of its durable decisions — the
// NameNode's file/block namespace mutations, the JobTracker's job/task
// lifecycle transitions — as one in-memory image. Every `record_*` call
// folds into that image and charges a framed edit-log record; a periodic
// snapshot charges a rewrite of the whole image. The journal is modeled as
// local-disk edit traffic (byte-accounted, not driven through the DFS flow
// network: a real master journals to its own disk, and charging it to the
// data plane would perturb every transfer).
//
// On recovery the image is replayed and diffed against the master's live
// durable state. The diff must be empty: a non-zero
// `JournalStats::divergences` means recovery would have lost or invented
// state — the failover bench and smoke gate on it.
//
// Journals are installed only when `faults.master_crash` is enabled; a null
// journal pointer on the master is the zero-perturbation off switch.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "dfs/types.hpp"
#include "simkit/periodic.hpp"
#include "simkit/simulation.hpp"

namespace moon::recovery {

struct JournalConfig {
  /// Charge a rewrite of the whole image this often.
  sim::Duration snapshot_interval = 60 * sim::kSecond;
};

struct JournalStats {
  std::int64_t records_appended = 0;
  std::int64_t bytes_journaled = 0;  ///< modeled local edit-log bytes
  std::int64_t snapshots_taken = 0;
  std::int64_t replays = 0;
  std::int64_t divergences = 0;  ///< replay-vs-live mismatches (must stay 0)
};

// ---- Images ------------------------------------------------------------------

struct FileImage {
  std::string name;
  dfs::FileKind kind = dfs::FileKind::kOpportunistic;
  dfs::ReplicationFactor factor;
  bool complete = false;
  /// (block, size) in allocation order.
  std::vector<std::pair<BlockId, Bytes>> blocks;
};

/// Durable namespace state only: block *locations* are soft state, rebuilt
/// from DataNode block reports, never journaled (HDFS semantics).
using NameNodeImage = std::map<FileId, FileImage>;

struct JobImage {
  std::string name;
  int num_maps = 0;
  int num_reduces = 0;
  bool finished = false;
  bool completed = false;  ///< meaningful only when finished
  std::set<TaskId> completed_tasks;
};

using JobTrackerImage = std::map<JobId, JobImage>;

/// Bytes a snapshot rewrite of `image` charges.
std::int64_t snapshot_bytes(const NameNodeImage& image);
std::int64_t snapshot_bytes(const JobTrackerImage& image);

/// What both masters' journals share: the image, the byte accounting and
/// the periodic snapshot task.
template <class Image>
class MasterJournal {
 public:
  explicit MasterJournal(sim::Simulation& sim, JournalConfig config = {})
      : snapshot_task_(sim, config.snapshot_interval, [this] {
          ++stats_.snapshots_taken;
          stats_.bytes_journaled += snapshot_bytes(image_);
        }) {}

  /// Starts the periodic snapshot task.
  void start() { snapshot_task_.start(); }

  /// The recovered image.
  [[nodiscard]] const Image& replay() {
    ++stats_.replays;
    return image_;
  }

  [[nodiscard]] const JournalStats& stats() const { return stats_; }
  void add_divergences(std::int64_t n) { stats_.divergences += n; }

 protected:
  /// Charges one record: a fixed 24-byte header plus `payload` bytes.
  void charge(std::int64_t payload) {
    ++stats_.records_appended;
    stats_.bytes_journaled += 24 + payload;
  }

  Image image_;

 private:
  JournalStats stats_;
  sim::PeriodicTask snapshot_task_;
};

class NameNodeJournal : public MasterJournal<NameNodeImage> {
 public:
  using MasterJournal::MasterJournal;

  void record_create_file(FileId file, const std::string& name,
                          dfs::FileKind kind, dfs::ReplicationFactor factor);
  void record_add_block(FileId file, BlockId block, Bytes size);
  void record_convert_reliable(FileId file, dfs::ReplicationFactor factor);
  void record_complete_file(FileId file);
  void record_remove_file(FileId file);
};

class JobTrackerJournal : public MasterJournal<JobTrackerImage> {
 public:
  using MasterJournal::MasterJournal;

  void record_submit(JobId job, const std::string& name, int num_maps,
                     int num_reduces);
  void record_task_completed(JobId job, TaskId task);
  void record_task_reverted(JobId job, TaskId task);
  void record_job_finished(JobId job, bool completed);
  /// Finished job garbage-collected from the live table (DESIGN.md §16):
  /// erased from the image, so a recovered master is not diffed against
  /// jobs the live state deliberately dropped — and the image stays
  /// O(live jobs) over open-ended streams.
  void record_job_retired(JobId job);
};

}  // namespace moon::recovery
