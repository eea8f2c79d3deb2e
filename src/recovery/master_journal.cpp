#include "recovery/master_journal.hpp"

namespace moon::recovery {

// Record payload sizes model HDFS edit-log / JobTracker job-history records.
// The exact numbers only matter for the bytes_journaled gauge.

// ---- NameNodeJournal -------------------------------------------------------

void NameNodeJournal::record_create_file(FileId file, const std::string& name,
                                         dfs::FileKind kind,
                                         dfs::ReplicationFactor factor) {
  charge(static_cast<std::int64_t>(name.size()) + 16);
  FileImage f;
  f.name = name;
  f.kind = kind;
  f.factor = factor;
  image_[file] = std::move(f);
}

void NameNodeJournal::record_add_block(FileId file, BlockId block, Bytes size) {
  charge(24);
  image_[file].blocks.emplace_back(block, size);
}

void NameNodeJournal::record_convert_reliable(FileId file,
                                              dfs::ReplicationFactor factor) {
  charge(16);
  auto it = image_.find(file);
  if (it != image_.end()) {
    it->second.kind = dfs::FileKind::kReliable;
    it->second.factor = factor;
  }
}

void NameNodeJournal::record_complete_file(FileId file) {
  charge(8);
  auto it = image_.find(file);
  if (it != image_.end()) it->second.complete = true;
}

void NameNodeJournal::record_remove_file(FileId file) {
  charge(8);
  image_.erase(file);
}

std::int64_t snapshot_bytes(const NameNodeImage& image) {
  // ~64 bytes per file plus 16 per block entry.
  std::int64_t bytes = 0;
  for (const auto& [id, f] : image) {
    bytes += 64 + static_cast<std::int64_t>(f.blocks.size()) * 16;
  }
  return bytes;
}

// ---- JobTrackerJournal -----------------------------------------------------

void JobTrackerJournal::record_submit(JobId job, const std::string& name,
                                      int num_maps, int num_reduces) {
  charge(static_cast<std::int64_t>(name.size()) + 16);
  JobImage j;
  j.name = name;
  j.num_maps = num_maps;
  j.num_reduces = num_reduces;
  image_[job] = std::move(j);
}

void JobTrackerJournal::record_task_completed(JobId job, TaskId task) {
  charge(16);
  auto it = image_.find(job);
  if (it != image_.end()) it->second.completed_tasks.insert(task);
}

void JobTrackerJournal::record_task_reverted(JobId job, TaskId task) {
  charge(16);
  auto it = image_.find(job);
  if (it != image_.end()) it->second.completed_tasks.erase(task);
}

void JobTrackerJournal::record_job_finished(JobId job, bool completed) {
  charge(9);
  auto it = image_.find(job);
  if (it != image_.end()) {
    it->second.finished = true;
    it->second.completed = completed;
  }
}

void JobTrackerJournal::record_job_retired(JobId job) {
  charge(8);
  image_.erase(job);
}

std::int64_t snapshot_bytes(const JobTrackerImage& image) {
  // ~64 bytes per job plus 8 per completed task.
  std::int64_t bytes = 0;
  for (const auto& [id, j] : image) {
    bytes += 64 + static_cast<std::int64_t>(j.completed_tasks.size()) * 8;
  }
  return bytes;
}

}  // namespace moon::recovery
