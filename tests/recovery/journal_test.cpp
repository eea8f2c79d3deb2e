// Master journals: replay must reconstruct exactly the durable state the
// records describe, and snapshots must not change what replay sees.
#include <gtest/gtest.h>

#include "recovery/master_journal.hpp"
#include "simkit/simulation.hpp"

namespace moon::recovery {
namespace {

TEST(NameNodeJournal, ReplayReconstructsTheNamespace) {
  sim::Simulation sim(1);
  NameNodeJournal journal(sim);

  journal.record_create_file(FileId{1}, "job.input", dfs::FileKind::kReliable,
                             {1, 3});
  journal.record_add_block(FileId{1}, BlockId{10}, 64 * kKiB);
  journal.record_add_block(FileId{1}, BlockId{11}, 32 * kKiB);
  journal.record_complete_file(FileId{1});
  journal.record_create_file(FileId{2}, "scratch",
                             dfs::FileKind::kOpportunistic, {0, 1});
  journal.record_remove_file(FileId{2});
  journal.record_create_file(FileId{3}, "out", dfs::FileKind::kOpportunistic,
                             {0, 1});
  journal.record_convert_reliable(FileId{3}, {1, 3});

  const NameNodeImage image = journal.replay();
  ASSERT_EQ(image.size(), 2u);  // removed file stays removed

  const FileImage& input = image.at(FileId{1});
  EXPECT_EQ(input.name, "job.input");
  EXPECT_EQ(input.kind, dfs::FileKind::kReliable);
  EXPECT_TRUE(input.complete);
  ASSERT_EQ(input.blocks.size(), 2u);
  EXPECT_EQ(input.blocks[0].first, BlockId{10});
  EXPECT_EQ(input.blocks[0].second, 64 * kKiB);
  EXPECT_EQ(input.blocks[1].first, BlockId{11});

  const FileImage& out = image.at(FileId{3});
  EXPECT_EQ(out.kind, dfs::FileKind::kReliable);  // conversion applied
  EXPECT_EQ(out.factor, (dfs::ReplicationFactor{1, 3}));
  EXPECT_FALSE(out.complete);

  EXPECT_EQ(journal.stats().records_appended, 8);
  EXPECT_GT(journal.stats().bytes_journaled, 0);
  EXPECT_EQ(journal.stats().replays, 1);
  EXPECT_EQ(journal.stats().divergences, 0);
}

// Snapshots only charge a rewrite of the image: replay sees every record,
// and the accounting below is pinned exactly (24-byte header + payload per
// record, 64 per image entry + 16 per block per snapshot).
TEST(NameNodeJournal, SnapshotsKeepReplayAndPinAccounting) {
  sim::Simulation sim(1);
  JournalConfig config;
  config.snapshot_interval = 10 * sim::kSecond;
  NameNodeJournal journal(sim, config);
  journal.start();

  journal.record_create_file(FileId{1}, "a", dfs::FileKind::kReliable, {1, 2});
  journal.record_add_block(FileId{1}, BlockId{7}, kKiB);
  sim.run_until(35 * sim::kSecond);  // snapshots at 10, 20 and 30 s
  EXPECT_EQ(journal.stats().snapshots_taken, 3);

  journal.record_complete_file(FileId{1});  // post-snapshot tail
  journal.record_complete_file(FileId{9});  // unknown file: no entry
  journal.record_convert_reliable(FileId{9}, {1, 3});
  journal.record_add_block(FileId{5}, BlockId{8}, kKiB);  // creates the entry
  sim.run_until(45 * sim::kSecond);  // snapshot at 40 s

  const NameNodeImage image = journal.replay();
  ASSERT_EQ(image.size(), 2u);
  EXPECT_FALSE(image.contains(FileId{9}));
  EXPECT_TRUE(image.at(FileId{1}).complete);
  ASSERT_EQ(image.at(FileId{1}).blocks.size(), 1u);
  EXPECT_EQ(image.at(FileId{1}).blocks[0].first, BlockId{7});
  const FileImage& orphan = image.at(FileId{5});
  EXPECT_EQ(orphan.kind, dfs::FileKind::kOpportunistic);
  EXPECT_FALSE(orphan.complete);
  ASSERT_EQ(orphan.blocks.size(), 1u);
  EXPECT_EQ(orphan.blocks[0].first, BlockId{8});

  EXPECT_EQ(journal.stats().records_appended, 6);
  EXPECT_EQ(journal.stats().bytes_journaled, 641);
  EXPECT_EQ(journal.stats().snapshots_taken, 4);
  EXPECT_EQ(journal.stats().replays, 1);
  EXPECT_EQ(journal.stats().divergences, 0);
}

TEST(JobTrackerJournal, ReplayReconstructsJobState) {
  sim::Simulation sim(1);
  JobTrackerJournal journal(sim);

  journal.record_submit(JobId{1}, "sort", 4, 2);
  journal.record_task_completed(JobId{1}, TaskId{0});
  journal.record_task_completed(JobId{1}, TaskId{1});
  journal.record_task_reverted(JobId{1}, TaskId{1});  // map output lost
  journal.record_submit(JobId{2}, "grep", 2, 1);
  journal.record_task_completed(JobId{2}, TaskId{0});
  journal.record_job_finished(JobId{2}, true);

  const JobTrackerImage image = journal.replay();
  ASSERT_EQ(image.size(), 2u);

  const JobImage& sort = image.at(JobId{1});
  EXPECT_EQ(sort.name, "sort");
  EXPECT_EQ(sort.num_maps, 4);
  EXPECT_EQ(sort.num_reduces, 2);
  EXPECT_FALSE(sort.finished);
  EXPECT_EQ(sort.completed_tasks, (std::set<TaskId>{TaskId{0}}));

  const JobImage& grep = image.at(JobId{2});
  EXPECT_TRUE(grep.finished);
  EXPECT_TRUE(grep.completed);
  EXPECT_EQ(grep.completed_tasks.size(), 1u);

  EXPECT_EQ(journal.stats().records_appended, 7);
  EXPECT_EQ(journal.stats().divergences, 0);
}

// Same as above for the JobTracker image (64 per job + 8 per completed
// task per snapshot).
TEST(JobTrackerJournal, SnapshotsKeepReplayAndPinAccounting) {
  sim::Simulation sim(1);
  JournalConfig config;
  config.snapshot_interval = 10 * sim::kSecond;
  JobTrackerJournal journal(sim, config);
  journal.start();

  journal.record_submit(JobId{1}, "sort", 4, 2);
  journal.record_task_completed(JobId{1}, TaskId{0});
  journal.record_task_completed(JobId{1}, TaskId{1});
  journal.record_submit(JobId{2}, "grep", 2, 1);
  journal.record_job_finished(JobId{2}, true);
  sim.run_until(25 * sim::kSecond);  // snapshots at 10 and 20 s

  journal.record_job_retired(JobId{2});
  journal.record_task_reverted(JobId{1}, TaskId{1});
  journal.record_task_completed(JobId{7}, TaskId{0});  // unknown job: no-ops
  journal.record_task_reverted(JobId{7}, TaskId{0});
  journal.record_job_finished(JobId{7}, false);
  sim.run_until(35 * sim::kSecond);  // snapshot at 30 s

  const JobTrackerImage image = journal.replay();
  ASSERT_EQ(image.size(), 1u);  // retired and unknown jobs absent
  const JobImage& sort = image.at(JobId{1});
  EXPECT_FALSE(sort.finished);
  EXPECT_EQ(sort.completed_tasks, (std::set<TaskId>{TaskId{0}}));

  EXPECT_EQ(journal.stats().records_appended, 10);
  EXPECT_EQ(journal.stats().bytes_journaled, 746);
  EXPECT_EQ(journal.stats().snapshots_taken, 3);
  EXPECT_EQ(journal.stats().replays, 1);
  EXPECT_EQ(journal.stats().divergences, 0);
}

}  // namespace
}  // namespace moon::recovery
