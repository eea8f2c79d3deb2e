// Retired-job GC reaches the speculators: each policy keeps a candidate memo
// per (task type, job) it probes, and retiring a job must drop its entries so
// memo state stays O(live jobs) over an open-ended stream (DESIGN.md §16).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mapred/speculation.hpp"
#include "mapred_fixture.hpp"

namespace moon::mapred {
namespace {

using testing::FixtureOptions;
using testing::MapRedHarness;

class SpeculationGc
    : public ::testing::TestWithParam<SchedulerConfig::Speculator> {};

TEST_P(SpeculationGc, MemoEntriesStayWithinTwicePerLiveJob) {
  FixtureOptions opt;
  opt.sched.speculator = GetParam();
  MapRedHarness h(opt);
  JobTracker& jt = h.jobtracker();

  std::size_t peak = 0;
  for (int round = 0; round < 6; ++round) {
    const std::string tag = std::to_string(round);
    const std::vector<JobId> ids = {h.submit_job("a" + tag, 4, 2),
                                    h.submit_job("b" + tag, 4, 2)};
    ASSERT_TRUE(h.run_jobs_to_completion(ids));
    peak = std::max(peak, jt.speculator().memo_entries());
    EXPECT_LE(jt.speculator().memo_entries(), 2 * jt.jobs_in_order().size());
    for (JobId id : ids) jt.retire_job(id);
    EXPECT_LE(jt.speculator().memo_entries(), 2 * jt.jobs_in_order().size())
        << "round " << round;
  }
  EXPECT_GT(peak, 0u);  // the speculator was probed at all
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SpeculationGc,
    ::testing::Values(SchedulerConfig::Speculator::kHadoop,
                      SchedulerConfig::Speculator::kLate,
                      SchedulerConfig::Speculator::kMoon));

}  // namespace
}  // namespace moon::mapred
