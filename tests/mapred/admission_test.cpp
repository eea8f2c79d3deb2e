// AdmissionController (DESIGN.md §16): cap enforcement per policy —
// reject-newest refuses arrivals over the queue cap, defer-with-backoff
// parks them behind a deterministic Retrier and admits FIFO as capacity
// frees (rejecting the over-aged), shed-lowest-priority evicts a running
// job to make room — plus the sequence hash that certifies bit-identical
// decision streams across same-seed runs.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "mapred/admission.hpp"
#include "mapred_fixture.hpp"

namespace moon::mapred {
namespace {

using testing::FixtureOptions;
using testing::MapRedHarness;

FixtureOptions admission_options(AdmissionConfig::Policy policy,
                                 int max_queued) {
  FixtureOptions options;
  options.volatile_nodes = 2;
  options.dedicated_nodes = 1;
  options.sched = testing::hadoop_sched(10 * sim::kMinute);
  options.sched.admission.enabled = true;
  options.sched.admission.policy = policy;
  options.sched.admission.max_queued_jobs = max_queued;
  return options;
}

/// Stages input through the harness DFS and builds a spec the tests can
/// offer to the controller (the fixture's submit_job bypasses admission).
JobSpec make_spec(MapRedHarness& h, const std::string& name, int maps,
                  int priority = 0,
                  sim::Duration map_compute = 10 * sim::kSecond) {
  JobSpec spec;
  spec.name = name;
  spec.num_maps = maps;
  spec.num_reduces = 1;
  spec.input_file = h.dfs().stage_blocks(name + ".in", dfs::FileKind::kReliable,
                                         {1, 2}, maps, kKiB);
  spec.intermediate_per_map = kKiB;
  spec.output_per_reduce = kKiB;
  spec.map_compute = map_compute;
  spec.reduce_compute = 10 * sim::kSecond;
  spec.compute_jitter = 0.0;
  // The default output factor {1,3} wants 3 volatile replicas; this harness
  // has 2 volatile nodes, so jobs would never commit.
  spec.intermediate_kind = dfs::FileKind::kReliable;
  spec.intermediate_factor = {1, 1};
  spec.output_factor = {1, 1};
  spec.priority = priority;
  return spec;
}

TEST(Admission, RejectNewestCapsLiveJobs) {
  MapRedHarness h(
      admission_options(AdmissionConfig::Policy::kRejectNewest, 2));
  auto* adm = h.jobtracker().admission();
  ASSERT_NE(adm, nullptr);

  std::vector<AdmissionController::Outcome> outcomes;
  for (int i = 0; i < 3; ++i) {
    adm->offer(make_spec(h, "job" + std::to_string(i), 2),
               [&](const AdmissionController::Outcome& out) {
                 outcomes.push_back(out);
               });
  }
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].decision, AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(outcomes[1].decision, AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(outcomes[2].decision, AdmissionController::Decision::kRejected);
  EXPECT_FALSE(outcomes[2].job.valid());
  EXPECT_EQ(h.jobtracker().live_jobs(), 2);
  EXPECT_GE(adm->backpressure(), 1.0);
  EXPECT_EQ(adm->stats().offered, 3);
  EXPECT_EQ(adm->stats().admitted, 2);
  EXPECT_EQ(adm->stats().rejected, 1);

  // A rejected arrival leaves no trace in the tracker: capacity frees as
  // the admitted two finish, and a later arrival gets in.
  ASSERT_TRUE(
      h.run_jobs_to_completion({outcomes[0].job, outcomes[1].job}));
  std::optional<AdmissionController::Outcome> late;
  adm->offer(make_spec(h, "late", 2),
             [&](const AdmissionController::Outcome& out) { late = out; });
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->decision, AdmissionController::Decision::kAdmitted);
}

TEST(Admission, DeferParksUntilCapacityFreesThenAdmitsFifo) {
  MapRedHarness h(
      admission_options(AdmissionConfig::Policy::kDeferWithBackoff, 1));
  auto* adm = h.jobtracker().admission();
  ASSERT_NE(adm, nullptr);

  std::optional<AdmissionController::Outcome> first, second, third;
  adm->offer(make_spec(h, "running", 2),
             [&](const AdmissionController::Outcome& out) { first = out; });
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->decision, AdmissionController::Decision::kAdmitted);

  adm->offer(make_spec(h, "parked-a", 2),
             [&](const AdmissionController::Outcome& out) { second = out; });
  adm->offer(make_spec(h, "parked-b", 2),
             [&](const AdmissionController::Outcome& out) { third = out; });
  // Deferred verdicts are asynchronous: nothing fires at offer time.
  EXPECT_FALSE(second.has_value());
  EXPECT_FALSE(third.has_value());
  EXPECT_EQ(adm->deferred_depth(), 2u);

  // Run the stream out: each admit happens from the backoff timer after the
  // previous job retires its slot usage, in FIFO park order.
  const sim::Time deadline = h.sim().now() + sim::hours(2);
  while ((!second || !third ||
          !h.jobtracker().job(third->job).finished()) &&
         h.sim().now() < deadline) {
    if (!h.sim().step()) break;
  }
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(second->decision, AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(third->decision, AdmissionController::Decision::kAdmitted);
  EXPECT_GE(second->defers, 0);
  EXPECT_LT(second->job.value(), third->job.value());  // FIFO order held
  EXPECT_EQ(adm->deferred_depth(), 0u);
  EXPECT_EQ(adm->stats().deferred, 2);
  EXPECT_EQ(adm->stats().admitted, 3);
}

TEST(Admission, DeferExhaustionRejectsDeterministically) {
  FixtureOptions options =
      admission_options(AdmissionConfig::Policy::kDeferWithBackoff, 1);
  options.sched.admission.max_defers = 2;
  options.sched.admission.defer_initial = 15 * sim::kSecond;
  options.sched.admission.defer_max = 60 * sim::kSecond;
  MapRedHarness h(options);
  auto* adm = h.jobtracker().admission();

  // The occupant never finishes inside the test window, so the parked
  // arrival ages through its defer budget and resolves to a rejection.
  std::optional<AdmissionController::Outcome> occupant, parked;
  adm->offer(make_spec(h, "hog", 2, 0, sim::hours(10)),
             [&](const AdmissionController::Outcome& out) { occupant = out; });
  adm->offer(make_spec(h, "starved", 2),
             [&](const AdmissionController::Outcome& out) { parked = out; });
  EXPECT_FALSE(parked.has_value());

  h.advance(sim::minutes(10));
  ASSERT_TRUE(parked.has_value());
  EXPECT_EQ(parked->decision, AdmissionController::Decision::kRejected);
  EXPECT_EQ(parked->defers, 2);
  EXPECT_EQ(adm->stats().rejected, 1);
  EXPECT_EQ(adm->deferred_depth(), 0u);
}

TEST(Admission, ShedEvictsNewestLowestPriorityStrictlyBelowArrival) {
  MapRedHarness h(
      admission_options(AdmissionConfig::Policy::kShedLowestPriority, 2));
  auto* adm = h.jobtracker().admission();

  std::optional<AdmissionController::Outcome> a, b, c;
  adm->offer(make_spec(h, "old-low", 2, /*priority=*/0, sim::hours(10)),
             [&](const AdmissionController::Outcome& out) { a = out; });
  adm->offer(make_spec(h, "new-low", 2, /*priority=*/0, sim::hours(10)),
             [&](const AdmissionController::Outcome& out) { b = out; });

  // Equal priority cannot shed: the arrival loses.
  adm->offer(make_spec(h, "peer", 2, /*priority=*/0),
             [&](const AdmissionController::Outcome& out) { c = out; });
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->decision, AdmissionController::Decision::kRejected);
  EXPECT_EQ(adm->stats().shed, 0);

  // A strictly higher-priority arrival evicts the *newest* of the
  // lowest-priority tier (b, not a) and takes its slot.
  std::optional<AdmissionController::Outcome> vip;
  adm->offer(make_spec(h, "vip", 2, /*priority=*/5),
             [&](const AdmissionController::Outcome& out) { vip = out; });
  ASSERT_TRUE(vip.has_value());
  EXPECT_EQ(vip->decision, AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(vip->shed_job, b->job);
  EXPECT_EQ(adm->stats().shed, 1);

  const Job& victim = h.jobtracker().job(b->job);
  EXPECT_TRUE(victim.finished());
  EXPECT_TRUE(victim.metrics().failed);
  EXPECT_EQ(victim.metrics().failure_reason, JobFailureReason::kShed);
  const Job& survivor = h.jobtracker().job(a->job);
  EXPECT_FALSE(survivor.finished());
}

TEST(Admission, SequenceHashIsBitIdenticalAcrossRuns) {
  auto run = [](AdmissionConfig::Policy policy) {
    MapRedHarness h(admission_options(policy, 1));
    auto* adm = h.jobtracker().admission();
    std::vector<JobId> admitted;
    for (int i = 0; i < 4; ++i) {
      std::string name = "j";
      name += std::to_string(i);
      adm->offer(make_spec(h, name, 2, /*priority=*/i),
                 [&](const AdmissionController::Outcome& out) {
                   if (out.decision == AdmissionController::Decision::kAdmitted)
                     admitted.push_back(out.job);
                 });
      h.advance(sim::minutes(2));
    }
    h.advance(sim::hours(1));
    return adm->sequence_hash();
  };
  for (auto policy : {AdmissionConfig::Policy::kRejectNewest,
                      AdmissionConfig::Policy::kDeferWithBackoff,
                      AdmissionConfig::Policy::kShedLowestPriority}) {
    const std::uint64_t h1 = run(policy);
    const std::uint64_t h2 = run(policy);
    EXPECT_EQ(h1, h2) << "policy " << to_string(policy);
    // And the stream is non-trivial: the hash moved off the FNV basis.
    EXPECT_NE(h1, 14695981039346656037ULL);
  }
}

}  // namespace
}  // namespace moon::mapred
