// moon::audit::Auditor: clean stacks audit clean (mid-run and at rest), and
// a deliberately broken invariant is detected — proving the sweep is not
// vacuously green.
#include <gtest/gtest.h>

#include "../mapred/mapred_fixture.hpp"
#include "audit/auditor.hpp"

namespace moon::audit {
namespace {

using mapred::testing::FixtureOptions;
using mapred::testing::MapRedHarness;

FixtureOptions busy_opts() {
  FixtureOptions opts;
  opts.volatile_nodes = 4;
  opts.dedicated_nodes = 1;
  opts.sched = mapred::testing::moon_sched();
  opts.sched.checkpoint.enabled = true;
  opts.sched.checkpoint.scan_interval = 30 * sim::kSecond;
  opts.sched.checkpoint.min_progress_delta = 0.01;
  opts.sched.checkpoint.factor = {1, 1};
  opts.num_maps = 6;
  opts.num_reduces = 2;
  opts.reduce_compute = 120 * sim::kSecond;
  return opts;
}

TEST(Auditor, CleanStackAuditsCleanMidRunAndAtRest) {
  MapRedHarness h(busy_opts());
  h.submit();
  Auditor auditor(&h.cluster(), &h.dfs(), &h.jobtracker());

  // Sweep repeatedly while the job runs — every event boundary must hold
  // the invariants, including with churn in the middle.
  int sweeps = 0;
  bool churned = false;
  while (!h.job().finished() && h.sim().now() < 2 * sim::kHour) {
    h.advance(60 * sim::kSecond);
    if (!churned && h.sim().now() >= 20 * sim::kMinute) {
      churned = true;
      h.set_node_available(h.volatile_ids[0], false);
    }
    EXPECT_TRUE(auditor.run().empty()) << "at t=" << h.sim().now();
    ++sweeps;
  }
  EXPECT_TRUE(h.job().metrics().completed);
  EXPECT_TRUE(auditor.run().empty());
  EXPECT_EQ(auditor.violations_total(), 0);
  EXPECT_EQ(auditor.passes(), sweeps + 1);
}

TEST(Auditor, DetectsPhantomReplica) {
  MapRedHarness h(busy_opts());
  h.submit();
  h.advance(2 * sim::kMinute);

  // Corrupt the metadata on purpose: register a replica on a node that
  // holds no bytes for it. (Real code can't reach this state — commit only
  // happens after a physical store.)
  auto& nn = h.dfs().namenode();
  BlockId victim = BlockId::invalid();
  for (const dfs::BlockMeta& meta : nn.all_blocks()) {
    for (NodeId n : h.volatile_ids) {
      if (!meta.has_replica_on(n)) {
        victim = meta.id;
        nn.commit_replica(meta.id, n);
        break;
      }
    }
    if (victim.valid()) break;
  }
  ASSERT_TRUE(victim.valid());

  Auditor auditor(&h.cluster(), &h.dfs(), &h.jobtracker());
  const auto violations = auditor.run();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "dfs.replica-consistency");
  EXPECT_EQ(auditor.violations_total(),
            static_cast<std::int64_t>(violations.size()));
}

TEST(Auditor, NullComponentsAreSkipped) {
  Auditor auditor(nullptr, nullptr, nullptr);
  EXPECT_TRUE(auditor.run().empty());
  EXPECT_EQ(auditor.passes(), 1);
}

}  // namespace
}  // namespace moon::audit
