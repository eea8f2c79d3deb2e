// Pinned runs (DESIGN.md §2, §13, §14, §16): one table of scenario x seed
// rows — chaos (every fault class, auditor sweeping), master failover,
// steady-state job streams (admission control, job GC, master crashes) and a
// stream that drives the NameNode's sweeps — each run TWICE. The two runs
// must print the same experiment::fingerprint, the fingerprint's hash must
// equal the row's pin, and every check the row's scenario names must hold on
// both runs. A pin mismatch prints the row's new table line; paste it over
// the old one only when the outcome change is deliberate.
//
//   ctest -R experiment/pinned_runs
//   ./moon_test_experiment_pinned_runs --gtest_filter='*failover*'
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <variant>

#include "experiment/fault_cli.hpp"
#include "experiment/multi_job.hpp"

namespace moon::experiment {
namespace {

// ---- the checks ------------------------------------------------------------

/// What a row's run must show besides replaying to its pin. kCompletes reads
/// single-job rows; kPushesBack, kBoundedMemory and kCollects read streams.
enum Check : unsigned {
  kAuditClean = 1u << 0,     ///< no audit violation, and the auditor ran
  kJournalClean = 1u << 1,   ///< no master journal diverged from live state
  kCompletes = 1u << 2,      ///< the single job completed in the horizon
  kInjects = 1u << 3,        ///< at least one fault was injected
  kCrashes = 1u << 4,        ///< at least one master crashed
  kPushesBack = 1u << 5,     ///< at least one arrival was rejected or shed
  kBoundedMemory = 1u << 6,  ///< retained job state stayed under the ceiling
  kCollects = 1u << 7,       ///< at least one job was retired (job GC ran)
  kAdapts = 1u << 8,         ///< a node hibernated and a v' was raised
  kKills = 1u << 9,          ///< a node was declared dead
};

/// Retained state may hold the live-job window plus any DNF jobs pinned at
/// the horizon — far under 1 MiB for these small jobs. An unbounded-retention
/// regression (GC not firing) blows through it immediately: a stream's
/// hundreds of arrivals would retain tens of MiB.
constexpr std::size_t kRetainedCeiling = 1 << 20;

void expect_counters(unsigned checks, const RunCounters& c) {
  if ((checks & kAuditClean) != 0) {
    EXPECT_EQ(c.audit_violations, 0);
    EXPECT_GT(c.audit_passes, 0);
  }
  if ((checks & kJournalClean) != 0) {
    EXPECT_EQ(c.journal_divergences, 0);
  }
  if ((checks & kInjects) != 0) {
    EXPECT_GT(c.fault_stats.total_injected(), 0);
  }
  if ((checks & kCrashes) != 0) {
    EXPECT_GT(c.fault_stats.namenode_crashes + c.fault_stats.jobtracker_crashes,
              0);
  }
  if ((checks & kAdapts) != 0) {
    EXPECT_GT(c.dfs_stats.hibernate_transitions, 0);
    EXPECT_GT(c.dfs_stats.adaptive_v_raises, 0);
  }
  if ((checks & kKills) != 0) {
    EXPECT_GT(c.dfs_stats.dead_transitions, 0);
  }
}

/// Runs `cfg` at `seed`, expects what `checks` names, returns the fingerprint.
std::string run(ScenarioConfig cfg, std::uint64_t seed, unsigned checks) {
  cfg.seed = seed;
  const RunResult r = run_scenario(cfg);
  if ((checks & kCompletes) != 0) {
    EXPECT_TRUE(r.finished);
  }
  expect_counters(checks, r);
  return fingerprint(r);
}

std::string run(MultiJobConfig cfg, std::uint64_t seed, unsigned checks) {
  cfg.base.seed = seed;
  const MultiJobResult r = run_multi_job_scenario(cfg);
  if ((checks & kPushesBack) != 0) {
    EXPECT_GT(r.rejected_jobs + r.shed_jobs, 0);
  }
  if ((checks & kBoundedMemory) != 0) {
    EXPECT_LE(r.peak_retained_bytes, kRetainedCeiling);
  }
  if ((checks & kCollects) != 0) {
    EXPECT_GT(r.jobs_retired, 0);
  }
  expect_counters(checks, r);
  return fingerprint(r);
}

/// FNV-1a over the fingerprint, with offset basis 1469598103934665603: the
/// 19-digit truncation of FNV-1a's 14695981039346656037. Every pin below and
/// the fingerprint hashes perfbench prints use this basis, so "fixing" it
/// would move all of them.
std::uint64_t pin_hash(const std::string& fingerprint) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : fingerprint) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---- the scenarios ---------------------------------------------------------

/// Short sort: fast, yet it exercises maps, shuffle, reduces, checkpointing
/// and output replication.
workload::WorkloadModel smoke_sort() {
  workload::WorkloadModel m;
  m.name = "smoke";
  m.kind = workload::AppKind::kSort;
  m.num_maps = 24;
  m.fixed_reduces = 8;
  m.map_compute = sim::seconds(8);
  m.reduce_compute = sim::seconds(90);
  m.intermediate_per_map = mib(4.0);
  m.input_size = static_cast<Bytes>(m.num_maps) * mib(4.0);
  m.total_output = mib(96.0);
  m.input_block_bytes = mib(4.0);
  return m;
}

/// 64 nodes under a chaos spec, auditor sweeping every simulated minute.
ScenarioConfig chaos(const std::string& fault_spec,
                     const mapred::SchedulerConfig& sched, bool quarantine) {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 56;
  cfg.dedicated_nodes = 8;
  cfg.dfs = moon_dfs_config();
  cfg.app = smoke_sort();
  cfg.sched = sched;
  if (quarantine) cfg.sched.quarantine_threshold = 3;
  cfg.max_sim_time = 4 * sim::kHour;
  EXPECT_TRUE(apply_fault_spec(fault_spec, cfg.faults)) << fault_spec;
  cfg.faults.audit_interval = 60 * sim::kSecond;
  // Outage cadence scaled to the short job.
  cfg.faults.outages.mean_interval = 5 * sim::kMinute;
  cfg.faults.outages.mean_outage = 90 * sim::kSecond;
  return cfg;
}

/// Master crashes early and visibly inside a ~4-minute job.
void crash_masters(faults::FaultConfig& faults, bool namenode,
                   bool jobtracker) {
  faults.enabled = true;
  faults.master_crash.enabled = true;
  faults.master_crash.namenode = namenode;
  faults.master_crash.jobtracker = jobtracker;
  faults.master_crash.mean_interval = 2 * sim::kMinute;
  faults.master_crash.min_interval = 45 * sim::kSecond;
  faults.master_crash.mean_downtime = 60 * sim::kSecond;
  faults.master_crash.min_downtime = 20 * sim::kSecond;
  faults.master_crash.max_crashes = 2;
}

/// 28 nodes, one job, the chosen masters crashing mid-job.
ScenarioConfig failover(bool namenode, bool jobtracker) {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 24;
  cfg.dedicated_nodes = 4;
  cfg.dfs = moon_dfs_config();
  cfg.sched = moon_scheduler(true);
  cfg.app = smoke_sort();
  cfg.max_sim_time = 4 * sim::kHour;
  crash_masters(cfg.faults, namenode, jobtracker);
  return cfg;
}

/// Small sort for the job streams.
workload::WorkloadModel stream_sort(const std::string& name, int priority,
                                    int num_maps = 10) {
  workload::WorkloadModel m;
  m.name = name;
  m.kind = workload::AppKind::kSort;
  m.num_maps = num_maps;
  m.fixed_reduces = 2;
  m.map_compute = sim::seconds(25);
  m.reduce_compute = sim::seconds(30);
  m.intermediate_per_map = mib(1.0);
  m.input_size = static_cast<Bytes>(m.num_maps) * mib(2.0);
  m.total_output = mib(4.0);
  m.input_block_bytes = mib(2.0);
  m.priority = priority;
  m.deadline = 20 * sim::kMinute;
  return m;
}

/// Overloaded open stream on a small churning cluster: arrivals every 20 s
/// against a 3-live-job cap, heartbeat faults on, auditor sweeping, job GC.
MultiJobConfig steady(mapred::AdmissionConfig::Policy policy) {
  MultiJobConfig cfg;
  cfg.base.volatile_nodes = 8;
  cfg.base.dedicated_nodes = 2;
  cfg.base.sched = moon_scheduler(true);
  cfg.base.dfs = moon_dfs_config();
  cfg.base.input_factor = {1, 2};
  cfg.base.output_factor = {1, 2};
  cfg.base.max_sim_time = sim::kHour;
  cfg.base.sched.admission.enabled = true;
  cfg.base.sched.admission.policy = policy;
  cfg.base.sched.admission.max_queued_jobs = 3;
  cfg.base.faults.enabled = true;
  cfg.base.faults.heartbeats.enabled = true;
  cfg.base.faults.heartbeats.drop_probability = 0.05;
  cfg.base.faults.audit_interval = sim::kMinute;

  cfg.arrivals.num_jobs = 0;  // open-ended to the horizon
  cfg.arrivals.first_arrival = 30 * sim::kSecond;
  cfg.arrivals.mean_interarrival = 20 * sim::kSecond;
  cfg.arrivals.round_robin_mix = true;
  cfg.arrivals.mix = {{stream_sort("steady-lo", 0), 1.0},
                      {stream_sort("steady-hi", 2), 1.0}};
  cfg.retain_job_results = false;
  return cfg;
}

/// The steady stream with both masters crashing under it.
MultiJobConfig steady_failover() {
  MultiJobConfig cfg = steady(mapred::AdmissionConfig::Policy::kRejectNewest);
  crash_masters(cfg.base.faults, true, true);
  return cfg;
}

/// A stream that drives the NameNode's sweeps: 0.3 unavailability on 10
/// volatile nodes hibernates and kills some, the single dedicated node
/// saturates so declined writes raise v', and the auditor checks the sweep
/// indices (per-node kind split, adaptive-file index) every 10 s.
MultiJobConfig adaptive_stream() {
  MultiJobConfig cfg;
  cfg.base.volatile_nodes = 10;
  cfg.base.dedicated_nodes = 1;
  cfg.base.sched = moon_scheduler(true);
  cfg.base.dfs = moon_dfs_config();
  cfg.base.input_factor = {1, 2};
  cfg.base.output_factor = {1, 2};
  cfg.base.unavailability_rate = 0.3;
  cfg.base.max_sim_time = sim::kHour;
  cfg.base.faults.enabled = true;
  cfg.base.faults.audit_interval = 10 * sim::kSecond;
  cfg.base.sched.admission.enabled = true;
  cfg.base.sched.admission.max_queued_jobs = 4;
  cfg.arrivals.num_jobs = 0;
  cfg.arrivals.first_arrival = sim::kMinute;
  cfg.arrivals.mean_interarrival = 20 * sim::kSecond;
  cfg.arrivals.round_robin_mix = true;
  cfg.arrivals.mix = {{stream_sort("adaptive-lo", 0), 1.0},
                      {stream_sort("adaptive-hi", 2), 1.0}};
  cfg.retain_job_results = false;
  return cfg;
}

/// The adaptive stream with 2 dedicated nodes, the auditor sweeping every
/// simulated minute, and 8-map jobs without deadlines. It hibernates and
/// kills nodes and raises v', so a change to the NameNode's sweeps
/// (estimate-scan refresh, hibernation and death re-replication) that
/// reorders the replication queue moves its pins.
MultiJobConfig sweeps_stream() {
  MultiJobConfig cfg = adaptive_stream();
  cfg.base.dedicated_nodes = 2;
  cfg.base.faults.audit_interval = sim::kMinute;
  cfg.arrivals.mix = {{stream_sort("lo", 0, 8), 1.0},
                      {stream_sort("hi", 2, 8), 1.0}};
  for (workload::JobMix& entry : cfg.arrivals.mix) {
    entry.model.map_compute = sim::seconds(20);
    entry.model.deadline = 0;
  }
  return cfg;
}

/// The benchmark's serving stream (30 + 3 nodes, 6 h Poisson stream at ~3x
/// capacity, 8-live-job cap) with shedding instead of rejection. At seed
/// 28000 it once threw "NameNode: unknown block" from a DFS write probe that
/// outlived its own op.
MultiJobConfig serving_shed() {
  MultiJobConfig cfg;
  cfg.base.volatile_nodes = 30;
  cfg.base.dedicated_nodes = 3;
  cfg.base.sched = moon_scheduler(true);
  cfg.base.dfs = moon_dfs_config();
  cfg.base.input_factor = {1, 2};
  cfg.base.output_factor = {1, 2};
  cfg.base.max_sim_time = 6 * sim::kHour;
  cfg.base.sched.admission.enabled = true;
  cfg.base.sched.admission.policy =
      mapred::AdmissionConfig::Policy::kShedLowestPriority;
  cfg.base.sched.admission.max_queued_jobs = 8;
  cfg.arrivals.num_jobs = 0;
  cfg.arrivals.first_arrival = sim::kMinute;
  cfg.arrivals.mean_interarrival = 6 * sim::kSecond;
  cfg.arrivals.round_robin_mix = true;
  cfg.arrivals.mix = {{stream_sort("stream-lo", 0), 1.0},
                      {stream_sort("stream-hi", 2), 1.0}};
  for (workload::JobMix& entry : cfg.arrivals.mix) {
    workload::WorkloadModel& m = entry.model;
    m.num_maps = 12;
    m.fixed_reduces = 3;
    m.map_compute = sim::seconds(20);
    m.input_size = static_cast<Bytes>(m.num_maps) * mib(2.0);
    m.total_output = mib(8.0);
    m.deadline = 30 * sim::kMinute;
  }
  cfg.retain_job_results = false;
  return cfg;
}

struct Scenario {
  std::variant<ScenarioConfig, MultiJobConfig> config;
  unsigned checks;
};

std::map<std::string, Scenario> scenarios() {
  using Policy = mapred::AdmissionConfig::Policy;
  const unsigned chaos_checks = kAuditClean | kInjects;
  const unsigned failover_checks =
      kAuditClean | kJournalClean | kCompletes | kCrashes;
  const unsigned stream_checks =
      kAuditClean | kPushesBack | kBoundedMemory | kCollects;
  return {
      {"chaos all+ckpt",
       {chaos("all", moon_checkpoint_scheduler(false), true), chaos_checks}},
      {"chaos outages+heartbeats",
       {chaos("outages,heartbeats:0.1", moon_scheduler(true), false),
        chaos_checks}},
      {"chaos storage+stragglers",
       {chaos("storage:0.05,stragglers:0.2", moon_scheduler(false), false),
        chaos_checks}},
      {"chaos all+hadoop",
       {chaos("all", hadoop_scheduler(5 * sim::kMinute), true), chaos_checks}},
      {"failover namenode", {failover(true, false), failover_checks}},
      {"failover jobtracker", {failover(false, true), failover_checks}},
      {"failover both", {failover(true, true), failover_checks}},
      {"stream reject", {steady(Policy::kRejectNewest), stream_checks}},
      {"stream shed", {steady(Policy::kShedLowestPriority), stream_checks}},
      {"stream failover",
       {steady_failover(), stream_checks | kJournalClean | kCrashes}},
      {"stream adaptive",
       {adaptive_stream(), kAuditClean | kCollects | kAdapts}},
      {"stream sweeps",
       {sweeps_stream(), kAuditClean | kCollects | kAdapts | kKills}},
      {"serving shed",
       {serving_shed(), kPushesBack | kBoundedMemory | kCollects}},
  };
}

// ---- the table -------------------------------------------------------------

/// One row: a scenario at one seed, and the pin_hash of its fingerprint.
struct Row {
  const char* scenario;
  std::uint64_t seed;
  std::uint64_t pin;
};

std::string table_line(const char* scenario, std::uint64_t seed,
                       std::uint64_t pin) {
  std::ostringstream os;
  os << "{\"" << scenario << "\", " << seed << ", 0x" << std::hex
     << std::setw(16) << std::setfill('0') << pin << "},";
  return os.str();
}

void PrintTo(const Row& row, std::ostream* os) {
  *os << table_line(row.scenario, row.seed, row.pin);
}

constexpr Row kRows[] = {
    {"chaos all+ckpt", 20100621, 0xddc33e53d2636c10},
    {"chaos all+ckpt", 7, 0xa43935afd2652110},
    {"chaos outages+heartbeats", 20100621, 0x0e3b13af4740baea},
    {"chaos outages+heartbeats", 7, 0x3aab8375c63479a7},
    {"chaos storage+stragglers", 20100621, 0x45cc256d79052ba8},
    {"chaos storage+stragglers", 7, 0xb54d4d560a5b42a5},
    {"chaos all+hadoop", 20100621, 0x19c6c28cf6e9e76b},
    {"chaos all+hadoop", 7, 0x20f018676ccabe79},
    {"failover namenode", 20100621, 0xf829421d614d1a19},
    {"failover namenode", 7, 0x692021cf3b28ef20},
    {"failover jobtracker", 20100621, 0x44b7666877635ad5},
    {"failover jobtracker", 7, 0xf1752b5f66638f9b},
    {"failover both", 20100621, 0xdb1e71b776f5925d},
    {"failover both", 7, 0x3b48be8e9775cc0b},
    {"stream reject", 20100621, 0x29b8a44251db81cd},
    {"stream reject", 7, 0x99a221fe0933347e},
    {"stream shed", 20100621, 0xddebe9609ad5bc26},
    {"stream shed", 7, 0x6e4f2fdd1f18b5a1},
    {"stream failover", 20100621, 0x406eaa0f4bac21c7},
    {"stream failover", 7, 0xdfc95ee5cd853b73},
    {"stream adaptive", 20100621, 0x91cf90cd8216408e},
    {"stream adaptive", 7, 0x0d11e7b0453d12d4},
    {"stream sweeps", 3, 0xac390831aef5db94},
    {"stream sweeps", 7, 0x298fa31439e867e0},
    {"serving shed", 28000, 0x39bc633b461dfc79},
};

class PinnedRuns : public testing::TestWithParam<Row> {};

TEST_P(PinnedRuns, ReplaysToItsPinAndPassesItsChecks) {
  const Row& row = GetParam();
  const Scenario scenario = scenarios().at(row.scenario);
  const auto run_once = [&] {
    return std::visit(
        [&](const auto& cfg) { return run(cfg, row.seed, scenario.checks); },
        scenario.config);
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  const std::uint64_t hash = pin_hash(first);
  EXPECT_EQ(hash, row.pin) << "new table line: "
                           << table_line(row.scenario, row.seed, hash);
}

std::string row_name(const testing::TestParamInfo<Row>& info) {
  std::string name =
      std::string(info.param.scenario) + "_" + std::to_string(info.param.seed);
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Table, PinnedRuns, testing::ValuesIn(kRows),
                         row_name);

}  // namespace
}  // namespace moon::experiment
