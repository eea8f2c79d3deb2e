// CI determinism gate (DESIGN.md §2, §13, §14, §16): one table of scenario
// x seed rows — chaos (every fault class, auditor sweeping), master
// failover, and steady-state job streams (admission control, job GC, master
// crashes) — each run TWICE. The two runs must print the same
// experiment::fingerprint, and every check the row names must hold on both:
//
//   AUDIT-VIOLATIONS      the invariant auditor found a violation
//   JOURNAL-DIVERGENCE    a master's journal replay differed from live state
//   DNF                   the single job did not complete in the horizon
//   VACUOUS               nothing was injected / no master crashed / no
//                         arrival was rejected or shed / no node hibernated
//                         or no v' was raised (the row tested nothing)
//   RETAINED-OVER-CEILING retained job state grew past 1 MiB (job GC failed)
//   NO-GC                 no job was retired (GC mode not exercised)
//
// A run that throws is a failure too. Any failure is a non-zero exit.
//
//   ./bench_determinism_gate      (~10 s in a Release build)
#include <cstdint>
#include <exception>
#include <iomanip>
#include <iostream>
#include <string>
#include <variant>
#include <vector>

#include "bench_util.hpp"
#include "experiment/fault_cli.hpp"
#include "experiment/multi_job.hpp"

using namespace moon;
using experiment::MultiJobConfig;
using experiment::ScenarioConfig;

namespace {

// ---- the checks ------------------------------------------------------------

enum Check : unsigned {
  kAuditClean = 1u << 0,
  kJournalClean = 1u << 1,
  kCompletes = 1u << 2,
  kInjects = 1u << 3,
  kCrashes = 1u << 4,
  kPushesBack = 1u << 5,
  kBoundedMemory = 1u << 6,
  kCollects = 1u << 7,
  kAdapts = 1u << 8,
};

/// Retained state may hold the live-job window plus any DNF jobs pinned at
/// the horizon — far under 1 MiB for these small jobs. An unbounded-retention
/// regression (GC not firing) blows through it immediately: a stream's
/// hundreds of arrivals would retain tens of MiB.
constexpr std::size_t kRetainedCeiling = 1 << 20;

/// What one run decided, in the terms the checks read.
struct Outcome {
  std::string fingerprint;
  experiment::RunCounters counters;
  bool stream = false;
  bool completed = false;  ///< the single job completed (not set for streams)
  int pushed_back = 0;     ///< arrivals rejected or shed
  std::size_t peak_retained_bytes = 0;
  std::int64_t jobs_retired = 0;
  std::string error;  ///< what the run threw, if it threw
};

struct CheckSpec {
  Check check;
  const char* failure;
  bool (*failed)(const Outcome&);
};

constexpr CheckSpec kChecks[] = {
    {kAuditClean, "AUDIT-VIOLATIONS",
     [](const Outcome& o) { return o.counters.audit_violations != 0; }},
    {kJournalClean, "JOURNAL-DIVERGENCE",
     [](const Outcome& o) { return o.counters.journal_divergences != 0; }},
    {kCompletes, "DNF", [](const Outcome& o) { return !o.completed; }},
    {kInjects, "VACUOUS",
     [](const Outcome& o) {
       return o.counters.fault_stats.total_injected() == 0;
     }},
    {kCrashes, "VACUOUS",
     [](const Outcome& o) {
       return o.counters.fault_stats.namenode_crashes +
                  o.counters.fault_stats.jobtracker_crashes ==
              0;
     }},
    {kPushesBack, "VACUOUS", [](const Outcome& o) { return o.pushed_back == 0; }},
    {kBoundedMemory, "RETAINED-OVER-CEILING",
     [](const Outcome& o) { return o.peak_retained_bytes > kRetainedCeiling; }},
    {kCollects, "NO-GC", [](const Outcome& o) { return o.jobs_retired == 0; }},
    {kAdapts, "VACUOUS",
     [](const Outcome& o) {
       return o.counters.dfs_stats.hibernate_transitions == 0 ||
              o.counters.dfs_stats.adaptive_v_raises == 0;
     }},
};

Outcome run(const ScenarioConfig& cfg) {
  const experiment::RunResult r = experiment::run_scenario(cfg);
  Outcome o;
  o.fingerprint = experiment::fingerprint(r);
  o.counters = r;
  o.completed = r.finished;
  return o;
}

Outcome run(const MultiJobConfig& cfg) {
  const experiment::MultiJobResult r = experiment::run_multi_job_scenario(cfg);
  Outcome o;
  o.fingerprint = experiment::fingerprint(r);
  o.counters = r;
  o.stream = true;
  o.pushed_back = r.rejected_jobs + r.shed_jobs;
  o.peak_retained_bytes = r.peak_retained_bytes;
  o.jobs_retired = r.jobs_retired;
  return o;
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
  cfg.dfs = experiment::moon_dfs_config();
  cfg.app = smoke_sort();
  cfg.sched = sched;
  if (quarantine) cfg.sched.quarantine_threshold = 3;
  cfg.max_sim_time = 4 * sim::kHour;
  if (!experiment::apply_fault_spec(fault_spec, cfg.faults)) std::exit(2);
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
  cfg.dfs = experiment::moon_dfs_config();
  cfg.sched = experiment::moon_scheduler(true);
  cfg.app = smoke_sort();
  cfg.max_sim_time = 4 * sim::kHour;
  crash_masters(cfg.faults, namenode, jobtracker);
  return cfg;
}

/// Small sort for the job streams.
workload::WorkloadModel stream_sort(const std::string& name, int priority) {
  workload::WorkloadModel m;
  m.name = name;
  m.kind = workload::AppKind::kSort;
  m.num_maps = 10;
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
  cfg.base.sched = experiment::moon_scheduler(true);
  cfg.base.dfs = experiment::moon_dfs_config();
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
  cfg.base.sched = experiment::moon_scheduler(true);
  cfg.base.dfs = experiment::moon_dfs_config();
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

/// The benchmark's serving stream (30 + 3 nodes, 6 h Poisson stream at ~3x
/// capacity, 8-live-job cap) with shedding instead of rejection. At seed
/// 28000 it once threw "NameNode: unknown block" from a DFS write probe that
/// outlived its own op.
MultiJobConfig serving_shed() {
  MultiJobConfig cfg;
  cfg.base.volatile_nodes = 30;
  cfg.base.dedicated_nodes = 3;
  cfg.base.sched = experiment::moon_scheduler(true);
  cfg.base.dfs = experiment::moon_dfs_config();
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

struct Row {
  std::string name;
  std::uint64_t seed;
  std::variant<ScenarioConfig, MultiJobConfig> config;
  unsigned checks;
};

std::vector<Row> rows() {
  using Policy = mapred::AdmissionConfig::Policy;
  const std::vector<std::uint64_t> seeds{20100621u, 7u};
  const unsigned chaos_checks = kAuditClean | kInjects;
  const unsigned failover_checks =
      kAuditClean | kJournalClean | kCompletes | kCrashes;
  const unsigned stream_checks =
      kAuditClean | kPushesBack | kBoundedMemory | kCollects;
  // Each scenario runs at both seeds.
  const Row scenarios[] = {
      {"chaos all+ckpt", 0,
       chaos("all", experiment::moon_checkpoint_scheduler(false), true),
       chaos_checks},
      {"chaos outages+heartbeats", 0,
       chaos("outages,heartbeats:0.1", experiment::moon_scheduler(true), false),
       chaos_checks},
      {"chaos storage+stragglers", 0,
       chaos("storage:0.05,stragglers:0.2", experiment::moon_scheduler(false),
             false),
       chaos_checks},
      {"chaos all+hadoop", 0,
       chaos("all", experiment::hadoop_scheduler(5 * sim::kMinute), true),
       chaos_checks},
      {"failover namenode", 0, failover(true, false), failover_checks},
      {"failover jobtracker", 0, failover(false, true), failover_checks},
      {"failover both", 0, failover(true, true), failover_checks},
      {"stream reject", 0, steady(Policy::kRejectNewest), stream_checks},
      {"stream shed", 0, steady(Policy::kShedLowestPriority), stream_checks},
      {"stream failover", 0, steady_failover(),
       stream_checks | kJournalClean | kCrashes},
      {"stream adaptive", 0, adaptive_stream(),
       kAuditClean | kCollects | kAdapts},
  };
  std::vector<Row> out;
  for (const Row& scenario : scenarios) {
    for (std::uint64_t seed : seeds) {
      out.push_back(scenario);
      out.back().seed = seed;
    }
  }
  out.push_back({"serving shed", 28000u, serving_shed(),
                 kPushesBack | kBoundedMemory | kCollects});
  return out;
}

ScenarioConfig& base_of(ScenarioConfig& cfg) { return cfg; }
ScenarioConfig& base_of(MultiJobConfig& cfg) { return cfg.base; }

Outcome run_row(const Row& row) {
  try {
    return std::visit(
        [&](auto cfg) {
          base_of(cfg).seed = row.seed;
          return run(cfg);
        },
        row.config);
  } catch (const std::exception& e) {
    Outcome o;
    o.error = e.what();
    return o;
  }
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

int main() {
  std::cout << "=== Determinism gate: every row run twice ===\n";
  int failures = 0;
  for (const Row& row : rows()) {
    const Outcome first = run_row(row);
    const Outcome second = run_row(row);
    std::string verdict;
    const auto fail = [&](const std::string& what) {
      if (verdict.find(what) == std::string::npos) verdict += " " + what;
      ++failures;
    };
    if (!first.error.empty() || !second.error.empty()) {
      fail("THREW(" + (first.error.empty() ? second.error : first.error) + ")");
    } else {
      if (first.fingerprint != second.fingerprint) {
        fail("NONDETERMINISTIC");
        std::cerr << "  run1: " << first.fingerprint
                  << "\n  run2: " << second.fingerprint << "\n";
      }
      for (const CheckSpec& check : kChecks) {
        if ((row.checks & check.check) != 0 &&
            (check.failed(first) || check.failed(second))) {
          fail(check.failure);
        }
      }
    }
    const faults::FaultStats& fs = first.counters.fault_stats;
    std::cout << "  " << row.name << " seed=" << row.seed << ":"
              << (verdict.empty() ? " ok" : verdict) << " (fingerprint "
              << std::hex << std::setw(16) << std::setfill('0')
              << fnv1a(first.fingerprint) << std::dec << std::setfill(' ')
              << ", injected=" << fs.total_injected()
              << ", crashes=" << fs.namenode_crashes + fs.jobtracker_crashes
              << ", audits=" << first.counters.audit_passes;
    if (first.stream) {
      std::cout << ", rejected+shed=" << first.pushed_back
                << ", retired=" << first.jobs_retired
                << ", peak_retained=" << first.peak_retained_bytes / 1024
                << " KiB";
    } else {
      std::cout << ", completed=" << first.completed;
    }
    std::cout << ")\n";
  }
  if (failures != 0) {
    std::cerr << "FAIL: " << failures << " determinism gate failures\n";
    return 1;
  }
  std::cout << "determinism gate: every row deterministic and passing its "
               "checks\n";
  return 0;
}
