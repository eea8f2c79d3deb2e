// Shared scenario environment: the trace -> cluster -> DFS -> JobTracker
// wiring the stream runner (run_multi_job_scenario, and through it
// run_scenario) sits on, plus the end-of-run counter collection.
#pragma once

#include <memory>
#include <vector>

#include "audit/auditor.hpp"
#include "cluster/availability_driver.hpp"
#include "cluster/cluster.hpp"
#include "dfs/dfs.hpp"
#include "faults/fault_injector.hpp"
#include "mapred/jobtracker.hpp"
#include "obs/observability.hpp"
#include "recovery/master_journal.hpp"
#include "simkit/periodic.hpp"
#include "simkit/simulation.hpp"

namespace moon::experiment {

struct ScenarioConfig;
struct RunCounters;

/// Builds and starts the full stack for one scenario run: nodes typed per
/// `dedicated_known`, availability traces installed on the volatile fleet,
/// DFS and JobTracker (all trackers registered) running. Workload staging
/// and job submission stay with the caller.
class Environment {
 public:
  explicit Environment(const ScenarioConfig& config);

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  // Types are moon::-qualified where a member name shadows its namespace.
  moon::sim::Simulation sim;
  moon::cluster::Cluster cluster;
  std::vector<NodeId> volatile_ids;
  // Heap-held: each needs the cluster fully populated before construction.
  std::unique_ptr<moon::cluster::AvailabilityDriver> driver;
  std::unique_ptr<moon::dfs::Dfs> dfs;
  std::unique_ptr<moon::mapred::JobTracker> jobtracker;
  /// Fault injector (null when config.faults is off). Armed on the volatile
  /// fleet before the run starts; its destructor clears sim's pointer.
  std::unique_ptr<moon::faults::FaultInjector> injector;
  /// Master journals (null unless faults.master_crash is on): installed on
  /// the NameNode/JobTracker before any workload is staged, so recovery
  /// replay covers the full namespace/job history (DESIGN.md §14).
  std::unique_ptr<moon::recovery::NameNodeJournal> nn_journal;
  std::unique_ptr<moon::recovery::JobTrackerJournal> jt_journal;
  /// Invariant auditor + its periodic sweep. Built when
  /// config.faults.audit_interval > 0 *or* master_crash is on (every master
  /// recovery ends in a mandatory sweep); the periodic task only for the
  /// former. Read-only — never perturbs the run.
  std::unique_ptr<moon::audit::Auditor> auditor;
  std::unique_ptr<moon::sim::PeriodicTask> audit_task;
  /// Observability bundle (null when config.obs is all-off). shared_ptr:
  /// the harness finalizes it before teardown and hands it to the result,
  /// which outlives this environment. Gauges hold pointers into the members
  /// above, so finalize() must run before the environment dies (the
  /// destructor order here is a backstop: obs tears down first).
  std::shared_ptr<moon::obs::Observability> obs;
};

/// End of run: fills `out` with the cluster-wide counters (DFS, profile,
/// faults, quarantines, journals, JobTracker recovery, audit), running the
/// auditor's final sweep first, and finalizes the observability bundle into
/// `out.obs` — after this the environment may be torn down.
void collect_counters(Environment& env, RunCounters& out);

}  // namespace moon::experiment
