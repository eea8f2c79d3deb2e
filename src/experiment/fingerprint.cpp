// Result fingerprints for the determinism checks (DESIGN.md §2): every
// simulated field, '|'-separated, doubles in hexfloat so equal strings mean
// bit-equal values. Host-time fields (profile, obs) never appear.
#include <ostream>
#include <sstream>
#include <string>

#include "experiment/multi_job.hpp"
#include "experiment/scenario.hpp"

namespace moon::experiment {
namespace {

void put(std::ostream& os, const Accumulator& a) {
  os << a.count() << '|' << a.sum() << '|';
}

void put(std::ostream& os, const JobRun& r) {
  const mapred::JobMetrics& m = r.metrics;
  os << r.finished << '|' << r.execution_time_s << '|' << r.num_maps << '|'
     << r.num_reduces << '|' << r.completed_maps << '|' << r.completed_reduces
     << '|' << r.outputs_committed << '|' << m.completed << '|' << m.failed
     << '|' << mapred::to_string(m.failure_reason) << '|' << m.submitted_at
     << '|' << m.finished_at << '|' << m.deadline_at << '|'
     << m.first_launch_at << '|' << m.peak_running_attempts << '|'
     << m.launched_map_attempts << '|' << m.launched_reduce_attempts << '|'
     << m.speculative_attempts << '|' << m.killed_map_attempts << '|'
     << m.killed_reduce_attempts << '|' << m.failed_map_attempts << '|'
     << m.failed_reduce_attempts << '|' << m.map_reexecutions << '|'
     << m.fetch_failures << '|' << m.checkpoints_written << '|'
     << m.checkpoint_bytes << '|' << m.checkpoint_resumes << '|'
     << m.checkpoint_progress_salvaged << '|';
  put(os, m.map_time_s);
  put(os, m.shuffle_time_s);
  put(os, m.reduce_time_s);
}

void put(std::ostream& os, const RunCounters& c) {
  const dfs::DfsStats& d = c.dfs_stats;
  os << d.bytes_written << '|' << d.bytes_read << '|' << d.replication_bytes
     << '|' << d.dedicated_writes_declined << '|' << d.re_replications << '|'
     << d.hibernate_transitions << '|' << d.dead_transitions << '|'
     << d.read_failures << '|' << d.adaptive_v_raises << '|'
     << d.writes_rejected << '|' << d.corruptions_detected << '|'
     << d.block_reports << '|' << d.removals_deferred << '|' << d.ops_parked
     << '|' << d.master_retries << '|' << d.heartbeats_skipped << '|'
     << c.replication_queue_depth << '|';
  const faults::FaultStats& f = c.fault_stats;
  os << f.outages_injected << '|' << f.heartbeats_dropped << '|'
     << f.heartbeats_delayed << '|' << f.replicas_corrupted << '|'
     << f.writes_rejected << '|' << f.corruptions_detected << '|'
     << f.stragglers_injected << '|' << f.namenode_crashes << '|'
     << f.jobtracker_crashes << '|' << f.master_recoveries << '|'
     << f.master_downtime << '|' << c.quarantines << '|' << c.audit_passes
     << '|' << c.audit_violations << '|' << c.journal_records << '|'
     << c.journal_snapshots << '|' << c.journal_divergences << '|'
     << c.heartbeats_missed << '|' << c.reports_parked << '|'
     << c.reports_replayed << '|' << c.reregistrations << '|'
     << c.orphans_killed;
}

}  // namespace

std::string fingerprint(const RunResult& result) {
  std::ostringstream os;
  os << std::hexfloat;
  put(os, static_cast<const JobRun&>(result));
  put(os, static_cast<const RunCounters&>(result));
  return os.str();
}

std::string fingerprint(const MultiJobResult& r) {
  std::ostringstream os;
  os << std::hexfloat << r.submitted_jobs << '|' << r.completed_jobs << '|'
     << r.aborted_jobs << '|' << r.shed_jobs << '|' << r.dnf_jobs << '|'
     << r.rejected_jobs << '|' << r.sla_eligible_jobs << '|'
     << r.sla_missed_jobs << '|' << r.makespan_s << '|' << r.mean_latency_s
     << '|' << r.p95_latency_s << '|' << r.p99_latency_s << '|'
     << r.jain_fairness << '|' << r.peak_retained_bytes << '|'
     << r.final_retained_bytes << '|' << r.peak_live_jobs << '|'
     << r.jobs_retired << '|' << r.admission.offered << '|'
     << r.admission.admitted << '|' << r.admission.rejected << '|'
     << r.admission.deferred << '|' << r.admission.defer_rounds << '|'
     << r.admission.shed << '|' << r.admission_sequence_hash << '|';
  for (const JobOutcome& job : r.jobs) {
    os << job.name << '#' << job.index << '|' << job.submitted_at << '|'
       << job.latency_s << '|' << job.queue_wait_s << '|';
    put(os, job.run);
  }
  put(os, static_cast<const RunCounters&>(r));
  return os.str();
}

}  // namespace moon::experiment
