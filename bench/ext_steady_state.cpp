// Extension: steady-state serving under admission control (DESIGN.md §16;
// not in the paper — MOON studies one job at a time, and its future-work
// section asks what sustained multi-job service on opportunistic resources
// looks like).
//
// An open-ended Poisson job stream lands on a small opportunistic cluster
// across load (overload vs sustainable interarrival), unavailability rate,
// and fault regime. Retired-job GC is on (retain_job_results = false), so
// every cell runs with O(1) retained memory per finished job. Three
// admission variants face the same stream:
//   none    — every arrival is submitted; the backlog (and the retained
//             job state) grows without bound under overload,
//   reject  — kRejectNewest refuses arrivals over the live-job cap,
//   shed    — kShedLowestPriority evicts the newest lowest-priority job
//             for a higher-priority arrival (the mix alternates priority).
// Reported per cell: sustainable throughput (completed jobs/hour), p99
// latency, SLA miss rate, reject/shed counts, peak live jobs, and peak
// retained bytes. Every cell runs TWICE; the admission sequence hash and
// the aggregate fingerprint must match bit for bit (determinism contract,
// §2) or the bench exits non-zero.
//
// A second sweep gives every arrival a deadline (urgent small jobs, lax
// large jobs) and compares kFifo vs kDeadlineEdf on SLA miss rate: EDF
// must not lose (it serves the soonest deadline first where FIFO serves
// arrival order).
//
//   ./bench_ext_steady_state [--faults=SPEC]   (~a minute)
//
// `--faults=SPEC` replaces the built-in chaos spec of the faulted cells.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "experiment/flags.hpp"
#include "experiment/multi_job.hpp"
#include "mapred/job_policy.hpp"

using namespace moon;

namespace {

workload::WorkloadModel steady_job(const std::string& name, int priority) {
  workload::WorkloadModel m;
  m.name = name;
  m.kind = workload::AppKind::kSort;
  m.num_maps = 12;
  m.fixed_reduces = 3;
  m.reduce_slot_fraction = 0.0;
  m.map_compute = sim::seconds(20);
  m.reduce_compute = sim::seconds(30);
  m.intermediate_per_map = mib(1.0);
  m.input_size = static_cast<Bytes>(m.num_maps) * mib(2.0);
  m.total_output = mib(8.0);
  m.input_block_bytes = mib(2.0);
  m.priority = priority;
  return m;
}

struct AdmissionVariant {
  std::string name;
  bool enabled = false;
  mapred::AdmissionConfig::Policy policy =
      mapred::AdmissionConfig::Policy::kRejectNewest;
};

experiment::MultiJobConfig steady_config(double rate,
                                         sim::Duration interarrival,
                                         const std::string& fault_spec,
                                         const AdmissionVariant& admission) {
  experiment::MultiJobConfig cfg;
  cfg.base.volatile_nodes = 12;
  cfg.base.dedicated_nodes = 2;
  cfg.base.dedicated_known = true;
  cfg.base.sched = experiment::moon_scheduler(true);
  cfg.base.dfs = experiment::moon_dfs_config();
  cfg.base.intermediate_kind = dfs::FileKind::kOpportunistic;
  cfg.base.intermediate_factor = {1, 1};
  cfg.base.input_factor = {1, 2};
  cfg.base.output_factor = {1, 2};
  cfg.base.unavailability_rate = rate;
  cfg.base.seed = 20100621;
  cfg.base.max_sim_time = 3 * sim::kHour;
  cfg.base.sched.admission.enabled = admission.enabled;
  cfg.base.sched.admission.policy = admission.policy;
  cfg.base.sched.admission.max_queued_jobs = 4;
  if (!fault_spec.empty()) {
    if (!experiment::apply_fault_spec(fault_spec, cfg.base.faults)) {
      std::exit(2);
    }
    cfg.base.faults.audit_interval = 5 * sim::kMinute;
    cfg.base.faults.outages.mean_interval = 10 * sim::kMinute;
    cfg.base.faults.outages.mean_outage = 2 * sim::kMinute;
  }

  // Open-ended Poisson stream to the scenario horizon; priorities alternate
  // so the shed variant has a victim ladder. O(1)-memory serving mode.
  cfg.arrivals.process = workload::ArrivalConfig::Process::kPoisson;
  cfg.arrivals.num_jobs = 0;
  cfg.arrivals.first_arrival = sim::kMinute;
  cfg.arrivals.mean_interarrival = interarrival;
  cfg.arrivals.round_robin_mix = true;
  // A 30-minute SLA on every job: generous for an admitted job on an idle
  // cluster, blown once the backlog's queueing delay dominates (and charged
  // to every rejected/shed arrival — refusing work is also an SLA miss).
  auto lo = steady_job("steady-lo", 0);
  auto hi = steady_job("steady-hi", 2);
  lo.deadline = 30 * sim::kMinute;
  hi.deadline = 30 * sim::kMinute;
  cfg.arrivals.mix = {{lo, 1.0}, {hi, 1.0}};
  cfg.retain_job_results = false;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const experiment::ScenarioFlags flags =
      experiment::parse_scenario_flags(argc, argv);
  const std::string chaos_spec =
      flags.faults.empty() ? "outages,heartbeats:0.05" : flags.faults;

  const std::vector<double> rates{0.3, 0.5};
  // The cluster clears ~80 of these small jobs/hour: 15 s interarrivals
  // (~240/h) are a 3x overload whose backlog grows all run long, 6 min
  // (~10/h) a comfortable steady state.
  const std::vector<std::pair<std::string, sim::Duration>> loads{
      {"overload", 15 * sim::kSecond}, {"sustainable", 6 * sim::kMinute}};
  const std::vector<std::pair<std::string, std::string>> fault_modes{
      {"none", ""}, {"chaos", chaos_spec}};
  const std::vector<AdmissionVariant> variants{
      {"none", false},
      {"reject", true, mapred::AdmissionConfig::Policy::kRejectNewest},
      {"shed", true, mapred::AdmissionConfig::Policy::kShedLowestPriority},
  };

  std::cout << "=== Extension: steady-state serving — admission control on an "
               "open job stream ===\n"
            << "(12 volatile + 2 dedicated, MOON-Hybrid, Poisson arrivals to a "
               "6 h horizon,\n"
            << " retired-job GC on, cap 4 live jobs, every cell run twice for "
               "determinism)\n\n";

  Table table("Open stream: load x rate x faults x admission");
  table.columns({"load", "rate", "faults", "admission", "jobs/h", "p99 (s)",
                 "SLA miss", "rej", "shed", "peak live", "peak KiB"});
  bench::JsonEmitter json("steady");
  int failures = 0;
  bool bounded_ok = true;
  for (const auto& [load_name, interarrival] : loads) {
    for (double rate : rates) {
      for (const auto& [fault_name, fault_spec] : fault_modes) {
        int baseline_peak_live = 0;
        for (const AdmissionVariant& variant : variants) {
          const auto cfg =
              steady_config(rate, interarrival, fault_spec, variant);
          const auto first = experiment::run_multi_job_scenario(cfg);
          const auto second = experiment::run_multi_job_scenario(cfg);
          const std::string fp1 = experiment::fingerprint(first);
          if (fp1 != experiment::fingerprint(second)) {
            std::cerr << "NONDETERMINISTIC: " << load_name << " rate=" << rate
                      << " faults=" << fault_name
                      << " admission=" << variant.name << "\n  run1: " << fp1
                      << "\n  run2: " << experiment::fingerprint(second)
                      << "\n";
            ++failures;
          }
          if (first.audit_violations != 0) {
            std::cerr << "AUDIT VIOLATIONS: " << load_name << " rate=" << rate
                      << " admission=" << variant.name << "\n";
            ++failures;
          }

          const double horizon_h =
              sim::to_seconds(cfg.base.max_sim_time) / 3600.0;
          const double jobs_per_hour = first.completed_jobs / horizon_h;
          if (!variant.enabled) {
            baseline_peak_live = first.peak_live_jobs;
          } else {
            // The tentpole claim: admission keeps the backlog at the cap
            // where the baseline's grows with the overload.
            if (first.peak_live_jobs >
                cfg.base.sched.admission.max_queued_jobs) {
              bounded_ok = false;
            }
            if (load_name == "overload" &&
                first.peak_live_jobs >= baseline_peak_live &&
                baseline_peak_live >
                    cfg.base.sched.admission.max_queued_jobs) {
              bounded_ok = false;
            }
          }

          table.add_row(
              {load_name, Table::num(rate, 1), fault_name, variant.name,
               Table::num(jobs_per_hour, 1), Table::num(first.p99_latency_s, 0),
               Table::num(first.sla_miss_rate(), 3),
               Table::num(std::int64_t{first.rejected_jobs}),
               Table::num(std::int64_t{first.admission.shed}),
               Table::num(std::int64_t{first.peak_live_jobs}),
               Table::num(
                   static_cast<std::int64_t>(first.peak_retained_bytes / 1024))});
          json.begin_row()
              .field("bench", std::string("ext_steady_state"))
              .field("sweep", std::string("admission"))
              .field("load", load_name)
              .field("rate", rate)
              .field("faults", fault_name)
              .field("admission", variant.name)
              .field("jobs_per_hour", jobs_per_hour)
              .field("p99_latency_s", first.p99_latency_s)
              .field("sla_miss_rate", first.sla_miss_rate())
              .field("completed_jobs", std::int64_t{first.completed_jobs})
              .field("rejected_jobs", std::int64_t{first.rejected_jobs})
              .field("shed_jobs", std::int64_t{first.shed_jobs})
              .field("dnf_jobs", std::int64_t{first.dnf_jobs})
              .field("peak_live_jobs", std::int64_t{first.peak_live_jobs})
              .field("peak_retained_bytes",
                     static_cast<std::int64_t>(first.peak_retained_bytes))
              .field("jobs_retired", first.jobs_retired)
              .field("faults_injected", first.fault_stats.total_injected())
              .field("sequence_hash",
                     static_cast<std::int64_t>(first.admission_sequence_hash));
        }
      }
    }
  }
  table.print(std::cout);

  // --- Deadline sweep: kFifo vs kDeadlineEdf on SLA miss rate -------------
  // Urgent small jobs (tight deadline) interleave with lax large jobs; EDF
  // serves the soonest deadline first where FIFO serves arrival order.
  std::cout << "\n";
  Table edf_table("Deadline stream: FIFO vs deadline-EDF");
  edf_table.columns(
      {"rate", "policy", "SLA miss", "eligible", "missed", "p99 (s)"});
  bool edf_ok = true;
  for (double rate : rates) {
    double fifo_miss = 0.0;
    for (auto policy : {mapred::SchedulerConfig::JobPolicy::kFifo,
                        mapred::SchedulerConfig::JobPolicy::kDeadlineEdf}) {
      AdmissionVariant reject{"reject", true,
                              mapred::AdmissionConfig::Policy::kRejectNewest};
      auto cfg = steady_config(rate, 45 * sim::kSecond, "", reject);
      cfg.base.sched.job_policy = policy;
      cfg.base.sched.admission.max_queued_jobs = 8;
      // Urgent small jobs behind heavy lax ones: FIFO serves arrival order,
      // so an urgent job queued behind a few 48-map jobs blows its 10 min
      // deadline; EDF runs it first (the lax deadline is hours away).
      auto urgent = steady_job("urgent", 0);
      urgent.num_maps = 6;
      urgent.fixed_reduces = 2;
      urgent.deadline = 10 * sim::kMinute;
      auto lax = steady_job("lax", 0);
      lax.num_maps = 48;
      lax.map_compute = sim::seconds(40);
      lax.input_size = static_cast<Bytes>(lax.num_maps) * mib(2.0);
      lax.deadline = 4 * sim::kHour;
      cfg.arrivals.mix = {{urgent, 1.0}, {lax, 1.0}};

      const auto result = experiment::run_multi_job_scenario(cfg);
      const double miss = result.sla_miss_rate();
      if (policy == mapred::SchedulerConfig::JobPolicy::kFifo) {
        fifo_miss = miss;
      } else if (miss > fifo_miss) {
        edf_ok = false;
      }
      const std::string name = mapred::to_string(policy);
      edf_table.add_row({Table::num(rate, 1), name, Table::num(miss, 3),
                         Table::num(std::int64_t{result.sla_eligible_jobs}),
                         Table::num(std::int64_t{result.sla_missed_jobs}),
                         Table::num(result.p99_latency_s, 0)});
      json.begin_row()
          .field("bench", std::string("ext_steady_state"))
          .field("sweep", std::string("deadline"))
          .field("rate", rate)
          .field("policy", std::string(name))
          .field("sla_miss_rate", miss)
          .field("sla_eligible_jobs", std::int64_t{result.sla_eligible_jobs})
          .field("sla_missed_jobs", std::int64_t{result.sla_missed_jobs})
          .field("p99_latency_s", result.p99_latency_s);
    }
  }
  edf_table.print(std::cout);

  const std::string path = json.write();
  if (!path.empty()) std::cout << "\n(json: " << path << ")\n";
  std::cout << "\n(expected shape: without admission the overload cells' peak\n"
               "live jobs grow far past the cap while reject/shed hold it at\n"
               "the cap with bounded retained bytes; deadline-EDF's SLA miss\n"
               "rate never exceeds FIFO's.)\n";
  if (!bounded_ok) {
    std::cerr << "\nWARNING: admission did not bound the backlog below the "
                 "no-admission baseline.\n";
  }
  if (!edf_ok) {
    std::cerr << "\nWARNING: deadline-EDF missed more SLAs than FIFO.\n";
  }
  if (failures != 0 || !bounded_ok || !edf_ok) return 1;
  return 0;
}
