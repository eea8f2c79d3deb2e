// Concurrent MapReduce jobs on one opportunistic cluster — the paper's
// closing future-work item ("it would be interesting future work to study
// the scheduling and QoS issues of concurrent MapReduce jobs on
// opportunistic environments"). A mixed arrival stream (shuffle-heavy
// mini-sort + compute-heavy mini-wordcount) shares 16 volatile + 2
// dedicated nodes under MOON-Hybrid data management, once per multi-job
// policy: FIFO serves jobs in submission order (early big jobs starve later
// small ones), fair-share interleaves by slot deficit, SRTF lets the
// smallest job jump the queue.
// Observability: `--trace=FILE` / `--metrics=FILE` / `--events=FILE` export
// the FIFO stream's trace (one Perfetto process per job), gauge CSV, and
// structured event log.
// Steady-state serving (DESIGN.md §16): `--admission=POLICY[:MAX_QUEUED]`
// gates arrivals through the AdmissionController, and `--deadline=SECONDS`
// attaches an SLA deadline to every job (adding a deadline-EDF policy pass).
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "experiment/flags.hpp"
#include "experiment/multi_job.hpp"
#include "mapred/job_policy.hpp"

using namespace moon;

namespace {

workload::WorkloadModel mini_sort() {
  auto m = workload::sort_workload();
  m.name = "mini-sort";
  m.num_maps = 48;
  m.fixed_reduces = 8;
  m.reduce_slot_fraction = 0.0;
  m.map_compute = sim::seconds(20);
  m.reduce_compute = sim::seconds(45);
  m.input_block_bytes = mib(16.0);
  m.intermediate_per_map = mib(16.0);
  m.total_output = static_cast<Bytes>(48) * mib(16.0);
  return m;
}

workload::WorkloadModel mini_wc() {
  auto m = workload::wordcount_workload();
  m.name = "mini-wc";
  m.num_maps = 8;
  m.fixed_reduces = 2;
  m.map_compute = sim::seconds(30);
  m.reduce_compute = sim::seconds(10);
  m.input_block_bytes = mib(16.0);
  m.input_size = static_cast<Bytes>(8) * mib(16.0);
  return m;
}

experiment::MultiJobConfig config(mapred::SchedulerConfig::JobPolicy policy) {
  experiment::MultiJobConfig cfg;
  cfg.base.volatile_nodes = 8;
  cfg.base.dedicated_nodes = 2;
  cfg.base.unavailability_rate = 0.3;
  cfg.base.sched = experiment::moon_scheduler(true);
  cfg.base.sched.job_policy = policy;
  cfg.base.dfs = experiment::moon_dfs_config();
  cfg.base.input_factor = {1, 2};
  cfg.base.intermediate_factor = {1, 1};
  cfg.base.output_factor = {1, 2};
  cfg.base.seed = 31;
  cfg.base.max_sim_time = 8 * sim::kHour;

  cfg.arrivals.process = workload::ArrivalConfig::Process::kFixedOffset;
  cfg.arrivals.num_jobs = 4;
  cfg.arrivals.first_arrival = sim::kMinute;
  cfg.arrivals.fixed_offset = 30 * sim::kSecond;
  cfg.arrivals.round_robin_mix = true;  // sort, wc, sort, wc
  cfg.arrivals.mix = {{mini_sort(), 1.0}, {mini_wc(), 1.0}};
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using JobPolicy = mapred::SchedulerConfig::JobPolicy;
  const experiment::ScenarioFlags flags =
      experiment::parse_scenario_flags(argc, argv);
  std::vector<JobPolicy> policies = {JobPolicy::kFifo, JobPolicy::kFairShare,
                                     JobPolicy::kShortestRemaining};
  // A deadline mix makes the EDF policy meaningful; add its pass.
  if (flags.deadline_s > 0.0) policies.push_back(JobPolicy::kDeadlineEdf);
  for (JobPolicy policy : policies) {
    auto cfg = config(policy);
    flags.apply(cfg);
    if (policy == JobPolicy::kFifo) flags.apply_obs(cfg.base.obs);
    const auto result = experiment::run_multi_job_scenario(cfg);
    if (policy == JobPolicy::kFifo) flags.export_run(result.obs.get());

    Table table(std::string("Policy: ") + mapred::to_string(policy) +
                " — 4-job stream, 8 volatile + 2 dedicated, rate 0.3");
    table.columns({"job", "submit (s)", "wait (s)", "latency (s)", "finished",
                   "duplicated"});
    for (const auto& job : result.jobs) {
      table.add_row(
          {job.name + " #" + std::to_string(job.index),
           Table::num(sim::to_seconds(job.submitted_at), 0),
           Table::num(job.queue_wait_s, 0), Table::num(job.latency_s, 0),
           job.run.finished ? "yes" : "no",
           Table::num(static_cast<std::int64_t>(job.run.duplicated_tasks()))});
    }
    table.print(std::cout);
    std::cout << "  makespan " << result.makespan_s << " s, mean latency "
              << result.mean_latency_s << " s, p95 " << result.p95_latency_s
              << " s, Jain fairness " << result.jain_fairness << "\n";
    if (cfg.base.sched.admission.enabled) {
      std::cout << "  admission (" << mapred::to_string(cfg.base.sched.admission.policy)
                << "): admitted " << result.admission.admitted << ", rejected "
                << result.admission.rejected << ", shed "
                << result.admission.shed << ", deferred "
                << result.admission.deferred << "\n";
    }
    if (flags.deadline_s > 0.0) {
      std::cout << "  SLA: " << result.sla_missed_jobs << "/"
                << result.sla_eligible_jobs << " missed (deadline "
                << flags.deadline_s << " s)\n";
    }
    std::cout << "\n";
  }
  std::cout << "FIFO lets the early sort monopolise the slots; fair-share\n"
               "interleaves by deficit; SRTF lets the smallest job finish\n"
               "first. All three share one cluster, DFS, and trace.\n";
  return 0;
}
