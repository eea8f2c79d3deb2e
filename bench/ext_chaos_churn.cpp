// Extension: chaos sweep across the fault-injection classes (DESIGN.md §13;
// not in the paper — the paper's churn is availability traces only).
//
// Layers each fault class (and all of them together) on top of the normal
// volatile-fleet churn and measures what the stack does about it: goodput,
// job aborts, repair traffic, checkpoint resumes, quarantines. The invariant
// auditor sweeps every simulated minute in every variant — a violation in
// any cell fails the bench.
//
//   ./bench_ext_chaos_churn [--faults=EXTRA]   (EXTRA layers on every cell)
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "experiment/flags.hpp"

using namespace moon;

namespace {

/// Shuffle-heavy sort scaled for bench runtime; long reduces give the
/// storage / straggler classes something to hurt.
workload::WorkloadModel chaos_workload() {
  workload::WorkloadModel m;
  m.name = "chaos";
  m.kind = workload::AppKind::kSort;
  m.num_maps = 32;
  m.fixed_reduces = 8;
  m.map_compute = sim::seconds(10);
  m.reduce_compute = sim::seconds(240);
  m.intermediate_per_map = mib(8.0);
  m.input_size = static_cast<Bytes>(m.num_maps) * mib(8.0);
  m.total_output = mib(256.0);
  m.input_block_bytes = mib(8.0);
  return m;
}

experiment::ScenarioConfig base(const std::string& spec) {
  auto cfg = bench::paper_testbed();
  cfg.volatile_nodes = 24;
  cfg.dedicated_nodes = 4;
  cfg.app = chaos_workload();
  // Checkpointing + quarantine on: chaos is exactly the regime the
  // containment machinery exists for.
  cfg.sched = experiment::moon_checkpoint_scheduler(false);
  cfg.sched.quarantine_threshold = 5;
  cfg.unavailability_rate = 0.3;
  cfg.intermediate_kind = dfs::FileKind::kOpportunistic;
  cfg.intermediate_factor = {1, 1};
  if (!spec.empty() &&
      !experiment::apply_fault_spec(spec, cfg.faults)) {
    std::exit(2);
  }
  // Auditor always on — every cell doubles as an invariant check.
  cfg.faults.enabled = true;
  cfg.faults.audit_interval = 60 * sim::kSecond;
  // Power-cycle cadence scaled to the ~5-minute job (the 1-hour default
  // would never fire inside the horizon).
  cfg.faults.outages.mean_interval = 4 * sim::kMinute;
  cfg.faults.outages.mean_outage = 90 * sim::kSecond;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const experiment::ScenarioFlags extra =
      experiment::parse_scenario_flags(argc, argv);
  const std::vector<std::pair<std::string, std::string>> variants{
      {"none", ""},
      {"outages", "outages"},
      {"heartbeats", "heartbeats:0.1"},
      {"storage", "storage:0.05"},
      {"stragglers", "stragglers:0.2"},
      {"all", "all"},
  };
  const int reps = bench::repetitions();
  std::cout << "=== Extension: chaos sweep across fault classes ===\n"
            << "(24 volatile + 4 dedicated, rate 0.3, MOON+ckpt non-hybrid, "
               "quarantine on, auditor every 60 s, "
            << reps << " repetitions)\n\n";

  Table table("Fault classes vs goodput / aborts / repair traffic");
  table.columns({"faults", "time (s)", "goodput (MiB/s)", "aborts",
                 "injected", "repair (MiB)", "resumes", "quarantines",
                 "violations"});
  bench::JsonEmitter json("chaos");
  std::int64_t violations = 0;
  for (const auto& [name, spec] : variants) {
    auto cfg = base(spec);
    extra.apply(cfg);

    double repair_bytes = 0.0;
    std::int64_t injected = 0;
    std::int64_t quarantines = 0;
    std::int64_t resumes = 0;
    std::int64_t cell_violations = 0;
    int aborts = 0;
    const auto summary = experiment::run_repetitions(
        cfg, reps, [&](const experiment::RunResult& run) {
          repair_bytes += static_cast<double>(run.dfs_stats.replication_bytes);
          injected += run.fault_stats.total_injected();
          quarantines += run.quarantines;
          resumes += run.metrics.checkpoint_resumes;
          cell_violations += run.audit_violations;
          if (run.metrics.failed) ++aborts;
        });
    violations += cell_violations;

    const double mean_s = summary.execution_time_s.mean();
    const double goodput =
        mean_s > 0.0
            ? static_cast<double>(chaos_workload().input_size) /
                  (1024.0 * 1024.0) / mean_s
            : 0.0;
    table.add_row(
        {name, bench::time_cell(summary), Table::num(goodput, 2),
         Table::num(std::int64_t{aborts}),
         Table::num(injected / std::int64_t{reps}),
         Table::num(repair_bytes / (1024.0 * 1024.0) / reps, 1),
         Table::num(resumes / std::int64_t{reps}),
         Table::num(quarantines / std::int64_t{reps}),
         Table::num(cell_violations)});
    json.begin_row()
        .field("bench", std::string("ext_chaos_churn"))
        .field("faults", name)
        .field("time_s", mean_s)
        .field("goodput_mib_s", goodput)
        .field("completed_runs", std::int64_t{summary.completed_runs})
        .field("total_runs", std::int64_t{summary.total_runs})
        .field("aborts", std::int64_t{aborts})
        .field("faults_injected", injected)
        .field("repair_mib", repair_bytes / (1024.0 * 1024.0))
        .field("checkpoint_resumes", resumes)
        .field("quarantines", quarantines)
        .field("audit_violations", cell_violations);
  }
  table.print(std::cout);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "\n(json: " << path << ")\n";
  if (violations != 0) {
    std::cerr << "\nFAIL: " << violations << " invariant violations\n";
    return 1;
  }
  std::cout << "\n(auditor: 0 violations across every cell)\n";
  return 0;
}
