// Observability demo: one MOON-Hybrid sort on the paper's 64-node layout
// (60 volatile + 4 dedicated) with the full observability stack on —
// span tracing, metrics sampling, and structured-log capture.
//
//   ./observability_demo [--trace=FILE] [--metrics=FILE] [--events=FILE]
//
// Open the trace in ui.perfetto.dev (or chrome://tracing): the "cluster"
// process shows per-node availability spans and tracker-state instants, the
// "dfs" process block transfers / repairs / checkpoint writes, and each job
// gets its own process with task-attempt spans on per-node tracks. The
// metrics CSV has one row per 10 simulated seconds across the gauges the
// experiment::Environment registers (utilization, running/pending tasks,
// shuffle bytes in flight, replication queue depth, live nodes, ...).
//
// With no flags this still runs with everything enabled and prints the
// collection counts — handy as a smoke test that observability collects
// without perturbing the run.
#include <iostream>

#include "common/table.hpp"
#include "experiment/flags.hpp"
#include "experiment/scenario.hpp"

using namespace moon;

int main(int argc, char** argv) {
  const experiment::ScenarioFlags flags =
      experiment::parse_scenario_flags(argc, argv);

  experiment::ScenarioConfig cfg;
  cfg.volatile_nodes = 60;
  cfg.dedicated_nodes = 4;
  cfg.unavailability_rate = 0.3;
  cfg.sched = experiment::moon_scheduler(/*hybrid=*/true);
  cfg.dfs = experiment::moon_dfs_config();
  cfg.app = workload::sort_workload();
  cfg.app.num_maps = 128;
  cfg.app.input_size = static_cast<Bytes>(128) * mib(64.0);
  cfg.app.total_output = cfg.app.input_size;
  cfg.seed = 7;

  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  cfg.obs.capture_log = true;
  flags.apply_obs(cfg.obs);  // flags only pick the export destinations here

  const auto run = experiment::run_scenario(cfg);
  flags.export_run(run.obs.get());

  std::cout << "sort on 60 volatile + 4 dedicated nodes, rate 0.3: "
            << (run.finished ? "finished" : "DNF") << " in "
            << Table::num(run.execution_time_s, 0) << " s\n";
  if (run.obs) {
    std::cout << "collected: " << run.obs->tracer()->event_count()
              << " trace events (" << run.obs->tracer()->dropped()
              << " dropped), " << run.obs->metrics()->sample_count()
              << " metric samples x " << run.obs->metrics()->gauge_count()
              << " gauges, " << run.obs->events().size() << " log records\n";
  }
  if (!flags.any_obs()) {
    std::cout << "hint: rerun with --trace=trace.json --metrics=metrics.csv "
                 "--events=events.jsonl to export\n";
  }
  return 0;
}
