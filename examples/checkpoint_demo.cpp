// Demonstrates the reduce-checkpoint subsystem end to end (see DESIGN.md
// § checkpointing):
//  1. a small cluster runs a reduce-heavy job with checkpointing enabled,
//  2. the reduce's host node is yanked mid-compute,
//  3. the rescheduled attempt resumes from the latest live checkpoint in
//     the DFS instead of redoing the shuffle and compute from zero,
// then runs the identical script with checkpointing off for contrast.
// Observability: `--trace=FILE` / `--metrics=FILE` / `--events=FILE` export
// the checkpointing run. This example wires the obs::Observability bundle by
// hand (it builds its stack without the experiment::Environment), which is
// the pattern for custom harnesses.
#include <iostream>
#include <memory>

#include "common/table.hpp"
#include "experiment/flags.hpp"
#include "experiment/scenario.hpp"
#include "mapred/job.hpp"
#include "mapred/jobtracker.hpp"

#include "cluster/cluster.hpp"
#include "dfs/dfs.hpp"

using namespace moon;

namespace {

struct DemoResult {
  double execution_time_s = 0.0;
  mapred::JobMetrics metrics;
};

DemoResult run(bool checkpointing, const experiment::ScenarioFlags& flags) {
  sim::Simulation sim(42);
  cluster::Cluster cluster(sim);
  cluster::NodeConfig vcfg;
  const auto volatiles = cluster.add_nodes(4, vcfg);
  cluster::NodeConfig dcfg;
  dcfg.type = cluster::NodeType::kDedicated;
  cluster.add_nodes(1, dcfg);

  dfs::Dfs dfs(sim, cluster, experiment::moon_dfs_config(), 42);
  dfs.start();

  // Hadoop-style fault tolerance with a 1-minute expiry: a lost node kills
  // its attempts fast, which is exactly where checkpoints pay off.
  mapred::SchedulerConfig sched = experiment::hadoop_scheduler(1 * sim::kMinute);
  sched.checkpoint.enabled = checkpointing;
  sched.checkpoint.scan_interval = 30 * sim::kSecond;
  sched.checkpoint.min_progress_delta = 0.02;

  mapred::JobTracker jobtracker(sim, cluster, dfs, sched, 42);
  jobtracker.add_all_trackers();
  jobtracker.start();

  // Hand-wired observability (only the checkpointing variant exports).
  std::unique_ptr<obs::Observability> bundle;
  if (flags.any_obs() && checkpointing) {
    obs::ObsConfig ocfg;
    flags.apply_obs(ocfg);
    bundle = std::make_unique<obs::Observability>(ocfg, sim);
    if (auto* tracer = bundle->tracer()) {
      tracer->name_process(obs::kClusterPid, "cluster");
      tracer->name_process(obs::kDfsPid, "dfs");
    }
    bundle->attach();
  }

  const FileId input =
      dfs.stage_blocks("demo.input", dfs::FileKind::kReliable, {1, 2}, 2, kMiB);
  mapred::JobSpec spec;
  spec.name = "demo";
  spec.num_maps = 2;
  spec.num_reduces = 1;
  spec.input_file = input;
  spec.intermediate_per_map = mib(4.0);
  spec.output_per_reduce = mib(4.0);
  spec.map_compute = 5 * sim::kSecond;
  spec.reduce_compute = 10 * sim::kMinute;
  spec.compute_jitter = 0.0;

  const JobId id = jobtracker.submit(spec);
  mapred::Job& job = jobtracker.job(id);

  // Let the reduce get ~40% through its compute, then pull its node.
  sim.run_until(sim.now() + 5 * sim::kMinute);
  const TaskId reduce = job.tasks_of(mapred::TaskType::kReduce).front();
  for (AttemptId a : job.task(reduce).attempts) {
    mapred::TaskAttempt* attempt = job.attempt(a);
    if (attempt != nullptr && !attempt->terminal()) {
      std::cout << "  t=" << sim::to_seconds(sim.now())
                << "s: killing node " << attempt->tracker().node_id()
                << " hosting the reduce (progress "
                << attempt->progress() << ")\n";
      cluster.node(attempt->tracker().node_id()).set_available(false);
    }
  }
  while (!job.finished() && sim.now() < 4 * sim::kHour) {
    if (!sim.step()) break;
  }

  DemoResult result;
  result.metrics = job.metrics();
  result.execution_time_s = job.metrics().execution_time_s();
  if (bundle) {
    bundle->finalize();
    flags.export_run(bundle.get());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const experiment::ScenarioFlags flags =
      experiment::parse_scenario_flags(argc, argv);
  std::cout << "=== Reduce checkpoint/resume demo ===\n\n";
  std::cout << "with checkpointing:\n";
  const DemoResult warm = run(/*checkpointing=*/true, flags);
  std::cout << "without checkpointing:\n";
  const DemoResult cold = run(/*checkpointing=*/false, flags);

  Table table("killed-reduce recovery, 600 s reduce compute");
  table.columns({"variant", "time (s)", "ckpts written", "ckpt bytes (MiB)",
                 "resumes", "progress salvaged"});
  const auto row = [&](const char* name, const DemoResult& r) {
    table.add_row({name, Table::num(r.execution_time_s, 0),
                   Table::num(static_cast<std::int64_t>(r.metrics.checkpoints_written)),
                   Table::num(to_mib(r.metrics.checkpoint_bytes), 2),
                   Table::num(static_cast<std::int64_t>(r.metrics.checkpoint_resumes)),
                   Table::num(r.metrics.checkpoint_progress_salvaged, 2)});
  };
  row("checkpointing", warm);
  row("cold re-run", cold);
  table.print(std::cout);
  std::cout << "\nThe resumed attempt reads the checkpoint log back from the "
               "DFS,\nskips the already-fetched shuffle partitions and is "
               "credited the\nsalvaged compute time — the cold re-run repeats "
               "all of it.\n";
  return 0;
}
