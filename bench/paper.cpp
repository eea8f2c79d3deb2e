// The paper's §VI figures and tables, plus the sweep-and-print extension
// studies, from one table of cells (DESIGN.md §6: the target is their shape).
//
//   ./bench_paper [TABLE...] [--trace=FILE] [--metrics=FILE] [--events=FILE]
//                 [--faults=SPEC] [--admission=SPEC] [--deadline=SECONDS]
//
// TABLE is fig1 table1 fig4 fig5 fig6 table2 fig7 ablation late correlated
// checkpoint chaos failover multijob steady; with none, every table runs (an
// unknown name exits 2). A cell is one simulated configuration; each distinct
// cell runs run_repetitions once however many tables print it (Fig 5 is Fig
// 4's sweep; Table II, Fig 7's D6 rows and two ablation rows are Fig 6
// cells). multijob and steady run job streams instead. The flags apply to
// every cell and stream; the exports hold the last finished run. The
// extension tables' checks (audit violations, journal divergences, DNFs,
// policy orderings, admission bounds, run-twice fingerprints) make the
// binary exit 1 once every selected table has printed. A full run writes
// BENCH_paper.json: one row per printed (table, row, column) cell, simulated
// quantities only, so a rerun reproduces it byte for byte.
#include <algorithm>
#include <compare>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "experiment/flags.hpp"
#include "experiment/multi_job.hpp"
#include "mapred/job_policy.hpp"
#include "trace/trace_generator.hpp"
#include "trace/trace_stats.hpp"

using namespace moon;
using bench::time_cell;
using experiment::Summary;

namespace {

// ---- cells -----------------------------------------------------------------

enum class App { kSort, kWordCount };

/// One simulated configuration of the paper's testbed: every field some
/// table varies. Equal cells are one simulation.
struct Cell {
  App app = App::kSort;
  bool sleep = false;  ///< §VI-A sleep variant of the app
  std::string sched = "MOON-Hybrid";  ///< a scheduler() preset
  bool hadoop_vo = false;  ///< Fig 7's Hadoop-VO data management, not MOON's
  double rate = 0.0;
  dfs::FileKind intermediate_kind = dfs::FileKind::kOpportunistic;
  int intermediate_dedicated = 1;
  int intermediate_volatile = 1;
  std::size_t dedicated = 6;
  std::string ablation{};  ///< a kAblations toggle, or "" for full MOON
  double correlated = 0.0;  ///< share of outages that are lab sessions

  auto operator<=>(const Cell&) const = default;
};

/// The five §VI-A scheduling policy variants, then the LATE extension's two.
const mapred::SchedulerConfig& scheduler(const std::string& name) {
  static const std::map<std::string, mapred::SchedulerConfig, std::less<>>
      kPresets = {
          {"Hadoop10Min", experiment::hadoop_scheduler(10 * sim::kMinute)},
          {"Hadoop5Min", experiment::hadoop_scheduler(5 * sim::kMinute)},
          {"Hadoop1Min", experiment::hadoop_scheduler(1 * sim::kMinute)},
          {"MOON", experiment::moon_scheduler(false)},
          {"MOON-Hybrid", experiment::moon_scheduler(true)},
          {"LATE-1Min", experiment::late_scheduler(1 * sim::kMinute)},
          {"LATE+MOON", experiment::late_moon_scheduler()},
      };
  return kPresets.at(name);
}

struct Toggle {
  const char* name;
  void (*off)(experiment::ScenarioConfig&);
};

/// The ablation's switched-off mechanisms (see ablation()).
constexpr Toggle kAblations[] = {
    {"-hybrid-sched",
     [](experiment::ScenarioConfig& c) { c.sched.hybrid_aware = false; }},
    {"-two-phase",
     [](experiment::ScenarioConfig& c) { c.sched.homestretch_fraction = 0.0; }},
    {"-suspension",
     [](experiment::ScenarioConfig& c) { c.sched.suspension_interval = 0; }},
    {"-hibernate",
     [](experiment::ScenarioConfig& c) { c.dfs.hibernate_enabled = false; }},
    {"-adaptive-repl",
     [](experiment::ScenarioConfig& c) { c.dfs.adaptive_replication = false; }},
    {"-throttle",
     [](experiment::ScenarioConfig& c) { c.dfs.throttling_enabled = false; }},
};

/// The cell memo: runs each distinct cell once with the command-line flags
/// layered on, records the cells tables print as BENCH_paper.json rows, and
/// collects the failed checks main reports once every table has printed.
class Cells {
 public:
  using Observer = std::function<void(const experiment::RunResult&)>;

  Cells(int& argc, char** argv)
      : flags_(experiment::parse_scenario_flags(argc, argv)),
        reps_(bench::repetitions()) {}

  [[nodiscard]] int reps() const { return reps_; }
  [[nodiscard]] std::size_t simulated() const { return simulated_; }
  [[nodiscard]] std::size_t streams() const { return streams_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  /// The cell's summary, simulated on first use.
  const Summary& run(const Cell& cell) {
    auto [it, inserted] = memo_.try_emplace(cell);
    if (inserted) it->second = study(config(cell));
    return it->second;
  }

  /// An extension study's own configuration: reps() seeds through
  /// run_repetitions with the flags layered on; `observer` sees every run.
  Summary study(experiment::ScenarioConfig cfg, const Observer& observer = {}) {
    flags_.apply(cfg);
    flags_.apply_obs(cfg.obs);
    ++simulated_;
    return experiment::run_repetitions(
        cfg, reps_, [&](const experiment::RunResult& r) {
          keep(r);
          if (observer) observer(r);
        });
  }

  /// One run of a job stream with the flags layered on.
  experiment::MultiJobResult stream(experiment::MultiJobConfig cfg) {
    flags_.apply(cfg);
    flags_.apply_obs(cfg.base.obs);
    ++streams_;
    experiment::MultiJobResult result = experiment::run_multi_job_scenario(cfg);
    keep(result);
    return result;
  }

  /// Starts the BENCH_paper.json row (table, row, column); the caller adds
  /// the simulated quantities.
  bench::JsonEmitter& record(const std::string& table, const std::string& row,
                             const std::string& column) {
    return json_.begin_row()
        .field("table", table)
        .field("row", row)
        .field("column", column);
  }

  /// run(cell), recorded as the BENCH_paper.json row (table, row, column).
  const Summary& at(const std::string& table, const std::string& row,
                    const std::string& column, const Cell& cell) {
    const Summary& s = run(cell);
    record(table, row, column)
        .field("time_s", s.execution_time_s.mean())
        .field("completed_runs", std::int64_t{s.completed_runs})
        .field("total_runs", std::int64_t{s.total_runs})
        .field("duplicated_tasks", s.duplicated_tasks.mean())
        .field("killed_maps", s.killed_maps.mean())
        .field("killed_reduces", s.killed_reduces.mean())
        .field("fetch_failures", s.fetch_failures.mean());
    return s;
  }

  /// A failed check: main exits 1 once every selected table has printed.
  void fail(std::string why) { failures_.push_back(std::move(why)); }

  /// Writes BENCH_paper.json; returns the path, or "" when disabled.
  [[nodiscard]] std::string write_json() const { return json_.write(); }

  void export_obs() const { flags_.export_run(bundle_.get()); }

 private:
  experiment::ScenarioConfig config(const Cell& cell) const {
    auto cfg = bench::paper_testbed();
    const auto app = cell.app == App::kSort ? workload::sort_workload()
                                            : workload::wordcount_workload();
    cfg.app = cell.sleep ? workload::sleep_of(app) : app;
    cfg.sched = scheduler(cell.sched);
    if (cell.hadoop_vo) {
      cfg.dedicated_known = false;  // Hadoop cannot differentiate
      cfg.dfs = experiment::hadoop_dfs_config();
      cfg.input_factor = {0, 6};
      cfg.output_factor = {0, 6};
    }
    cfg.dedicated_nodes = cell.dedicated;
    cfg.unavailability_rate = cell.rate;
    cfg.intermediate_kind = cell.intermediate_kind;
    cfg.intermediate_factor = {cell.intermediate_dedicated,
                               cell.intermediate_volatile};
    for (const Toggle& toggle : kAblations) {
      if (cell.ablation == toggle.name) toggle.off(cfg);
    }
    if (cell.correlated > 0.0) {
      cfg.correlated_outages = true;
      cfg.correlated_fraction = cell.correlated;
      cfg.correlation_group_size = 20;
      cfg.correlated_event_mean_s = 1200.0;  // sessions ~ job length
    }
    return cfg;
  }

  /// Keeps the run's observability bundle for the exports.
  void keep(const experiment::RunCounters& run) {
    if (run.obs) bundle_ = run.obs;
  }

  experiment::ScenarioFlags flags_;
  int reps_;
  std::map<Cell, Summary> memo_;
  std::size_t simulated_ = 0;
  std::size_t streams_ = 0;
  std::vector<std::string> failures_;
  bench::JsonEmitter json_{"paper"};
  std::shared_ptr<obs::Observability> bundle_;
};

// ---- grids -----------------------------------------------------------------

constexpr double kRates[] = {0.1, 0.3, 0.5};

std::vector<std::string> rate_columns() {
  std::vector<std::string> cols{"policy"};
  for (double rate : kRates) cols.push_back("rate " + Table::num(rate, 1));
  return cols;
}

/// Renders the summary of the cell at (row, column).
using Format = std::function<std::string(const Summary&, std::size_t row,
                                         std::size_t column)>;

std::string times(const Summary& s, std::size_t, std::size_t) {
  return time_cell(s);
}

/// Prints a table whose body is rows x (header minus its first entry) cells:
/// `cell(r, c)` is the cell at body row r, column c. `record` = false keeps a
/// host-time table out of BENCH_paper.json.
void grid(Cells& cells, const std::string& title,
          const std::vector<std::string>& header,
          const std::vector<std::string>& rows,
          const std::function<Cell(std::size_t, std::size_t)>& cell,
          const Format& format = times, bool record = true) {
  Table table(title);
  table.columns(header);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> line{rows[r]};
    for (std::size_t c = 0; c + 1 < header.size(); ++c) {
      const Cell at = cell(r, c);
      line.push_back(format(
          record ? cells.at(title, rows[r], header[c + 1], at) : cells.run(at),
          r, c));
    }
    table.add_row(line);
  }
  table.print(std::cout);
}

// ---- Figure 1 --------------------------------------------------------------

// Figure 1: "Percentage of unavailable resources measured in a 7-day trace
// from a production volunteer computing system" — reproduced with the §VI
// synthetic generator: seven independent day-traces at the trace's average
// unavailability (~0.4), sampled in 10-minute intervals over a 9AM-5PM
// 8-hour window.
//
// Expected shape: per-day averages cluster around 40 % with wide
// within-day swings (the paper observes peaks up to ~90 %).
void fig1(Cells&) {
  std::cout << "=== Figure 1: fleet unavailability profile ===\n"
            << "(60 nodes per day; 10-minute samples over 8 hours)\n\n";

  trace::GeneratorConfig cfg;
  cfg.unavailability_rate = 0.4;  // the trace's measured average
  trace::TraceGenerator gen(cfg);

  Table table("Per-day unavailability (%)");
  table.columns({"day", "mean", "min sample", "max sample", "outages",
                 "mean outage (s)"});

  Rng master{20100621};
  for (int day = 1; day <= 7; ++day) {
    Rng day_rng = master.fork(static_cast<std::uint64_t>(day));
    const auto fleet = gen.generate_fleet(day_rng, 60);
    const auto profile =
        trace::UnavailabilityProfile::compute(fleet, 10 * sim::kMinute);
    double lo = 100.0, hi = 0.0, sum = 0.0;
    for (const auto& p : profile) {
      lo = std::min(lo, p.percent_unavailable);
      hi = std::max(hi, p.percent_unavailable);
      sum += p.percent_unavailable;
    }
    const auto outages = trace::summarize_outages(fleet);
    table.add_row({"DAY" + std::to_string(day),
                   Table::num(sum / static_cast<double>(profile.size()), 1),
                   Table::num(lo, 1), Table::num(hi, 1),
                   Table::num(static_cast<std::int64_t>(outages.count)),
                   Table::num(outages.mean_seconds, 0)});
  }
  table.print(std::cout);

  // One day rendered as the figure's time series.
  std::cout << "\nDAY1 time series (10-minute samples, 9AM..5PM):\n";
  Rng day_rng = master.fork(1u);
  const auto fleet = gen.generate_fleet(day_rng, 60);
  for (const auto& p :
       trace::UnavailabilityProfile::compute(fleet, 10 * sim::kMinute)) {
    const double hour = 9.0 + sim::to_seconds(p.at) / 3600.0;
    const int bars = static_cast<int>(p.percent_unavailable / 2.5);
    std::printf("  %5.2fh | %-40s %4.1f%%\n", hour,
                std::string(static_cast<std::size_t>(bars), '#').c_str(),
                p.percent_unavailable);
  }
}

// ---- Table I ---------------------------------------------------------------

// Table I: "Application configurations." Prints the workload models the
// other benches consume, resolved against the paper's 66-node testbed
// (2 reduce slots per node, like Hadoop's default).
void table1(Cells&) {
  std::cout << "=== Table I: application configurations ===\n\n";

  const int testbed_reduce_slots = 66 * 2;

  Table table("Application configurations (66-node testbed)");
  table.columns({"Application", "Input Size", "# Maps", "# Reduces",
                 "map compute (s)", "reduce compute (s)",
                 "intermediate/map"});
  for (const auto& model :
       {workload::sort_workload(), workload::wordcount_workload(),
        workload::sleep_of(workload::sort_workload()),
        workload::sleep_of(workload::wordcount_workload())}) {
    const int reduces = model.reduces_for(testbed_reduce_slots);
    std::string reduce_cell = Table::num(static_cast<std::int64_t>(reduces));
    if (model.fixed_reduces == 0) {
      reduce_cell += " (0.9 x slots)";
    }
    table.add_row({model.name,
                   Table::num(to_gib(model.input_size), 2) + " GB",
                   Table::num(static_cast<std::int64_t>(model.num_maps)),
                   reduce_cell,
                   Table::num(sim::to_seconds(model.map_compute), 0),
                   Table::num(sim::to_seconds(model.reduce_compute), 0),
                   Table::num(to_mib(model.intermediate_per_map), 2) + " MB"});
  }
  table.print(std::cout);
  std::cout << "\nPaper Table I: sort 24 GB / 384 maps / 0.9 x AvailSlots "
               "reduces; word count 20 GB / 320 maps / 20 reduces.\n";
}

// ---- Figures 4 and 5 -------------------------------------------------------

// The §VI-A speculative-scheduling experiment shared by Figures 4 and 5:
// sleep(sort) and sleep(word count) on 60 volatile + 6 dedicated nodes,
// intermediate data pinned reliable {1,1} so data management is out of the
// picture, five scheduler variants, unavailability 0.1/0.3/0.5.
void scheduling_grid(Cells& cells, const std::string& title, App app,
                     const std::vector<std::string>& policies,
                     const Format& format = times, bool record = true) {
  // "We also configure MOON to replicate the intermediate data as
  // reliable files with one dedicated and one volatile copy, so that
  // intermediate data are always available to Reduce tasks."
  grid(cells, title, rate_columns(), policies,
       [&](std::size_t r, std::size_t c) {
         return Cell{.app = app,
                     .sleep = true,
                     .sched = policies[r],
                     .rate = kRates[c],
                     .intermediate_kind = dfs::FileKind::kReliable};
       },
       format, record);
}

const std::vector<std::string> kSchedulingPolicies = {
    "Hadoop10Min", "Hadoop5Min", "Hadoop1Min", "MOON", "MOON-Hybrid"};

// Figure 4: "Execution time with Hadoop and MOON scheduling policies."
//
// sleep(sort) and sleep(word count), 60 volatile + 6 dedicated nodes,
// reliable {1,1} intermediate data, unavailability rates 0.1/0.3/0.5.
// Expected shape: Hadoop improves as TrackerExpiryInterval shrinks; MOON
// matches Hadoop1Min at low volatility and wins decisively at 0.5;
// MOON-Hybrid is at least as good as MOON.
// Known divergence: at the default 3 repetitions, Fig 4(a) at 0.5 shows MOON
// slower than Hadoop1Min.
void fig4(Cells& cells) {
  std::cout << "=== Figure 4: execution time vs machine unavailability ===\n"
            << "(" << cells.reps() << " repetitions per cell; "
            << "mean seconds; DNF = did not finish within 24 h)\n\n";
  scheduling_grid(cells, "Fig 4(a) sleep(sort): execution time (s)",
                  App::kSort, kSchedulingPolicies);
  std::cout << '\n';
  scheduling_grid(cells, "Fig 4(b) sleep(word count): execution time (s)",
                  App::kWordCount, kSchedulingPolicies);

  // Mean measured control-plane cost per run (wall ms the JobTracker spent
  // in heartbeat assignment) — the literal "scheduling time" axis.
  const auto wall = [](const Summary& s, std::size_t, std::size_t) {
    return Table::num(s.scheduling_wall_ms.mean(), 1);
  };
  std::cout << "\n(measured control-plane cost; indexed scheduler hot path — "
               "see bench_micro_e2e_throughput for the scan-mode baseline)\n";
  scheduling_grid(cells, "Fig 4(a) sleep(sort): JobTracker scheduling wall (ms)",
                  App::kSort, kSchedulingPolicies, wall, /*record=*/false);
  std::cout << '\n';
  scheduling_grid(cells,
                  "Fig 4(b) sleep(word count): JobTracker scheduling wall (ms)",
                  App::kWordCount, kSchedulingPolicies, wall, /*record=*/false);
}

// Figure 5: "Number of duplicated tasks issued with different scheduling
// policies."
//
// Same sweep as Figure 4; the metric is attempts launched beyond one per
// task (speculative copies plus task re-executions). Expected shape: Hadoop
// issues more duplicates as TrackerExpiryInterval shrinks; MOON issues
// fewer than Hadoop1Min; hybrid awareness reduces them further.
// Known divergence: on Fig 5(a), MOON issues more duplicates than Hadoop1Min
// at 0.1, and MOON-Hybrid more than MOON at 0.3 and 0.5.
void fig5(Cells& cells) {
  std::cout << "=== Figure 5: duplicated tasks vs machine unavailability ===\n"
            << "(" << cells.reps() << " repetitions per cell)\n\n";
  const auto duplicated = [](const Summary& s, std::size_t, std::size_t) {
    return Table::num(s.duplicated_tasks.mean(), 0);
  };
  scheduling_grid(cells, "Fig 5(a) sleep(sort): duplicated tasks", App::kSort,
                  kSchedulingPolicies, duplicated);
  std::cout << '\n';
  scheduling_grid(cells, "Fig 5(b) sleep(word count): duplicated tasks",
                  App::kWordCount, kSchedulingPolicies, duplicated);
}

// ---- Figure 6 and Table II -------------------------------------------------

/// Full-data app with MOON-Hybrid scheduling and the intermediate policy
/// named as in the paper: VO-Vv is volatile-only {0,v}, HA-Vv hybrid-aware
/// {1,v}.
Cell replication_cell(App app, const std::string& policy, double rate) {
  return {.app = app,
          .rate = rate,
          .intermediate_dedicated = policy.starts_with("HA") ? 1 : 0,
          .intermediate_volatile = policy.back() - '0'};
}

// Figure 6: "Compare impacts of different replication policies for
// intermediate data on execution time."
//
// Full-data sort and word count on 60 volatile + 6 dedicated nodes,
// MOON-Hybrid scheduling (the best variant from §VI-A), input/output fixed
// at {1,3}; the intermediate-data policy sweeps volatile-only VO-V1..V5
// ({0,v}) against hybrid-aware HA-V1..V3 ({1,v}).
//
// Expected shape: VO improves with degree up to ~V3 then flattens or
// degrades (replication cost outweighs availability); HA-V1 wins clearly at
// 0.5 on sort, modestly on word count.
void fig6(Cells& cells) {
  std::cout << "=== Figure 6: intermediate-data replication policies ===\n"
            << "(" << cells.reps() << " repetitions per cell; mean seconds)\n\n";
  const std::vector<std::string> policies = {
      "VO-V1", "VO-V2", "VO-V3", "VO-V4", "VO-V5", "HA-V1", "HA-V2", "HA-V3"};
  for (const auto& [app, title] :
       {std::pair{App::kSort, "Fig 6(a) sort: execution time (s)"},
        std::pair{App::kWordCount, "Fig 6(b) word count: execution time (s)"}}) {
    if (app == App::kWordCount) std::cout << '\n';
    grid(cells, title, rate_columns(), policies,
         [&, app = app](std::size_t r, std::size_t c) {
           return replication_cell(app, policies[r], kRates[c]);
         });
  }
}

// Table II: "Execution profile of different replication policies at 0.5
// unavailability rate."
//
// Rows: avg map time, avg shuffle time, avg reduce time, avg #killed maps,
// avg #killed reduces — for VO-V1, VO-V3, VO-V5 and HA-V1, on sort and
// word count, at 0.5 unavailability (MOON-Hybrid scheduling, {1,3}
// input/output, like Figure 6).
//
// Expected shape: sort map time grows steeply with the VO degree (extra
// volatile copies stream through the writer); VO-V1's shuffle time dwarfs
// HA-V1's (low intermediate availability forces re-fetches/re-executions);
// killed maps drop sharply from VO-V1 to higher degrees, HA lowest.
void table2(Cells& cells) {
  std::cout << "=== Table II: execution profile at 0.5 unavailability ===\n"
            << "(" << cells.reps() << " repetitions per policy)\n\n";
  struct Metric {
    const char* name;
    double (*get)(const Summary&);
    int precision;
  };
  constexpr Metric kMetrics[] = {
      {"Avg Map Time (s)", [](const Summary& s) { return s.avg_map_time_s.mean(); }, 2},
      {"Avg Shuffle Time (s)",
       [](const Summary& s) { return s.avg_shuffle_time_s.mean(); }, 2},
      {"Avg Reduce Time (s)",
       [](const Summary& s) { return s.avg_reduce_time_s.mean(); }, 2},
      {"Avg #Killed Maps", [](const Summary& s) { return s.killed_maps.mean(); }, 1},
      {"Avg #Killed Reduces",
       [](const Summary& s) { return s.killed_reduces.mean(); }, 1},
      {"Avg Execution Time (s)",
       [](const Summary& s) { return s.execution_time_s.mean(); }, 0},
  };
  for (const auto& [app, title] :
       {std::pair{App::kSort, "Table II (sort)"},
        std::pair{App::kWordCount, "Table II (word count)"}}) {
    if (app == App::kWordCount) std::cout << '\n';
    std::vector<std::string> cols{"metric"};
    std::vector<const Summary*> summaries;
    for (const char* policy : {"VO-V1", "VO-V3", "VO-V5", "HA-V1"}) {
      cols.push_back(policy);
      summaries.push_back(&cells.at(title, policy, "rate 0.5",
                                    replication_cell(app, policy, 0.5)));
    }
    Table table(title);
    table.columns(cols);
    for (const Metric& metric : kMetrics) {
      std::vector<std::string> row{metric.name};
      for (const Summary* s : summaries) {
        row.push_back(Table::num(metric.get(*s), metric.precision));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }
}

// ---- Figure 7 --------------------------------------------------------------

// Figure 7: "Overall performance of MOON vs. Hadoop with VO replication."
//
// Baseline "Hadoop-VO": the same 66 physical machines, but the framework
// treats them all as volatile (§VI-C); input and output use six volatile
// replicas (99.5 % availability at p = 0.4); intermediate data replicated
// with the best volatile-only degree per rate; stock Hadoop scheduling and
// data management (plus the fetch-failure query remedy of §VI-B).
//
// MOON: 60 volatile + {3,4,6} dedicated nodes (20:1 / 15:1 / 10:1 V-to-D),
// {1,3} input/output, HA {1,1} intermediate, MOON-Hybrid scheduling.
//
// Expected shape: MOON wins clearly at 0.3/0.5 (sort: up to ~3x with 6
// dedicated nodes), is competitive at 0.1, and the one Hadoop-VO win is
// sort at 0.1 with the 20:1 ratio (dedicated I/O bandwidth saturates).
// Known divergence: on Fig 7(a) MOON wins every cell, 0.1 at 20:1 included,
// and its 0.5 speedups are well above ~3x.
void fig7(Cells& cells) {
  std::cout << "=== Figure 7: overall MOON vs Hadoop-VO ===\n"
            << "(" << cells.reps()
            << " repetitions per cell; mean seconds; parenthesised factor = "
               "speedup over Hadoop-VO)\n\n";
  for (const auto& [app, title] :
       {std::pair{App::kSort, "Fig 7(a) sort"},
        std::pair{App::kWordCount, "Fig 7(b) word count"}}) {
    if (app == App::kWordCount) std::cout << '\n';
    // Row 0 is Hadoop-VO; rows 1..3 are MOON with 3, 4 and 6 dedicated nodes.
    const auto cell = [app = app](std::size_t r, std::size_t c) {
      constexpr std::size_t kDedicated[] = {3, 4, 6};
      const double rate = kRates[c];
      if (r > 0) return Cell{.app = app, .rate = rate, .dedicated = kDedicated[r - 1]};
      // Best volatile-only intermediate degree per unavailability rate,
      // taken from the Figure 6 sweep (V2 suffices at 0.1; V3 at 0.3/0.5).
      return Cell{.app = app,
                  .sched = "Hadoop10Min",
                  .hadoop_vo = true,
                  .rate = rate,
                  .intermediate_dedicated = 0,
                  .intermediate_volatile = rate <= 0.1 ? 2 : 3};
    };
    const auto speedup = [&](const Summary& s, std::size_t r, std::size_t c) {
      std::string out = time_cell(s);
      const double mean = s.execution_time_s.mean();
      if (r > 0 && mean > 0.0) {
        const double baseline = cells.run(cell(0, c)).execution_time_s.mean();
        out += " (" + Table::num(baseline / mean, 1) + "x)";
      }
      return out;
    };
    grid(cells, title, rate_columns(),
         {"Hadoop-VO", "MOON-HybridD3", "MOON-HybridD4", "MOON-HybridD6"}, cell,
         speedup);
  }
}

// ---- ablation --------------------------------------------------------------

// Ablation study (not in the paper; motivated by DESIGN.md §3): switch
// MOON's mechanisms off one at a time at 0.5 unavailability on sort and
// measure the damage. Quantifies how much each §IV/§V feature contributes
// to the headline result.
//
// Variants:
//   full            — MOON-Hybrid, all features (baseline)
//   -hybrid-sched   — §V-C off: dedicated nodes take no backup copies
//   -two-phase      — homestretch off (H = 0)
//   -suspension     — suspension detection off (falls back to 30-min expiry
//                     alone, i.e. no frozen-task list)
//   -hibernate      — §IV-C off: no hibernate state in the DFS
//   -adaptive-repl  — §IV-A off: v is never raised when dedicated declines
//   -throttle       — Algorithm 1 off: dedicated tier accepts all writes
//   -dedicated-data — intermediate {0,1} instead of HA {1,1}
// Known divergence: -throttle and -adaptive-repl make MOON faster, not
// slower (below 1.0x).
void ablation(Cells& cells) {
  std::cout << "=== Ablation: MOON features off one at a time ===\n"
            << "(sort, 60 volatile + 6 dedicated, unavailability 0.5, "
            << cells.reps() << " repetitions)\n\n";
  std::vector<std::pair<std::string, Cell>> variants{{"full", {.rate = 0.5}}};
  for (const Toggle& toggle : kAblations) {
    variants.push_back({toggle.name, {.rate = 0.5, .ablation = toggle.name}});
  }
  variants.push_back(
      {"-dedicated-data", {.rate = 0.5, .intermediate_dedicated = 0}});

  const std::string title = "MOON ablation at 0.5 unavailability (sort)";
  Table table(title);
  table.columns({"variant", "time (s)", "vs full", "duplicated", "killed maps",
                 "fetch failures"});
  const double full = cells.run(variants[0].second).execution_time_s.mean();
  for (const auto& [name, cell] : variants) {
    const Summary& s = cells.at(title, name, "time (s)", cell);
    table.add_row({name, time_cell(s),
                   full > 0.0 ? Table::num(s.execution_time_s.mean() / full, 2) + "x"
                              : "-",
                   Table::num(s.duplicated_tasks.mean(), 0),
                   Table::num(s.killed_maps.mean(), 0),
                   Table::num(s.fetch_failures.mean(), 0)});
  }
  table.print(std::cout);
  std::cout << "\n(>1.0x = slower than full MOON; the dedicated intermediate\n"
               "copy and suspension detection are expected to matter most.)\n";
}

// ---- extensions ------------------------------------------------------------

/// The 32-map, 8-reduce sort of the checkpoint, chaos and failover studies
/// (8 MiB blocks and intermediate per map, 256 MiB output), with the study's
/// name and map/reduce compute seconds.
workload::WorkloadModel small_sort(const char* name, int map_s, int reduce_s) {
  workload::WorkloadModel m;
  m.name = name;
  m.kind = workload::AppKind::kSort;
  m.num_maps = 32;
  m.fixed_reduces = 8;
  m.map_compute = sim::seconds(map_s);
  m.reduce_compute = sim::seconds(reduce_s);
  m.intermediate_per_map = mib(8.0);
  m.input_size = static_cast<Bytes>(m.num_maps) * mib(8.0);
  m.total_output = mib(256.0);
  m.input_block_bytes = mib(8.0);
  return m;
}

// Extension experiment (paper §VII/related work): LATE (Zaharia et al.,
// OSDI'08) on opportunistic resources, versus Hadoop and MOON.
//
// The paper argues LATE's constant-progress-rate assumption breaks on
// volunteer nodes ("the task progress rate is not constant"), and names
// combining MOON's principles with LATE as future work. This bench measures
// all four: Hadoop1Min, LATE (1-min expiry), MOON-Hybrid, and LATE+MOON
// (LATE's estimator on MOON's suspension semantics) on the sleep(sort)
// workload.
//
// Expected shape: LATE tracks plain Hadoop closely (on homogeneous nodes
// its rate estimator adds little) and inherits Hadoop's kill-based recovery
// costs. MOON-Hybrid wins. LATE+MOON — LATE's estimator on MOON's
// no-kill suspension semantics — performs *worst* at high volatility: LATE's
// one-backup-per-task cap cannot re-rescue a task whose backup also lands on
// a node that later suspends, whereas MOON's frozen-task list explicitly
// bypasses the per-task cap. This quantifies the paper's remark that LATE
// "is not directly applicable to opportunistic environments": the suspension
// semantics only pay off together with MOON's cap-exempt frozen rescue.
void late(Cells& cells) {
  std::cout << "=== Extension: LATE vs Hadoop vs MOON (sleep(sort)) ===\n"
            << "(" << cells.reps() << " repetitions per cell)\n\n";
  scheduling_grid(cells, "Execution time (s)", App::kSort,
                  {"Hadoop1Min", "LATE-1Min", "MOON-Hybrid", "LATE+MOON"});
}

// Extension experiment (paper §III motivation): correlated outages.
//
// "Large-scale, correlated resource inaccessibility can be normal. For
// instance, many machines in a computer lab will be occupied simultaneously
// during a lab session." Independence is the assumption behind volatile-only
// replication arithmetic ("assuming that machine unavailability is
// independent", §I) — this bench breaks it. Full-data sort at 0.4
// unavailability; the outage mix shifts from fully independent to mostly
// lab-session events over 20-node labs; intermediate data is replicated
// either volatile-only (VO-V3) or hybrid (HA-V1).
//
// Measured shape (a genuine, non-obvious negative result): at a *fixed
// average rate*, raising the correlated share makes BOTH variants faster —
// correlation concentrates the same downtime into fewer, longer episodes,
// so there are fewer suspension/fetch-failure events per job, and random
// replica placement across 3 labs rarely co-locates a full replica set.
// The §III hazard is therefore about *event synchronisation* (a lab session
// wiping many tasks at once mid-job, peak unavailability spikes), not about
// time-averaged availability arithmetic; the dedicated copy's value shows
// in the VO-vs-HA gap remaining bounded across the sweep rather than in a
// widening one.
void correlated(Cells& cells) {
  std::cout << "=== Extension: independent vs correlated outages (sort) ===\n"
            << "(rate 0.4; labs of 20 nodes; " << cells.reps()
            << " repetitions per cell)\n\n";
  constexpr double kFractions[] = {0.0, 0.5, 0.9};
  std::vector<std::string> header{"intermediate replication"};
  for (double f : kFractions) {
    header.push_back("correlated " + Table::num(100.0 * f, 0) + "%");
  }
  grid(cells, "sort execution time (s) at 0.4 unavailability", header,
       {"VO-V3 (volatile only)", "HA-V1 (hybrid)"},
       [&](std::size_t r, std::size_t c) {
         Cell cell = replication_cell(App::kSort, r == 0 ? "VO-V3" : "HA-V1", 0.4);
         cell.correlated = kFractions[c];
         return cell;
       });
}

// Extension: reduce-task checkpointing under churn (not in the paper; see
// DESIGN.md § checkpointing).
//
// MOON's answer to losing long-running reduces is pinning them on dedicated
// nodes (§V-C hybrid mode). The checkpoint subsystem attacks the same
// problem without dedicated-aware scheduling: running reduces persist
// shuffle/compute progress into the DFS, and rescheduled attempts resume
// from the latest live checkpoint. This bench sweeps unavailability with
// hybrid awareness OFF and compares checkpointing on vs off — the win
// should grow with the unavailability rate, since higher churn kills more
// nearly-done reduces.
void checkpoint(Cells& cells) {
  const auto config = [](double rate, bool checkpointing) {
    auto cfg = bench::paper_testbed();
    cfg.volatile_nodes = 20;
    cfg.dedicated_nodes = 2;
    // Reduce-heavy workload scaled for bench runtime: long post-shuffle
    // compute makes a killed reduce expensive, which is exactly the regime
    // checkpointing targets.
    cfg.app = small_sort("churn", 5, 480);
    // Non-hybrid on purpose: no dedicated-aware placement to lean on.
    cfg.sched = checkpointing ? experiment::moon_checkpoint_scheduler(false)
                              : experiment::moon_scheduler(false);
    cfg.unavailability_rate = rate;
    cfg.intermediate_kind = dfs::FileKind::kOpportunistic;
    cfg.intermediate_factor = {1, 1};
    return cfg;
  };

  std::cout << "=== Extension: reduce checkpointing under churn ===\n"
            << "(reduce-heavy workload, 20 volatile + 2 dedicated, non-hybrid "
               "MOON scheduling, "
            << cells.reps() << " repetitions)\n\n";
  const std::string title = "Checkpointing on/off vs unavailability (non-hybrid)";
  Table table(title);
  table.columns({"rate", "variant", "time (s)", "speedup", "duplicated",
                 "ckpts", "resumes", "salvaged"});
  for (double rate : {0.2, 0.3, 0.4, 0.5}) {
    double off_time = 0.0;
    for (bool checkpointing : {false, true}) {
      const Summary summary = cells.study(config(rate, checkpointing));
      const double mean = summary.execution_time_s.mean();
      if (!checkpointing) off_time = mean;
      const std::string variant = checkpointing ? "MOON+ckpt" : "MOON";
      table.add_row({Table::num(rate, 1), variant, time_cell(summary),
                     checkpointing && off_time > 0.0
                         ? Table::num(off_time / mean, 2) + "x"
                         : "-",
                     Table::num(summary.duplicated_tasks.mean(), 1),
                     Table::num(summary.checkpoints_written.mean(), 1),
                     Table::num(summary.checkpoint_resumes.mean(), 1),
                     Table::num(summary.checkpoint_salvaged.mean(), 2)});
      cells.record(title, Table::num(rate, 1), variant)
          .field("time_s", mean)
          .field("completed_runs", std::int64_t{summary.completed_runs})
          .field("total_runs", std::int64_t{summary.total_runs})
          .field("duplicated_tasks", summary.duplicated_tasks.mean())
          .field("checkpoints_written", summary.checkpoints_written.mean())
          .field("checkpoint_resumes", summary.checkpoint_resumes.mean())
          .field("progress_salvaged", summary.checkpoint_salvaged.mean());
    }
  }
  table.print(std::cout);
  std::cout << "\n(speedup >1.0x = checkpointing faster; the gap should widen\n"
               "as the unavailability rate grows and more reduces die late.)\n";
}

// Extension: chaos sweep across the fault-injection classes (DESIGN.md §13;
// not in the paper — the paper's churn is availability traces only).
//
// Layers each fault class (and all of them together) on top of the normal
// volatile-fleet churn and measures what the stack does about it: goodput,
// job aborts, repair traffic, checkpoint resumes, quarantines. The invariant
// auditor sweeps every simulated minute in every variant — a violation in
// any cell fails the bench.
void chaos(Cells& cells) {
  // Shuffle-heavy sort scaled for bench runtime; long reduces give the
  // storage / straggler classes something to hurt.
  const auto m = small_sort("chaos", 10, 240);
  const auto config = [&](const std::string& spec) {
    auto cfg = bench::paper_testbed();
    cfg.volatile_nodes = 24;
    cfg.dedicated_nodes = 4;
    cfg.app = m;
    // Checkpointing + quarantine on: chaos is exactly the regime the
    // containment machinery exists for.
    cfg.sched = experiment::moon_checkpoint_scheduler(false);
    cfg.sched.quarantine_threshold = 5;
    cfg.unavailability_rate = 0.3;
    cfg.intermediate_kind = dfs::FileKind::kOpportunistic;
    cfg.intermediate_factor = {1, 1};
    if (!spec.empty() && !experiment::apply_fault_spec(spec, cfg.faults)) {
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
  };
  const std::vector<std::pair<std::string, std::string>> variants{
      {"none", ""},
      {"outages", "outages"},
      {"heartbeats", "heartbeats:0.1"},
      {"storage", "storage:0.05"},
      {"stragglers", "stragglers:0.2"},
      {"all", "all"},
  };
  const int reps = cells.reps();
  std::cout << "=== Extension: chaos sweep across fault classes ===\n"
            << "(24 volatile + 4 dedicated, rate 0.3, MOON+ckpt non-hybrid, "
               "quarantine on, auditor every 60 s, "
            << reps << " repetitions)\n\n";

  const std::string title = "Fault classes vs goodput / aborts / repair traffic";
  Table table(title);
  table.columns({"faults", "time (s)", "goodput (MiB/s)", "aborts",
                 "injected", "repair (MiB)", "resumes", "quarantines",
                 "violations"});
  std::int64_t violations = 0;
  for (const auto& [name, spec] : variants) {
    double repair_bytes = 0.0;
    std::int64_t injected = 0;
    std::int64_t quarantines = 0;
    std::int64_t resumes = 0;
    std::int64_t cell_violations = 0;
    int aborts = 0;
    const Summary summary =
        cells.study(config(spec), [&](const experiment::RunResult& run) {
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
            ? static_cast<double>(m.input_size) / (1024.0 * 1024.0) / mean_s
            : 0.0;
    table.add_row(
        {name, time_cell(summary), Table::num(goodput, 2),
         Table::num(std::int64_t{aborts}),
         Table::num(injected / std::int64_t{reps}),
         Table::num(repair_bytes / (1024.0 * 1024.0) / reps, 1),
         Table::num(resumes / std::int64_t{reps}),
         Table::num(quarantines / std::int64_t{reps}),
         Table::num(cell_violations)});
    cells.record(title, name, "time (s)")
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
  if (violations != 0) {
    cells.fail("chaos: " + std::to_string(violations) + " invariant violations");
  }
}

// Extension: master failover sweep (DESIGN.md §14; not in the paper — MOON
// assumes its masters on dedicated nodes never fail).
//
// Crashes the NameNode and JobTracker mid-job across a grid of master
// downtime × worker unavailability and measures what failover costs: job
// slowdown against a crash-free baseline, measured master downtime, parked
// DFS ops, retry traffic, re-registration and parked-report replay volume.
// Every recovery replays the journal and diffs it against live state — a
// divergence means recovery lost (or invented) a completed task, and any
// divergence or non-completing job fails the bench.
void failover(Cells& cells) {
  // downtime_s == 0 means master_crash off (the baseline cell).
  const auto config = [](double unavailability, int downtime_s) {
    auto cfg = bench::paper_testbed();
    cfg.volatile_nodes = 24;
    cfg.dedicated_nodes = 4;
    // Sort with long-enough reduces that master outages land mid-pipeline,
    // on both the map/shuffle and the output-commit paths.
    cfg.app = small_sort("failover", 10, 180);
    cfg.sched = experiment::moon_scheduler(true);
    cfg.unavailability_rate = unavailability;
    cfg.max_sim_time = 4 * sim::kHour;
    if (downtime_s > 0) {
      cfg.faults.enabled = true;
      cfg.faults.master_crash.enabled = true;
      // Cadence scaled to the ~6-minute job so both masters crash inside it.
      cfg.faults.master_crash.mean_interval = 3 * sim::kMinute;
      cfg.faults.master_crash.min_interval = 60 * sim::kSecond;
      cfg.faults.master_crash.mean_downtime = sim::seconds(downtime_s);
      cfg.faults.master_crash.min_downtime = std::max<sim::Duration>(
          sim::seconds(downtime_s) / 2, 5 * sim::kSecond);
      cfg.faults.master_crash.max_crashes = 2;
    }
    return cfg;
  };

  const int reps = cells.reps();
  std::cout << "=== Extension: master failover — downtime x unavailability ===\n"
            << "(24 volatile + 4 dedicated, MOON hybrid, both masters crash "
               "up to 2x each, "
            << reps << " repetitions)\n\n";

  const std::string title = "Master downtime vs job slowdown / recovery work";
  Table table(title);
  table.columns({"unavail", "downtime (s)", "time (s)", "slowdown",
                 "crashes", "down (s)", "parked", "retries", "replayed",
                 "rereg", "orphans", "diverg"});
  std::int64_t divergences_total = 0;
  std::int64_t violations_total = 0;
  int incomplete = 0;
  for (const double unavail : {0.3, 0.5}) {
    double baseline_s = 0.0;
    for (const int downtime_s : {0, 30, 120, 300}) {
      std::int64_t crashes = 0;
      std::int64_t recoveries = 0;
      double down_s = 0.0;
      std::int64_t parked = 0;
      std::int64_t retries = 0;
      std::int64_t replayed = 0;
      std::int64_t reregs = 0;
      std::int64_t orphans = 0;
      std::int64_t divergences = 0;
      const Summary summary = cells.study(
          config(unavail, downtime_s), [&](const experiment::RunResult& run) {
            crashes += run.fault_stats.namenode_crashes +
                       run.fault_stats.jobtracker_crashes;
            recoveries += run.fault_stats.master_recoveries;
            down_s += sim::to_seconds(run.fault_stats.master_downtime);
            parked += run.dfs_stats.ops_parked + run.reports_parked;
            retries += run.dfs_stats.master_retries;
            replayed += run.reports_replayed;
            reregs += run.reregistrations;
            orphans += run.orphans_killed;
            divergences += run.journal_divergences;
            violations_total += run.audit_violations;
            // Every crash that fired inside the run recovered inside it too
            // (the run only ends once the job completes or the horizon hits).
            if (!run.finished || run.fault_stats.master_recoveries !=
                                     run.fault_stats.namenode_crashes +
                                         run.fault_stats.jobtracker_crashes) {
              ++incomplete;
            }
          });
      divergences_total += divergences;

      const double mean_s = summary.execution_time_s.mean();
      if (downtime_s == 0) baseline_s = mean_s;
      const double slowdown = baseline_s > 0.0 ? mean_s / baseline_s : 0.0;
      table.add_row({Table::num(unavail, 1), Table::num(std::int64_t{downtime_s}),
                     time_cell(summary), Table::num(slowdown, 2),
                     Table::num(crashes / std::int64_t{reps}),
                     Table::num(down_s / reps, 1),
                     Table::num(parked / std::int64_t{reps}),
                     Table::num(retries / std::int64_t{reps}),
                     Table::num(replayed / std::int64_t{reps}),
                     Table::num(reregs / std::int64_t{reps}),
                     Table::num(orphans / std::int64_t{reps}),
                     Table::num(divergences)});
      cells.record(title, Table::num(unavail, 1), std::to_string(downtime_s))
          .field("time_s", mean_s)
          .field("slowdown", slowdown)
          .field("completed_runs", std::int64_t{summary.completed_runs})
          .field("total_runs", std::int64_t{summary.total_runs})
          .field("master_crashes", crashes)
          .field("master_recoveries", recoveries)
          .field("master_downtime_s", down_s)
          .field("ops_parked", parked)
          .field("master_retries", retries)
          .field("reports_replayed", replayed)
          .field("reregistrations", reregs)
          .field("orphans_killed", orphans)
          .field("journal_divergences", divergences);
    }
  }
  table.print(std::cout);
  if (divergences_total != 0) {
    cells.fail("failover: " + std::to_string(divergences_total) +
               " journal divergences — recovery lost or invented state");
  }
  if (violations_total != 0) {
    cells.fail("failover: " + std::to_string(violations_total) +
               " audit violations");
  }
  if (incomplete != 0) {
    cells.fail("failover: " + std::to_string(incomplete) +
               " runs did not complete or left a master crash unrecovered");
  }
}

// Extension: multi-job scheduling policies under churn (not in the paper;
// the paper names concurrent-job scheduling as future work — see DESIGN.md
// §10).
//
// A mixed arrival stream (one large shuffle-heavy job leading, small
// compute-light jobs trailing) lands on an opportunistic cluster at 0.3 and
// 0.5 unavailability. FIFO hands every freed slot to the oldest unfinished
// job, so the leading large job starves the small ones; fair-share offers
// slots by deficit (running attempts relative to remaining work), which
// interleaves the stream and cuts mean job latency; SRTF gives the smallest
// remaining job strict priority, cutting small-job latency further at the
// cost of the large job's finish time.
void multijob(Cells& cells) {
  using JobPolicy = mapred::SchedulerConfig::JobPolicy;
  // Large leading job: shuffle-heavy, many tasks — the FIFO monopolist.
  workload::WorkloadModel large;
  large.name = "large-sort";
  large.kind = workload::AppKind::kSort;
  // ~6 map waves on the 16-slot cluster below, so its pending-map pool stays
  // non-empty long after the small jobs arrive — the FIFO starvation regime.
  // Fewer reduces than reduce slots, or eagerly launched large reduces would
  // wedge every policy equally.
  large.num_maps = 96;
  large.fixed_reduces = 8;
  large.map_compute = sim::seconds(30);
  large.reduce_compute = sim::seconds(60);
  large.intermediate_per_map = mib(8.0);
  large.input_size = static_cast<Bytes>(large.num_maps) * mib(8.0);
  large.total_output = mib(384.0);
  large.input_block_bytes = mib(8.0);
  // Small trailing jobs: a handful of quick tasks each — the starved tenants.
  workload::WorkloadModel small;
  small.name = "small-wc";
  small.kind = workload::AppKind::kWordCount;
  small.num_maps = 6;
  small.fixed_reduces = 2;
  small.map_compute = sim::seconds(15);
  small.reduce_compute = sim::seconds(10);
  small.intermediate_per_map = mib(0.5);
  small.input_size = static_cast<Bytes>(small.num_maps) * mib(8.0);
  small.total_output = mib(8.0);
  small.input_block_bytes = mib(8.0);
  const auto config = [&](double rate, JobPolicy policy, std::uint64_t seed) {
    experiment::MultiJobConfig cfg;
    cfg.base = bench::paper_testbed();
    cfg.base.volatile_nodes = 6;
    cfg.base.dedicated_nodes = 2;
    cfg.base.sched = experiment::moon_scheduler(true);
    cfg.base.sched.job_policy = policy;
    cfg.base.unavailability_rate = rate;
    cfg.base.intermediate_kind = dfs::FileKind::kOpportunistic;
    cfg.base.intermediate_factor = {1, 1};
    cfg.base.input_factor = {1, 2};
    cfg.base.output_factor = {1, 2};
    cfg.base.seed = seed;
    cfg.base.max_sim_time = 12 * sim::kHour;
    // Keep the historical mean-latency semantics: a policy that leaves a job
    // unfinished at the horizon pays for it in the mean (the ordering check
    // below depends on that penalty).
    cfg.count_dnf_latencies = true;

    // One large job arrives first, four small jobs trail it at fixed offsets
    // (round-robin over a mix that leads with the large model): the regime
    // where submission-order scheduling visibly starves small tenants.
    cfg.arrivals.process = workload::ArrivalConfig::Process::kFixedOffset;
    cfg.arrivals.num_jobs = 5;
    cfg.arrivals.first_arrival = sim::kMinute;
    cfg.arrivals.fixed_offset = 30 * sim::kSecond;
    cfg.arrivals.round_robin_mix = true;
    cfg.arrivals.mix = {
        {large, 1.0}, {small, 1.0}, {small, 1.0}, {small, 1.0}, {small, 1.0}};
    return cfg;
  };

  const int reps = cells.reps();
  std::cout << "=== Extension: multi-job policies on a mixed arrival stream ===\n"
            << "(1 large sort + 4 small wordcounts, 6 volatile + 2 dedicated,\n"
            << " MOON-Hybrid data management, " << reps << " repetitions)\n\n";

  const std::string title = "FIFO vs fair-share vs SRTF under churn";
  Table table(title);
  table.columns({"rate", "policy", "mean lat (s)", "small lat (s)",
                 "p95 lat (s)", "makespan (s)", "Jain", "done"});
  bool ordering_ok = true;
  for (double rate : {0.3, 0.5}) {
    double fifo_mean = 0.0;
    double fair_small = 0.0;
    for (JobPolicy policy : {JobPolicy::kFifo, JobPolicy::kFairShare,
                             JobPolicy::kShortestRemaining}) {
      double mean_latency = 0.0;
      double p95_latency = 0.0;
      double makespan = 0.0;
      double jain = 0.0;
      double small_mean_latency = 0.0;
      int completed = 0;
      int jobs = 0;
      for (int rep = 0; rep < reps; ++rep) {
        const auto result = cells.stream(
            config(rate, policy, 20100621 + static_cast<std::uint64_t>(rep)));
        mean_latency += result.mean_latency_s;
        p95_latency += result.p95_latency_s;
        makespan += result.makespan_s;
        jain += result.jain_fairness;
        completed += result.completed_jobs;
        jobs += result.submitted_jobs;
        double small_sum = 0.0;
        int small_n = 0;
        for (const auto& job : result.jobs) {
          if (job.name == "small-wc") {
            small_sum += job.latency_s;
            ++small_n;
          }
        }
        if (small_n > 0) small_mean_latency += small_sum / small_n;
      }
      mean_latency /= reps;
      p95_latency /= reps;
      makespan /= reps;
      jain /= reps;
      small_mean_latency /= reps;

      if (policy == JobPolicy::kFifo) fifo_mean = mean_latency;
      if (policy == JobPolicy::kFairShare) {
        fair_small = small_mean_latency;
        if (mean_latency >= fifo_mean) ordering_ok = false;
      }
      if (policy == JobPolicy::kShortestRemaining &&
          small_mean_latency >= fair_small) {
        ordering_ok = false;
      }

      const std::string name = mapred::to_string(policy);
      table.add_row({Table::num(rate, 1), name, Table::num(mean_latency, 0),
                     Table::num(small_mean_latency, 0),
                     Table::num(p95_latency, 0), Table::num(makespan, 0),
                     Table::num(jain, 3),
                     std::to_string(completed) + "/" + std::to_string(jobs)});
      cells.record(title, Table::num(rate, 1), name)
          .field("mean_latency_s", mean_latency)
          .field("small_mean_latency_s", small_mean_latency)
          .field("p95_latency_s", p95_latency)
          .field("makespan_s", makespan)
          .field("jain_fairness", jain)
          .field("completed_jobs", std::int64_t{completed})
          .field("submitted_jobs", std::int64_t{jobs});
    }
  }
  table.print(std::cout);
  std::cout << "\n(expected shape: fair-share beats FIFO on mean latency;\n"
               "SRTF beats fair-share on small-job latency. FIFO's makespan\n"
               "can be the best of the three — it finishes the big job first\n"
               "— which is exactly the latency/throughput trade.)\n";
  if (!ordering_ok) {
    cells.fail("multijob: expected policy ordering did not hold on this "
               "config/seed set");
  }
}

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
// Each cell is one seed, not reps() of them; `--faults=SPEC` layers on every
// cell, the built-in chaos spec of the faulted cells included.
void steady(Cells& cells) {
  const auto steady_job = [](const std::string& name, int priority) {
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
  };
  struct AdmissionVariant {
    std::string name;
    bool enabled = false;
    mapred::AdmissionConfig::Policy policy =
        mapred::AdmissionConfig::Policy::kRejectNewest;
  };
  const auto steady_config = [&](double rate, sim::Duration interarrival,
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
  };

  const std::vector<double> rates{0.3, 0.5};
  // The cluster clears ~80 of these small jobs/hour: 15 s interarrivals
  // (~240/h) are a 3x overload whose backlog grows all run long, 6 min
  // (~10/h) a comfortable steady state.
  const std::vector<std::pair<std::string, sim::Duration>> loads{
      {"overload", 15 * sim::kSecond}, {"sustainable", 6 * sim::kMinute}};
  const std::vector<std::pair<std::string, std::string>> fault_modes{
      {"none", ""}, {"chaos", "outages,heartbeats:0.05"}};
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

  const std::string title = "Open stream: load x rate x faults x admission";
  Table table(title);
  table.columns({"load", "rate", "faults", "admission", "jobs/h", "p99 (s)",
                 "SLA miss", "rej", "shed", "peak live", "peak KiB"});
  bool bounded_ok = true;
  for (const auto& [load_name, interarrival] : loads) {
    for (double rate : rates) {
      for (const auto& [fault_name, fault_spec] : fault_modes) {
        int baseline_peak_live = 0;
        for (const AdmissionVariant& variant : variants) {
          const auto cfg =
              steady_config(rate, interarrival, fault_spec, variant);
          const std::string cell = load_name + " rate=" + Table::num(rate, 1) +
                                   " faults=" + fault_name +
                                   " admission=" + variant.name;
          const auto first = cells.stream(cfg);
          const auto second = cells.stream(cfg);
          const std::string fp1 = experiment::fingerprint(first);
          if (fp1 != experiment::fingerprint(second)) {
            cells.fail("steady: NONDETERMINISTIC " + cell + "\n  run1: " +
                       fp1 + "\n  run2: " + experiment::fingerprint(second));
          }
          if (first.audit_violations != 0) {
            cells.fail("steady: AUDIT VIOLATIONS " + cell);
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
          cells.record(title, load_name + " " + Table::num(rate, 1) + " " +
                                  fault_name, variant.name)
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
  const std::string edf_title = "Deadline stream: FIFO vs deadline-EDF";
  Table edf_table(edf_title);
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

      const auto result = cells.stream(cfg);
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
      cells.record(edf_title, Table::num(rate, 1), name)
          .field("sla_miss_rate", miss)
          .field("sla_eligible_jobs", std::int64_t{result.sla_eligible_jobs})
          .field("sla_missed_jobs", std::int64_t{result.sla_missed_jobs})
          .field("p99_latency_s", result.p99_latency_s);
    }
  }
  edf_table.print(std::cout);
  std::cout << "\n(expected shape: without admission the overload cells' peak\n"
               "live jobs grow far past the cap while reject/shed hold it at\n"
               "the cap with bounded retained bytes; deadline-EDF's SLA miss\n"
               "rate never exceeds FIFO's.)\n";
  if (!bounded_ok) {
    cells.fail("steady: admission did not bound the backlog below the "
               "no-admission baseline");
  }
  if (!edf_ok) cells.fail("steady: deadline-EDF missed more SLAs than FIFO");
}

struct PaperTable {
  const char* name;
  void (*print)(Cells&);
};

constexpr PaperTable kTables[] = {
    {"fig1", fig1},   {"table1", table1},     {"fig4", fig4},
    {"fig5", fig5},   {"fig6", fig6},         {"table2", table2},
    {"fig7", fig7},   {"ablation", ablation}, {"late", late},
    {"correlated", correlated}, {"checkpoint", checkpoint}, {"chaos", chaos},
    {"failover", failover},     {"multijob", multijob},     {"steady", steady},
};

}  // namespace

int main(int argc, char** argv) {
  Cells cells(argc, argv);
  std::vector<const PaperTable*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    const auto* it = std::find_if(std::begin(kTables), std::end(kTables),
                                  [&](const PaperTable& t) { return t.name == name; });
    if (it == std::end(kTables)) {
      std::cerr << "bench_paper: unknown table '" << name << "' (tables:";
      for (const PaperTable& t : kTables) std::cerr << ' ' << t.name;
      std::cerr << ")\n";
      return 2;
    }
    selected.push_back(it);
  }
  const bool full_run = selected.empty();
  if (full_run) {
    for (const PaperTable& t : kTables) selected.push_back(&t);
  }

  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i > 0) std::cout << '\n';
    selected[i]->print(cells);
  }
  std::cout << "\n(" << cells.simulated() << " cells simulated, "
            << cells.reps() << " repetitions each";
  if (cells.streams() > 0) std::cout << "; " << cells.streams() << " job streams";
  std::cout << ")\n";
  if (full_run) {
    const std::string path = cells.write_json();
    if (!path.empty()) std::cout << "(json: " << path << ")\n";
  }
  cells.export_obs();
  for (const std::string& failure : cells.failures()) {
    std::cerr << "FAIL: " << failure << '\n';
  }
  return cells.failures().empty() ? 0 : 1;
}
