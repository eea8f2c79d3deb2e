// Shared command-line flags for examples and benches, read from one flag
// table in one argv pass. parse_scenario_flags() strips them out of argv, so
// positional-argument parsing stays untouched:
//
//   --faults=SPEC       seeded chaos, layered on the config's faults (grammar
//                       in experiment/fault_cli.hpp)
//   --admission=POLICY[:MAX_QUEUED[:MAX_LIVE_ATTEMPTS]]
//                       admission control (DESIGN.md §16). POLICY is reject |
//                       defer | shed. MAX_QUEUED caps unfinished admitted
//                       jobs (default 8, 0 = unlimited); MAX_LIVE_ATTEMPTS
//                       caps in-flight attempts (default 0 = unlimited).
//   --deadline=SECONDS  relative SLA deadline (> 0) on every model of a job
//                       stream's mix, for kDeadlineEdf and SLA accounting
//   --trace=FILE        Chrome trace-event JSON (open in ui.perfetto.dev)
//   --metrics=FILE      gauge time-series CSV (one row per sampling tick)
//   --events=FILE       structured event log as JSONL
//
// Every value is checked while parsing: a malformed one is reported to
// stderr and parse_scenario_flags() exits 2, so a run never silently drops
// a flag. e.g. `quickstart --faults=all,audit:30 --trace=t.json` or
// `multi_job --admission=defer:4:40 --deadline=1800`.
#pragma once

#include <optional>
#include <string>

#include "experiment/fault_cli.hpp"
#include "mapred/types.hpp"
#include "obs/observability.hpp"

namespace moon::experiment {

struct ScenarioConfig;
struct MultiJobConfig;

/// Parses one POLICY[:MAX_QUEUED[:MAX_LIVE_ATTEMPTS]] spec into `config`
/// (sets enabled = true). Returns false and reports to stderr on a
/// malformed spec; `config` may be partially updated in that case.
bool apply_admission_spec(const std::string& spec,
                          mapred::AdmissionConfig& config);

/// The flags one command line gave; each field is empty/0 when absent.
struct ScenarioFlags {
  std::string faults;
  std::string admission;
  double deadline_s = 0.0;
  std::string trace_path;
  std::string metrics_path;
  std::string events_path;

  [[nodiscard]] bool any_obs() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !events_path.empty();
  }

  /// Layers --faults= and --admission= onto `config`.
  void apply(ScenarioConfig& config) const;
  /// apply(config.base), plus --deadline= on every model of the mix.
  void apply(MultiJobConfig& config) const;
  /// Enables the ObsConfig pieces the requested exports need.
  void apply_obs(obs::ObsConfig& config) const;

  /// Writes the requested export files from a finalized bundle; prints one
  /// confirmation line per file to stderr. No-op on null `bundle` (obs was
  /// never enabled) — callers can pass RunResult::obs.get() unconditionally.
  void export_run(const obs::Observability* bundle) const;
};

/// Extracts every table flag from argv, compacting the remaining arguments
/// in place and updating argc. Returns nullopt after reporting the first
/// malformed value to stderr.
std::optional<ScenarioFlags> try_parse_scenario_flags(int& argc, char** argv);

/// try_parse_scenario_flags(), exiting 2 on a malformed value.
ScenarioFlags parse_scenario_flags(int& argc, char** argv);

}  // namespace moon::experiment
