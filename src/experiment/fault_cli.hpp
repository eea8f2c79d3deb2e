// The `--faults=SPEC` grammar (the flag itself is parsed with the others in
// experiment/flags.hpp). SPEC is a comma-separated list:
//
//   all              every fault class at its canonical chaos level
//   outages          correlated lab power-cycles (config defaults)
//   heartbeats[:P]   heartbeat loss/delay; P sets both probabilities (0.05)
//   storage[:P]      replica corruption + disk-full; P sets both (0.02)
//   stragglers[:F]   seeded capacity degradation; F = fleet fraction (0.1)
//   audit[:SECONDS]  periodic invariant auditor sweep (60)
//   master_crash[:S] NameNode + JobTracker crash/recovery; S = mean downtime
//
// e.g. `quickstart --faults=all,audit:30` or
//      `bench_paper fig7 --faults=heartbeats:0.1,storage`.
#pragma once

#include <string>

#include "faults/fault_config.hpp"

namespace moon::experiment {

/// Parses one chaos spec token list into `config` (additive — earlier
/// settings survive unless a token overwrites them). Returns false and
/// reports to stderr on a malformed token; `config` may be partially
/// updated in that case.
bool apply_fault_spec(const std::string& spec, faults::FaultConfig& config);

}  // namespace moon::experiment
