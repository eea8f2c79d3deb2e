// detlint rules: the mechanized determinism contract (DESIGN.md §15).
//
// Five rules, each mapped to a clause of the DESIGN.md §2 contract:
//
//   unordered-iter  No range-for / iterator loops over std::unordered_map /
//                   std::unordered_set in src/ — hash-order iteration is the
//                   PR-4 bug class (state changes in hash order diverge
//                   across libstdc++ versions and insertion histories).
//   wall-clock      No ambient nondeterminism sources: wall clocks
//                   (system_clock / steady_clock::now, time(), gettimeofday),
//                   unseeded randomness (rand, srand, std::random_device,
//                   std::shuffle, std:: engines like mt19937). All randomness
//                   must flow from a forked moon::Rng stream; all time from
//                   sim::Simulation. src/common/rng.* (the sanctioned RNG)
//                   is exempt by path.
//   ptr-order       No pointer-keyed ordered containers (std::map<T*, ...>,
//                   std::set<T*>, priority_queue over pointers, std::less<T*>)
//                   — address order varies run to run under ASLR/allocators.
//   layering        #include edges in src/ must follow the architecture DAG
//                   (common → simkit/trace → obs → cluster/dfs/recovery
//                   → checkpoint/mapred/faults → audit/workload → experiment);
//                   a layer may include itself, peers of the same rank, and
//                   anything below — never above.
//   shared-state    No process-global mutable state in src/: namespace-scope
//                   variables, static locals and static data members must be
//                   const or constexpr. Every piece of a run's state lives in
//                   an object the run owns, so runs in one process (or on
//                   separate threads) cannot see each other.
//
// Suppression: a finding is allowed only by an inline annotation
//   // detlint: allow(<rule>) -- <justification>
// on the same line, or on an immediately preceding standalone comment line.
// The justification is mandatory; an annotation that suppresses nothing is a
// *stale-annotation* finding in its own right, so allows cannot rot.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace detlint {

struct Finding {
  std::string file;   ///< path as given to the scanner
  int line = 0;
  std::string rule;   ///< rule id, or "stale-annotation" / "bad-annotation"
  std::string message;
};

/// What part of the tree a file belongs to; controls which rules run.
enum class FileClass {
  kSrc,    ///< src/** — all five rules
  kOther,  ///< bench/tests/examples — wall-clock + ptr-order only
};

struct ScanOptions {
  FileClass file_class = FileClass::kSrc;
  /// Layer name derived from the path (e.g. "dfs" for src/dfs/namenode.cpp);
  /// empty = layering rule skipped (may be overridden by a
  /// `detlint: fixture-layer(<name>)` directive inside the file).
  std::string layer;
  /// Exempt from the wall-clock rule (sim::Rng internals).
  bool rng_internals = false;
};

/// Layer ranks for the include-layering rule. Exposed for the tree walker
/// (to derive `ScanOptions::layer`) and for tests.
const std::map<std::string, int, std::less<>>& layer_ranks();

/// Scans one file's contents. `companion` holds extra declaration context —
/// for foo.cpp pass the text of the sibling foo.hpp (or empty) so member
/// containers declared in the header are tracked when iterated in the .cpp.
std::vector<Finding> scan_source(std::string_view path, std::string_view text,
                                 std::string_view companion,
                                 const ScanOptions& opts);

/// Formats a finding as "file:line: [rule] message".
std::string format_finding(const Finding& f);

}  // namespace detlint
