// Shared helpers for the bench harnesses: JSON emission, repetition count,
// table cells and the paper's testbed. bench_paper regenerates the paper's
// tables and figures; absolute numbers differ from System X, the *shapes*
// (orderings, crossovers, rough factors) are the reproduction target — see
// DESIGN.md §6.
#pragma once

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/table.hpp"
#include "experiment/scenario.hpp"

namespace moon::bench {

/// Machine-readable bench output: collects flat rows and writes
/// `BENCH_<name>.json` (an array of objects) so the perf trajectory can
/// accumulate across runs. Files land in $MOON_BENCH_JSON_DIR (default:
/// current directory); MOON_BENCH_JSON=0 disables emission entirely.
class JsonEmitter {
 public:
  using Value = std::variant<std::string, double, std::int64_t>;

  explicit JsonEmitter(std::string name) : name_(std::move(name)) {}

  JsonEmitter& begin_row() {
    rows_.emplace_back();
    return *this;
  }
  JsonEmitter& field(const std::string& key, Value value) {
    if (rows_.empty()) begin_row();
    rows_.back().emplace_back(key, std::move(value));
    return *this;
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "[\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "  {";
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        os << '"' << escape(rows_[r][f].first) << "\": ";
        const Value& v = rows_[r][f].second;
        if (const auto* s = std::get_if<std::string>(&v)) {
          os << '"' << escape(*s) << '"';
        } else if (const auto* d = std::get_if<double>(&v)) {
          os << *d;
        } else {
          os << std::get<std::int64_t>(v);
        }
        if (f + 1 < rows_[r].size()) os << ", ";
      }
      os << (r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    os << "]\n";
    return os.str();
  }

  /// Writes BENCH_<name>.json; returns the path, or "" when disabled.
  std::string write() const {
    if (const char* flag = std::getenv("MOON_BENCH_JSON")) {
      if (std::string(flag) == "0") return {};
    }
    std::string dir = ".";
    if (const char* env = std::getenv("MOON_BENCH_JSON_DIR")) dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) return {};
    out << to_json();
    return path;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, Value>>> rows_;
};

/// Repetitions per configuration: MOON_BENCH_REPS, default 3. A value that
/// is not a positive integer is reported to stderr and exits 2, like a
/// malformed flag.
inline int repetitions() {
  const char* env = std::getenv("MOON_BENCH_REPS");
  if (env == nullptr) return 3;
  const std::string_view text(env);
  int reps = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), reps);
  if (ec != std::errc{} || end != text.data() + text.size() || reps <= 0) {
    std::cerr << "error: MOON_BENCH_REPS=" << text
              << " is not a positive integer\n";
    std::exit(2);
  }
  return reps;
}

/// Formats "mean" or "DNF" when not all repetitions completed.
inline std::string time_cell(const experiment::Summary& summary) {
  std::string cell = Table::num(summary.execution_time_s.mean(), 0);
  if (summary.completed_runs < summary.total_runs) {
    cell += " (" + std::to_string(summary.total_runs - summary.completed_runs) +
            " DNF)";
  }
  return cell;
}

/// Scenario skeleton for the paper's testbed: 60 volatile + 6 dedicated
/// nodes, MOON data management, {1,3} input/output replication.
inline experiment::ScenarioConfig paper_testbed() {
  experiment::ScenarioConfig cfg;
  cfg.volatile_nodes = 60;
  cfg.dedicated_nodes = 6;
  cfg.dedicated_known = true;
  cfg.dfs = experiment::moon_dfs_config();
  cfg.input_factor = {1, 3};
  cfg.output_factor = {1, 3};
  cfg.seed = 20100621;  // HPDC 2010 :-)
  return cfg;
}

}  // namespace moon::bench
