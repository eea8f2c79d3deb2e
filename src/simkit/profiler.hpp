// Wall-clock profiler for the simulator's hot paths.
//
// Perf work on this codebase has repeatedly moved the bottleneck (solver ->
// scheduler -> event loop); the profiler makes the current one visible
// instead of guessed. Each `Key` names a hot path; components open a
// `Profiler::Scope` around it and the per-Simulation `Profiler` accumulates
// real (host) nanoseconds plus call counts. Purely observational: nothing in
// here reads or feeds simulated time, so instrumentation can never perturb
// an outcome. Snapshots ride along in `RunResult`/`MultiJobResult` and the
// benches print the breakdown (see DESIGN.md §11).
//
// Nesting: kRecompute runs inside kSettle, and kSpeculation inside
// kHeartbeat — the inner keys are sub-spans of the outer ones, so the
// per-key totals are not additive across those pairs.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace moon::sim {

class Profiler {
 public:
  enum class Key : std::size_t {
    kSettle,           ///< FlowNetwork::settle (includes retire + recompute)
    kRecompute,        ///< rate recompute only (sub-span of kSettle)
    kDfsProbe,         ///< Dfs::probe_ops stalled-transfer sweeps
    kReplicationScan,  ///< Dfs::replication_scan + repair stream refill
    kHeartbeat,        ///< JobTracker::assign_work per heartbeat
    kSpeculation,      ///< SpeculationPolicy::pick (sub-span of kHeartbeat)
    kEventDispatch,    ///< Simulation::step callback dispatch (outermost:
                       ///< every other key is a sub-span of this one)
    kCheckpoint,       ///< CheckpointStore emit + attempt restore
    kNameNodeSweep,    ///< NameNode liveness + estimate scans (death and
                       ///< hibernation sweeps, adaptive-v' refresh)
    kCount,
  };
  static constexpr std::size_t kKeyCount = static_cast<std::size_t>(Key::kCount);

  struct Counter {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
    [[nodiscard]] double ms() const { return static_cast<double>(ns) / 1e6; }
  };
  /// Value-type copy of all counters (what RunResult carries).
  using Snapshot = std::array<Counter, kKeyCount>;

  /// RAII span: accumulates elapsed wall time into `key` on destruction.
  class Scope {
   public:
    Scope(Profiler& profiler, Key key)
        : profiler_(profiler),
          key_(key),
          // detlint: allow(wall-clock) -- the profiler meters real elapsed wall time by design; its counters feed RunResult diagnostics only and never a simulated outcome
          start_(std::chrono::steady_clock::now()) {}
    ~Scope() {
      profiler_.add(key_, static_cast<std::uint64_t>(
                              std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  // detlint: allow(wall-clock) -- profiler wall metering; diagnostics only, never a simulated outcome
                                  std::chrono::steady_clock::now() - start_)
                                  .count()));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler& profiler_;
    Key key_;
    std::chrono::steady_clock::time_point start_;  // detlint: allow(wall-clock) -- profiler wall metering; diagnostics only, never a simulated outcome
  };

  void add(Key key, std::uint64_t ns) {
    Counter& c = counters_[static_cast<std::size_t>(key)];
    c.ns += ns;
    ++c.calls;
  }

  [[nodiscard]] const Counter& counter(Key key) const {
    return counters_[static_cast<std::size_t>(key)];
  }
  [[nodiscard]] Snapshot snapshot() const { return counters_; }
  void reset() { counters_ = {}; }

  static const char* name(Key key);

 private:
  Snapshot counters_{};
};

}  // namespace moon::sim
