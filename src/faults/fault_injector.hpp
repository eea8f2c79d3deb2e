// Seeded, deterministic fault injection (DESIGN.md §13).
//
// The FaultInjector installs itself on the Simulation the way the obs layer
// installs its tracer: instrumented call sites (TaskTracker heartbeats, DFS
// replica stores and reads) reach it through `sim.faults()` and pay one
// pointer load and branch when faults are off. Each fault class owns a
// child RNG stream forked from the injector's seed, so enabling or tuning
// one class never perturbs the schedule another class injects — and the
// whole subsystem draws nothing from the simulation's main stream, so a
// faults-off run is bit-identical to a build without the subsystem.
//
// Correlated outages are driven by simulation events the injector schedules
// itself (group down -> group up -> next cycle); the other classes are
// consulted synchronously at the instrumented call sites and answer from
// their private streams.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "faults/fault_config.hpp"
#include "obs/trace.hpp"
#include "simkit/fault_hooks.hpp"
#include "simkit/simulation.hpp"

namespace moon::dfs {
class Dfs;
}  // namespace moon::dfs

namespace moon::mapred {
class JobTracker;
}  // namespace moon::mapred

namespace moon::faults {

/// Injection counters (gauges and benches read these).
struct FaultStats {
  std::int64_t outages_injected = 0;      ///< group power-cycle down events
  std::int64_t heartbeats_dropped = 0;
  std::int64_t heartbeats_delayed = 0;
  std::int64_t replicas_corrupted = 0;
  std::int64_t writes_rejected = 0;
  std::int64_t corruptions_detected = 0;  ///< checksum-on-read hits
  std::int64_t stragglers_injected = 0;
  std::int64_t namenode_crashes = 0;      ///< master_crash: NameNode downs
  std::int64_t jobtracker_crashes = 0;    ///< master_crash: JobTracker downs
  std::int64_t master_recoveries = 0;     ///< completed recovery sequences
  sim::Duration master_downtime = 0;      ///< cumulative injected master outage

  [[nodiscard]] std::int64_t total_injected() const {
    return outages_injected + heartbeats_dropped + heartbeats_delayed +
           replicas_corrupted + writes_rejected + stragglers_injected +
           namenode_crashes + jobtracker_crashes;
  }
};

class FaultInjector : public sim::FaultHooks {
 public:
  FaultInjector(sim::Simulation& sim, cluster::Cluster& cluster,
                FaultConfig config, std::uint64_t seed);
  /// Clears the Simulation's faults pointer if it still points here.
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs this injector on the Simulation (sim.faults() call sites see
  /// it) and arms the autonomous fault classes: groups `volatile_ids` into
  /// labs, schedules the first power cycles, and applies straggler
  /// degradation. Call once, before the run starts.
  void arm(const std::vector<NodeId>& volatile_ids);

  /// Arms the master_crash fault class (DESIGN.md §14): draws the full
  /// crash/recovery schedule for each enabled master up-front (NameNode
  /// stream first, so the two masters' draws never interleave) and schedules
  /// the crash → downtime → recover cycles. Every recovery ends with a
  /// mandatory `post_recovery_audit()` sweep when a callback is supplied
  /// (the experiment layer passes the audit::Auditor's run() — the injector
  /// itself stays below the audit layer). Call after arm(), once the masters
  /// exist; a disabled class schedules nothing.
  void schedule_master_crashes(dfs::Dfs* dfs, mapred::JobTracker* jobtracker,
                               std::function<void()> post_recovery_audit);

  // ---- synchronous consultation points (sim::FaultHooks) ------------------

  using HeartbeatFate = sim::HeartbeatFate;

  /// Fate of one TaskTracker->JobTracker heartbeat.
  HeartbeatFate heartbeat_fate(NodeId node) override;

  /// True when a replica of `block` landing on `node` should be silently
  /// corrupted (the DataNode keeps the bytes; checksum-on-read will catch it).
  bool corrupt_replica(BlockId block, NodeId node) override;

  /// True when the store of `block` on `node` should be rejected outright
  /// (disk-full: the replica never lands).
  bool reject_write(BlockId block, NodeId node) override;

  /// DFS reports a checksum-on-read detection (counter + trace/log only).
  void note_corruption_detected(BlockId block, NodeId node) override;

  // ---- introspection ------------------------------------------------------

  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<NodeId>& stragglers() const {
    return stragglers_;
  }

 private:
  void schedule_cycle(std::size_t group);
  void group_down(std::size_t group);
  void group_up(std::size_t group);
  void fault_instant(std::uint32_t pid, std::uint32_t track, const char* name,
                     NodeId node);
  void crash_master(bool namenode, dfs::Dfs* dfs, mapred::JobTracker* jobtracker);
  void recover_master(bool namenode, dfs::Dfs* dfs,
                      mapred::JobTracker* jobtracker);

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  FaultConfig config_;
  // One private stream per fault class (see file comment).
  Rng outage_rng_;
  Rng heartbeat_rng_;
  Rng storage_rng_;
  Rng straggler_rng_;
  Rng master_rng_;

  std::vector<std::vector<NodeId>> groups_;  ///< cycling groups only
  std::vector<NodeId> stragglers_;
  std::function<void()> post_recovery_audit_;  ///< mandatory post-recovery sweep
  FaultStats stats_;
  bool armed_ = false;
  /// Open downtime trace spans, one per master (index 0 = NameNode).
  obs::Tracer::SpanId master_span_[2];
  sim::Time master_crash_at_[2] = {0, 0};
};

}  // namespace moon::faults
