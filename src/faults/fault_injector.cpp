#include "faults/fault_injector.hpp"

#include <algorithm>
#include <utility>
#include <string>

#include "dfs/dfs.hpp"
#include "mapred/jobtracker.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace moon::faults {
namespace {

/// Exponential draw in integer microseconds, floored at `min` (never 0 so
/// rescheduling loops always advance the clock).
sim::Duration exp_duration(Rng& rng, sim::Duration mean, sim::Duration min) {
  const auto d = static_cast<sim::Duration>(
      rng.exponential(static_cast<double>(mean)));
  return std::max<sim::Duration>({d, min, 1});
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulation& sim, cluster::Cluster& cluster,
                             FaultConfig config, std::uint64_t seed)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      // One fork per class: tuning or disabling one class leaves the draw
      // sequences — and hence the injected schedules — of the others intact.
      outage_rng_(Rng{seed}.fork("faults.outage")),
      heartbeat_rng_(Rng{seed}.fork("faults.heartbeat")),
      storage_rng_(Rng{seed}.fork("faults.storage")),
      straggler_rng_(Rng{seed}.fork("faults.straggler")),
      master_rng_(Rng{seed}.fork("faults.master")) {}

FaultInjector::~FaultInjector() {
  if (sim_.faults() == this) sim_.set_faults(nullptr);
}

void FaultInjector::arm(const std::vector<NodeId>& volatile_ids) {
  if (armed_) return;
  armed_ = true;
  sim_.set_faults(this);

  if (config_.outages.enabled && !volatile_ids.empty()) {
    // Chunk the fleet (in id order) into labs, then draw which labs cycle.
    const std::size_t size = std::max<std::size_t>(1, config_.outages.group_size);
    std::vector<std::vector<NodeId>> labs;
    for (std::size_t i = 0; i < volatile_ids.size(); i += size) {
      labs.emplace_back(volatile_ids.begin() + static_cast<std::ptrdiff_t>(i),
                        volatile_ids.begin() +
                            static_cast<std::ptrdiff_t>(
                                std::min(i + size, volatile_ids.size())));
    }
    auto cycling = static_cast<std::size_t>(
        config_.outages.group_fraction * static_cast<double>(labs.size()) + 0.5);
    cycling = std::min(std::max<std::size_t>(cycling, 1), labs.size());
    std::vector<std::size_t> picks =
        outage_rng_.sample_without_replacement(labs.size(), cycling);
    std::sort(picks.begin(), picks.end());
    for (const std::size_t p : picks) groups_.push_back(std::move(labs[p]));
    for (std::size_t g = 0; g < groups_.size(); ++g) schedule_cycle(g);
  }

  if (config_.stragglers.enabled && !volatile_ids.empty()) {
    const auto n = volatile_ids.size();
    auto k = static_cast<std::size_t>(
        config_.stragglers.fraction * static_cast<double>(n) + 0.5);
    k = std::min(std::max<std::size_t>(k, 1), n);
    std::vector<std::size_t> picks =
        straggler_rng_.sample_without_replacement(n, k);
    std::sort(picks.begin(), picks.end());
    for (const std::size_t p : picks) stragglers_.push_back(volatile_ids[p]);
    for (const NodeId node : stragglers_) {
      cluster_.node(node).set_capacity_factor(config_.stragglers.capacity_factor);
      ++stats_.stragglers_injected;
      fault_instant(obs::kClusterPid, obs::node_track(node), "straggler", node);
      if (sim_.event_log() != nullptr) {
        obs::emit(sim_, obs::Level::kInfo, "faults", "straggler",
                  {{"node", std::to_string(node.value())},
                   {"factor", std::to_string(config_.stragglers.capacity_factor)}});
      }
    }
  }
}

void FaultInjector::schedule_master_crashes(
    dfs::Dfs* dfs, mapred::JobTracker* jobtracker,
    std::function<void()> post_recovery_audit) {
  if (!config_.enabled || !config_.master_crash.enabled) return;
  post_recovery_audit_ = std::move(post_recovery_audit);
  const auto& mc = config_.master_crash;
  // Draw both masters' full schedules up-front, NameNode stream first, so the
  // two never interleave draws: toggling `jobtracker` cannot move a single
  // NameNode crash instant, and vice versa only through its own flag.
  struct Plan {
    bool namenode;
    sim::Time crash;
    sim::Duration downtime;
  };
  std::vector<Plan> plans;
  for (const bool is_nn : {true, false}) {
    if (is_nn && (!mc.namenode || dfs == nullptr)) continue;
    if (!is_nn && (!mc.jobtracker || jobtracker == nullptr)) continue;
    sim::Time t = sim_.now();
    for (int i = 0; i < mc.max_crashes; ++i) {
      t += exp_duration(master_rng_, mc.mean_interval, mc.min_interval);
      const sim::Duration down =
          exp_duration(master_rng_, mc.mean_downtime, mc.min_downtime);
      plans.push_back({is_nn, t, down});
      t += down;
    }
  }
  for (const Plan& p : plans) {
    sim_.schedule_at(p.crash, [this, p, dfs, jobtracker] {
      crash_master(p.namenode, dfs, jobtracker);
    });
    sim_.schedule_at(p.crash + p.downtime, [this, p, dfs, jobtracker] {
      recover_master(p.namenode, dfs, jobtracker);
    });
  }
}

void FaultInjector::crash_master(bool namenode, dfs::Dfs* dfs,
                                 mapred::JobTracker* jobtracker) {
  const char* who = namenode ? "namenode" : "jobtracker";
  master_crash_at_[namenode ? 0 : 1] = sim_.now();
  if (namenode) {
    ++stats_.namenode_crashes;
    dfs->crash_namenode();
  } else {
    ++stats_.jobtracker_crashes;
    jobtracker->crash();
  }
  if (auto* tracer = sim_.tracer()) {
    master_span_[namenode ? 0 : 1] = tracer->begin(
        namenode ? obs::kDfsPid : obs::kClusterPid, 0, obs::Cat::kFault,
        std::string(who) + "_down", sim_.now());
  }
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kWarn, "faults", "master crash",
              {{"master", who}});
  }
}

void FaultInjector::recover_master(bool namenode, dfs::Dfs* dfs,
                                   mapred::JobTracker* jobtracker) {
  if (namenode) {
    dfs->recover_namenode();
  } else {
    jobtracker->recover();
  }
  ++stats_.master_recoveries;
  stats_.master_downtime += sim_.now() - master_crash_at_[namenode ? 0 : 1];
  if (auto* tracer = sim_.tracer()) {
    tracer->end(master_span_[namenode ? 0 : 1], sim_.now());
  }
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kInfo, "faults", "master recovered",
              {{"master", namenode ? "namenode" : "jobtracker"}});
  }
  // Mandatory post-recovery sweep: a rebuild that violates an invariant is a
  // bug in the recovery path, not survivable background noise. The sweep is
  // a callback so this layer never includes audit/ (detlint layering rule).
  if (post_recovery_audit_) post_recovery_audit_();
}

void FaultInjector::schedule_cycle(std::size_t group) {
  const sim::Duration wait =
      exp_duration(outage_rng_, config_.outages.mean_interval, 1);
  sim_.schedule_after(wait, [this, group] { group_down(group); });
}

void FaultInjector::group_down(std::size_t group) {
  ++stats_.outages_injected;
  for (const NodeId node : groups_[group]) {
    cluster_.node(node).set_fault_down(true);
    fault_instant(obs::kClusterPid, obs::node_track(node), "outage", node);
  }
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kWarn, "faults", "group outage",
              {{"group", std::to_string(group)},
               {"nodes", std::to_string(groups_[group].size())}});
  }
  const sim::Duration outage = exp_duration(
      outage_rng_, config_.outages.mean_outage, config_.outages.min_outage);
  sim_.schedule_after(outage, [this, group] { group_up(group); });
}

void FaultInjector::group_up(std::size_t group) {
  for (const NodeId node : groups_[group]) {
    cluster_.node(node).set_fault_down(false);
  }
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kInfo, "faults", "group outage over",
              {{"group", std::to_string(group)}});
  }
  schedule_cycle(group);
}

FaultInjector::HeartbeatFate FaultInjector::heartbeat_fate(NodeId node) {
  if (!config_.enabled || !config_.heartbeats.enabled) return {};
  if (heartbeat_rng_.chance(config_.heartbeats.drop_probability)) {
    ++stats_.heartbeats_dropped;
    fault_instant(obs::kClusterPid, obs::node_track(node), "hb_drop", node);
    return {.drop = true, .delay = 0};
  }
  if (heartbeat_rng_.chance(config_.heartbeats.delay_probability)) {
    const sim::Duration delay =
        std::min(config_.heartbeats.max_delay,
                 exp_duration(heartbeat_rng_, config_.heartbeats.mean_delay, 1));
    ++stats_.heartbeats_delayed;
    fault_instant(obs::kClusterPid, obs::node_track(node), "hb_delay", node);
    return {.drop = false, .delay = delay};
  }
  return {};
}

bool FaultInjector::corrupt_replica(BlockId block, NodeId node) {
  if (!config_.enabled || !config_.storage.enabled) return false;
  if (!storage_rng_.chance(config_.storage.corrupt_probability)) return false;
  ++stats_.replicas_corrupted;
  fault_instant(obs::kDfsPid, obs::node_track(node), "corrupt", node);
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kWarn, "faults", "replica corrupted",
              {{"block", std::to_string(block.value())},
               {"node", std::to_string(node.value())}});
  }
  return true;
}

bool FaultInjector::reject_write(BlockId block, NodeId node) {
  if (!config_.enabled || !config_.storage.enabled) return false;
  if (!storage_rng_.chance(config_.storage.reject_probability)) return false;
  ++stats_.writes_rejected;
  fault_instant(obs::kDfsPid, obs::node_track(node), "disk_full", node);
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kWarn, "faults", "write rejected",
              {{"block", std::to_string(block.value())},
               {"node", std::to_string(node.value())}});
  }
  return true;
}

void FaultInjector::note_corruption_detected(BlockId block, NodeId node) {
  ++stats_.corruptions_detected;
  fault_instant(obs::kDfsPid, obs::node_track(node), "checksum_fail", node);
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kWarn, "faults", "corruption detected on read",
              {{"block", std::to_string(block.value())},
               {"node", std::to_string(node.value())}});
  }
}

void FaultInjector::fault_instant(std::uint32_t pid, std::uint32_t track,
                                  const char* name, NodeId node) {
  if (auto* tracer = sim_.tracer()) {
    tracer->instant(pid, track, obs::Cat::kFault, name, sim_.now(),
                    {{"node", std::to_string(node.value())}});
  }
}

}  // namespace moon::faults
