// TaskTracker: the per-node worker daemon.
//
// Tracks execution slots (M map + R reduce), heartbeats the JobTracker when
// its host node is up, and relays node availability transitions to the
// attempts it hosts (pausing their compute). Mirrors Hadoop: "a TaskTracker
// process tracks the available execution slots [and] contacts the
// JobTracker for an assignment when it detects an empty execution slot".
#pragma once

#include <vector>

#include "cluster/node.hpp"
#include "common/ids.hpp"
#include "mapred/types.hpp"
#include "simkit/periodic.hpp"
#include "simkit/simulation.hpp"

namespace moon::mapred {

class JobTracker;
class TaskAttempt;

class TaskTracker {
 public:
  TaskTracker(sim::Simulation& sim, cluster::Node& host, JobTracker& jobtracker,
              sim::Duration heartbeat_interval);

  TaskTracker(const TaskTracker&) = delete;
  TaskTracker& operator=(const TaskTracker&) = delete;

  [[nodiscard]] NodeId node_id() const { return host_.id(); }
  [[nodiscard]] cluster::Node& host() { return host_; }
  [[nodiscard]] bool dedicated() const { return host_.dedicated(); }
  [[nodiscard]] bool host_available() const { return host_.available(); }

  [[nodiscard]] int map_slots() const { return host_.config().map_slots; }
  [[nodiscard]] int reduce_slots() const { return host_.config().reduce_slots; }
  [[nodiscard]] int free_slots(TaskType type) const;
  [[nodiscard]] int used_slots(TaskType type) const;

  /// Claims a slot for a new attempt; the Job registers the attempt itself.
  void occupy(TaskType type, TaskAttempt* attempt);
  /// Releases the slot when an attempt reaches a terminal state.
  void release(TaskType type, TaskAttempt* attempt);

  /// Hosted attempts in launch order. Deterministic iteration matters: kill
  /// and checkpoint sweeps draw from the DFS RNG, so a pointer-hashed
  /// container would make replays diverge run to run.
  [[nodiscard]] const std::vector<TaskAttempt*>& attempts(TaskType type) const;
  [[nodiscard]] std::vector<TaskAttempt*> all_attempts() const;

  /// Starts heartbeating, first beat one full interval from now (every
  /// tracker beats on the same ticks).
  void start();

 private:
  void beat();
  void checkpoint_scan();

  sim::Simulation& sim_;
  cluster::Node& host_;
  JobTracker& jobtracker_;
  std::vector<TaskAttempt*> map_attempts_;
  std::vector<TaskAttempt*> reduce_attempts_;
  sim::PeriodicTask heartbeat_;
  /// Offers hosted reduce attempts a checkpoint every
  /// checkpoint.scan_interval (started only when checkpointing is enabled).
  sim::PeriodicTask checkpoint_task_;
};

}  // namespace moon::mapred
