#include "mapred/tasktracker.hpp"

#include <algorithm>
#include <stdexcept>

#include "simkit/fault_hooks.hpp"
#include "mapred/jobtracker.hpp"
#include "mapred/task.hpp"

namespace moon::mapred {

TaskTracker::TaskTracker(sim::Simulation& sim, cluster::Node& host,
                         JobTracker& jobtracker, sim::Duration heartbeat_interval)
    : sim_(sim),
      host_(host),
      jobtracker_(jobtracker),
      heartbeat_(sim, heartbeat_interval, [this] { beat(); }),
      checkpoint_task_(
          sim,
          std::max<sim::Duration>(jobtracker.config().checkpoint.scan_interval,
                                  sim::kSecond),
          [this] { checkpoint_scan(); }) {
  host_.subscribe([this](bool up) {
    for (TaskAttempt* attempt : all_attempts()) attempt->on_node_availability(up);
  });
}

int TaskTracker::free_slots(TaskType type) const {
  const int total = type == TaskType::kMap ? map_slots() : reduce_slots();
  return total - used_slots(type);
}

int TaskTracker::used_slots(TaskType type) const {
  return static_cast<int>(type == TaskType::kMap ? map_attempts_.size()
                                                 : reduce_attempts_.size());
}

void TaskTracker::occupy(TaskType type, TaskAttempt* attempt) {
  auto& hosted = type == TaskType::kMap ? map_attempts_ : reduce_attempts_;
  if (free_slots(type) <= 0) throw std::logic_error("TaskTracker: no free slot");
  hosted.push_back(attempt);
}

void TaskTracker::release(TaskType type, TaskAttempt* attempt) {
  auto& hosted = type == TaskType::kMap ? map_attempts_ : reduce_attempts_;
  hosted.erase(std::remove(hosted.begin(), hosted.end(), attempt), hosted.end());
}

const std::vector<TaskAttempt*>& TaskTracker::attempts(TaskType type) const {
  return type == TaskType::kMap ? map_attempts_ : reduce_attempts_;
}

std::vector<TaskAttempt*> TaskTracker::all_attempts() const {
  std::vector<TaskAttempt*> out;
  out.reserve(map_attempts_.size() + reduce_attempts_.size());
  out.insert(out.end(), map_attempts_.begin(), map_attempts_.end());
  out.insert(out.end(), reduce_attempts_.begin(), reduce_attempts_.end());
  return out;
}

void TaskTracker::start() {
  heartbeat_.start();
  if (jobtracker_.config().checkpoint.enabled) checkpoint_task_.start();
}

void TaskTracker::checkpoint_scan() {
  // A suspended host can't write; the suspension hook in the JobTracker
  // covers the best-effort goodbye checkpoint.
  if (!host_.available()) return;
  for (TaskAttempt* attempt : reduce_attempts_) attempt->maybe_checkpoint();
}

void TaskTracker::beat() {
  // A suspended host is silent; the JobTracker infers suspension/death from
  // the heartbeat gap.
  if (!host_.available()) return;
  // A crashed JobTracker drops the beat on the floor, deterministically; the
  // re-registration storm (or the first beat after recovery) catches up.
  if (!jobtracker_.available()) {
    jobtracker_.note_heartbeat_missed();
    return;
  }
  if (auto* faults = sim_.faults()) {
    const auto fate = faults->heartbeat_fate(host_.id());
    if (fate.drop) return;  // lost on the wire; the gap detector takes over
    if (fate.delay > 0) {
      // Delivered late. The host may have gone down in the meantime — a
      // message from a now-dead node would resurrect its tracker, so the
      // delivery rechecks availability.
      sim_.schedule_after(fate.delay, [this] {
        if (host_.available()) jobtracker_.heartbeat(*this);
      });
      return;
    }
  }
  jobtracker_.heartbeat(*this);
}

}  // namespace moon::mapred
