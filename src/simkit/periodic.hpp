// Periodic activity (heartbeats, liveness scans, bandwidth sampling).
#pragma once

#include <functional>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "simkit/simulation.hpp"

namespace moon::sim {

class PeriodicTask {
 public:
  using Callback = std::function<void()>;

  PeriodicTask(Simulation& sim, Duration interval, Callback fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Begins firing every `interval`, first fire one interval from now.
  /// Restarting while active is a no-op.
  void start();

  /// Stops firing; may be started again later.
  void stop();

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] Duration interval() const { return interval_; }

 private:
  void fire();

  Simulation& sim_;
  Duration interval_;
  Callback fn_;
  bool active_ = false;
  EventId next_ = EventId::invalid();
};

}  // namespace moon::sim
