#include "simkit/periodic.hpp"

#include <stdexcept>
#include <utility>

namespace moon::sim {

PeriodicTask::PeriodicTask(Simulation& sim, Duration interval, Callback fn)
    : sim_(sim), interval_(interval), fn_(std::move(fn)) {
  if (interval <= 0) throw std::logic_error("PeriodicTask: non-positive interval");
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start() {
  if (active_) return;
  active_ = true;
  next_ = sim_.schedule_after(interval_, [this] { fire(); });
}

void PeriodicTask::stop() {
  if (!active_) return;
  active_ = false;
  if (next_.valid()) {
    sim_.cancel(next_);
    next_ = EventId::invalid();
  }
}

void PeriodicTask::fire() {
  // Re-arm before invoking so the callback may stop() us cleanly.
  next_ = sim_.schedule_after(interval_, [this] { fire(); });
  fn_();
}

}  // namespace moon::sim
