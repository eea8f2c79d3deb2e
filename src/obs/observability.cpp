#include "obs/observability.hpp"

namespace moon::obs {

Observability::Observability(ObsConfig config, sim::Simulation& sim)
    : config_(config),
      sim_(sim),
      events_(config.event_log_capacity),
      sampler_(sim, config.metrics_cfg.sample_interval, [this] {
        if (metrics_) metrics_->sample(sim_.now());
      }) {
  if (config_.trace) tracer_ = std::make_unique<Tracer>(config_.trace_cfg);
  if (config_.metrics) {
    metrics_ = std::make_unique<MetricsRegistry>(config_.metrics_cfg);
  }
}

Observability::~Observability() { finalize(); }

void Observability::attach() {
  if (attached_ || finalized_) return;
  attached_ = true;
  sim_.set_tracer(tracer_.get());
  sim_.set_metrics(metrics_.get());
  // Capture the control plane's narration: every record lands in the
  // bounded event log and, when tracing, mirrors into the trace (obs::emit).
  if (config_.capture_log || config_.trace) sim_.set_event_log(&events_);
  if (metrics_) {
    metrics_->sample(sim_.now());  // t=attach baseline row
    sampler_.start();
  }
}

void Observability::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (!attached_) return;
  sampler_.stop();
  if (metrics_) metrics_->sample(sim_.now());  // final row at end-of-run time
  if (tracer_) tracer_->close_open(sim_.now());
  sim_.set_tracer(nullptr);
  sim_.set_metrics(nullptr);
  sim_.set_event_log(nullptr);
}

}  // namespace moon::obs
