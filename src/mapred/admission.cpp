#include "mapred/admission.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "mapred/job.hpp"
#include "mapred/jobtracker.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace moon::mapred {

namespace {

// Event tags folded into the sequence hash. Distinct from Decision: defers
// are not final verdicts but are part of the deterministic sequence.
constexpr std::uint8_t kTagAdmit = 1;
constexpr std::uint8_t kTagReject = 2;
constexpr std::uint8_t kTagShed = 3;
constexpr std::uint8_t kTagDefer = 4;

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

}  // namespace

AdmissionController::AdmissionController(JobTracker& jobtracker,
                                         AdmissionConfig config)
    : jobtracker_(jobtracker),
      config_(config),
      retrier_(jobtracker.simulation(),
               sim::RetryPolicy{std::max<sim::Duration>(config.defer_initial, 1),
                                std::max<sim::Duration>(config.defer_max, 1),
                                2.0,
                                /*max_attempts=*/0}) {
  // A deferred arrival must eventually resolve (the multi-job harness runs
  // until every arrival has a verdict), so the defer budget is at least one.
  config_.max_defers = std::max(config_.max_defers, 1);
}

bool AdmissionController::overloaded() const {
  if (config_.max_queued_jobs > 0 &&
      jobtracker_.live_jobs() >= config_.max_queued_jobs) {
    return true;
  }
  if (config_.max_live_attempts > 0 &&
      jobtracker_.live_attempts_total() >= config_.max_live_attempts) {
    return true;
  }
  return false;
}

double AdmissionController::backpressure() const {
  double pressure = 0.0;
  if (config_.max_queued_jobs > 0) {
    pressure = std::max(pressure, static_cast<double>(jobtracker_.live_jobs()) /
                                      config_.max_queued_jobs);
  }
  if (config_.max_live_attempts > 0) {
    pressure = std::max(
        pressure, static_cast<double>(jobtracker_.live_attempts_total()) /
                      config_.max_live_attempts);
  }
  return pressure;
}

void AdmissionController::record(std::uint8_t tag) {
  sequence_hash_ ^= tag;
  sequence_hash_ *= kFnvPrime;
  auto now = static_cast<std::uint64_t>(jobtracker_.simulation().now());
  for (int i = 0; i < 8; ++i) {
    sequence_hash_ ^= (now >> (i * 8)) & 0xff;
    sequence_hash_ *= kFnvPrime;
  }
}

void AdmissionController::offer(JobSpec spec,
                                std::function<void(const Outcome&)> on_final) {
  ++stats_.offered;
  switch (config_.policy) {
    case AdmissionConfig::Policy::kRejectNewest: {
      if (!overloaded()) {
        admit(std::move(spec), on_final, /*defers=*/0, JobId{});
        return;
      }
      record(kTagReject);
      ++stats_.rejected;
      if (auto& sim = jobtracker_.simulation(); sim.event_log() != nullptr) {
        obs::emit(sim, obs::Level::kInfo, "admission", "rejected",
                  {{"job", spec.name},
                   {"live_jobs", std::to_string(jobtracker_.live_jobs())}});
      }
      if (auto* tracer = jobtracker_.simulation().tracer()) {
        tracer->instant(obs::kClusterPid, 0, obs::Cat::kSched,
                        "admission-reject",
                        jobtracker_.simulation().now());
      }
      Outcome out;
      out.decision = Decision::kRejected;
      if (on_final) on_final(out);
      return;
    }
    case AdmissionConfig::Policy::kDeferWithBackoff: {
      // FIFO fairness: while anyone is parked, new arrivals queue behind
      // them even if capacity just opened — no queue jumping.
      if (!overloaded() && deferred_.empty()) {
        admit(std::move(spec), on_final, /*defers=*/0, JobId{});
        return;
      }
      record(kTagDefer);
      ++stats_.deferred;
      if (auto& sim = jobtracker_.simulation(); sim.event_log() != nullptr) {
        obs::emit(sim, obs::Level::kInfo, "admission", "deferred",
                  {{"job", spec.name},
                   {"queue", std::to_string(deferred_.size() + 1)}});
      }
      if (auto* tracer = jobtracker_.simulation().tracer()) {
        tracer->instant(obs::kClusterPid, 0, obs::Cat::kSched,
                        "admission-defer", jobtracker_.simulation().now());
      }
      deferred_.push_back(Parked{std::move(spec), std::move(on_final), 0});
      arm_timer();
      return;
    }
    case AdmissionConfig::Policy::kShedLowestPriority: {
      JobId first_shed{};
      while (overloaded()) {
        // Victim: the lowest-priority unfinished job, newest first among
        // ties (<= keeps updating along the submission-order walk) — and
        // only if it is strictly less important than the arrival.
        Job* victim = nullptr;
        for (Job* job : jobtracker_.jobs_in_order()) {
          if (job->finished()) continue;
          if (victim == nullptr ||
              job->spec().priority <= victim->spec().priority) {
            victim = job;
          }
        }
        if (victim == nullptr || victim->spec().priority >= spec.priority) {
          break;
        }
        record(kTagShed);
        ++stats_.shed;
        if (!first_shed.valid()) first_shed = victim->id();
        if (auto& sim = jobtracker_.simulation(); sim.event_log() != nullptr) {
          obs::emit(sim, obs::Level::kWarn, "admission", "job shed",
                    {{"job", std::to_string(victim->id().value())},
                     {"name", victim->spec().name},
                     {"priority", std::to_string(victim->spec().priority)},
                     {"for", spec.name}});
        }
        if (auto* tracer = jobtracker_.simulation().tracer()) {
          tracer->instant(obs::kClusterPid, 0, obs::Cat::kSched,
                          "admission-shed", jobtracker_.simulation().now());
        }
        victim->fail_job(JobFailureReason::kShed);
      }
      if (overloaded()) {
        // Nothing sheddable was lower priority: the arrival loses instead.
        record(kTagReject);
        ++stats_.rejected;
        if (auto& sim = jobtracker_.simulation(); sim.event_log() != nullptr) {
          obs::emit(sim, obs::Level::kInfo, "admission", "rejected",
                    {{"job", spec.name}, {"reason", "no-lower-priority"}});
        }
        Outcome out;
        out.decision = Decision::kRejected;
        out.shed_job = first_shed;
        if (on_final) on_final(out);
        return;
      }
      admit(std::move(spec), on_final, /*defers=*/0, first_shed);
      return;
    }
  }
}

void AdmissionController::admit(
    JobSpec spec, const std::function<void(const Outcome&)>& on_final,
    int defers, JobId shed_job) {
  record(kTagAdmit);
  ++stats_.admitted;
  Outcome out;
  out.decision = Decision::kAdmitted;
  out.defers = defers;
  out.shed_job = shed_job;
  out.job = jobtracker_.submit(std::move(spec));
  if (on_final) on_final(out);
}

void AdmissionController::finish_reject(const Parked& parked) {
  record(kTagReject);
  ++stats_.rejected;
  if (auto& sim = jobtracker_.simulation(); sim.event_log() != nullptr) {
    obs::emit(sim, obs::Level::kInfo, "admission", "rejected",
              {{"job", parked.spec.name},
               {"defers", std::to_string(parked.defers)}});
  }
  Outcome out;
  out.decision = Decision::kRejected;
  out.defers = parked.defers;
  if (parked.on_final) parked.on_final(out);
}

void AdmissionController::drain_deferred() {
  // Admit from the front while capacity lasts: FIFO order, each admit
  // resets the backoff (progress was made).
  bool progressed = false;
  while (!deferred_.empty() && !overloaded()) {
    Parked parked = std::move(deferred_.front());
    deferred_.pop_front();
    admit(std::move(parked.spec), parked.on_final, parked.defers, JobId{});
    progressed = true;
  }
  if (progressed) retrier_.reset();
  // Everyone still parked waited through one more round; reject the
  // over-aged so every arrival resolves in bounded sim time.
  for (Parked& parked : deferred_) {
    ++parked.defers;
    ++stats_.defer_rounds;
  }
  while (!deferred_.empty() &&
         deferred_.front().defers >= config_.max_defers) {
    finish_reject(deferred_.front());
    deferred_.pop_front();
  }
  if (!deferred_.empty()) arm_timer();
}

void AdmissionController::arm_timer() {
  // No-op while a timer is pending (Retrier collapses re-entrant arms).
  retrier_.retry([this] { drain_deferred(); });
}

}  // namespace moon::mapred
