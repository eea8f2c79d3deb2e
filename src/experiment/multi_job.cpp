#include "experiment/multi_job.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>

#include "experiment/environment.hpp"
#include "obs/metrics.hpp"

namespace moon::experiment {

void JainIndex::add(double x) {
  if (!(x > 0.0)) return;
  sum_ += x;
  sum_sq_ += x * x;
  ++n_;
}

double JainIndex::value() const {
  if (n_ == 0 || sum_sq_ == 0.0) return 1.0;
  return (sum_ * sum_) / (static_cast<double>(n_) * sum_sq_);
}

MultiJobResult run_multi_job_scenario(const MultiJobConfig& config) {
  const ScenarioConfig& base = config.base;

  Environment env(base);
  sim::Simulation& sim = env.sim;
  dfs::Dfs& dfs = *env.dfs;
  mapred::JobTracker& jobtracker = *env.jobtracker;

  // Open-ended streams default their horizon to the scenario horizon.
  workload::ArrivalConfig arrival_cfg = config.arrivals;
  if (arrival_cfg.num_jobs == 0 && arrival_cfg.horizon <= 0) {
    arrival_cfg.horizon = base.max_sim_time;
  }
  const std::vector<workload::JobArrival> arrivals =
      workload::JobArrivalStream(arrival_cfg, base.seed).generate();

  // Stage every job's input up front (staging has no simulated cost, like
  // the paper pre-loading data before timing starts) and build the specs.
  // Rejected arrivals leave their staged input behind — placement draws stay
  // identical across admission policies, at O(arrivals) DFS metadata.
  const dfs::FileKind input_kind = base.dedicated_known
                                       ? dfs::FileKind::kReliable
                                       : dfs::FileKind::kOpportunistic;
  const int reduce_slot_total =
      static_cast<int>(env.cluster.size()) * base.reduce_slots;
  std::vector<mapred::JobSpec> specs;
  specs.reserve(arrivals.size());
  for (const workload::JobArrival& arrival : arrivals) {
    const FileId input = dfs.stage_blocks(
        arrival.model.name + ".input", input_kind, base.input_factor,
        arrival.model.num_maps, arrival.model.input_block_bytes);
    specs.push_back(workload::make_job_spec(
        arrival.model, input, reduce_slot_total, base.intermediate_kind,
        base.intermediate_factor, base.output_factor));
  }

  MultiJobResult result;

  // ---- streaming aggregates (DESIGN.md §16) -------------------------------
  // Every job folds in here *at its finish event* — in both retain modes,
  // in the same order — so retain_job_results only governs whether the
  // per-job snapshots are additionally kept. Percentiles come from a
  // bounded obs::Histogram reservoir; mean/Jain from exact running sums.
  obs::Histogram latencies(std::max<std::size_t>(config.latency_reservoir, 1));
  JainIndex jain;
  sim::Time last_end = 0;
  const auto fold_latency = [&](double latency_s) {
    latencies.record(latency_s);
    jain.add(latency_s);
  };
  // Peak trackers sample at every admission/finish event plus end-of-run —
  // identical sample points in both retain modes (sampling reads state
  // only). Retirement happens *after* the finish-event sample, so the peak
  // always includes the finishing job's own footprint.
  const auto sample_state = [&] {
    result.peak_retained_bytes =
        std::max(result.peak_retained_bytes, jobtracker.retained_state_bytes());
    result.peak_live_jobs = std::max(result.peak_live_jobs, jobtracker.live_jobs());
  };

  // ---- per-arrival bookkeeping --------------------------------------------
  std::vector<std::optional<JobId>> submitted(arrivals.size());
  std::vector<char> folded(arrivals.size(), 0);
  std::vector<char> rejected(arrivals.size(), 0);
  // JobId -> arrival index; point lookups only (no iteration), so hash
  // layout never orders any state-changing sweep.
  std::unordered_map<JobId, std::size_t> arrival_of;
  // Outcome slots in arrival order (retain mode): filled at finish for
  // terminal jobs, at end-of-run for DNF jobs, compacted into result.jobs.
  std::vector<std::optional<JobOutcome>> outcomes(
      config.retain_job_results ? arrivals.size() : 0);

  const auto build_outcome = [&](mapred::Job& job, std::size_t i,
                                 double latency_s) {
    JobOutcome outcome;
    outcome.name = job.spec().name;
    outcome.index = arrivals[i].index;
    outcome.submitted_at = job.metrics().submitted_at;
    outcome.run.metrics = job.metrics();
    outcome.run.num_maps = job.spec().num_maps;
    outcome.run.num_reduces = job.spec().num_reduces;
    outcome.run.finished = job.metrics().completed;
    outcome.run.completed_maps = job.completed_tasks(mapred::TaskType::kMap);
    outcome.run.completed_reduces =
        job.completed_tasks(mapred::TaskType::kReduce);
    outcome.run.outputs_committed =
        job.all_maps_done() && job.all_reduces_done();
    outcome.run.execution_time_s =
        job.metrics().completed ? job.metrics().execution_time_s() : latency_s;
    outcome.latency_s = latency_s;
    outcome.queue_wait_s = job.metrics().queue_wait_s();
    outcomes[i] = std::move(outcome);
  };

  // Folds a *finished* (completed, aborted, or shed) job into the stream
  // aggregates; runs inside the on_job_finished callback, before any GC.
  const auto fold_finished = [&](mapred::Job& job, std::size_t i) {
    const mapred::JobMetrics& m = job.metrics();
    const double latency_s =
        sim::to_seconds(m.finished_at - arrivals[i].submit_at);
    if (m.completed) {
      ++result.completed_jobs;
      fold_latency(latency_s);
    } else if (m.failure_reason == mapred::JobFailureReason::kShed) {
      ++result.shed_jobs;
      if (config.count_dnf_latencies) fold_latency(latency_s);
    } else {
      ++result.aborted_jobs;
      if (config.count_dnf_latencies) fold_latency(latency_s);
    }
    if (m.has_deadline()) {
      ++result.sla_eligible_jobs;
      if (m.sla_missed()) ++result.sla_missed_jobs;
    }
    last_end = std::max(last_end, m.finished_at);
    folded[i] = 1;
    if (config.retain_job_results) build_outcome(job, i, latency_s);
  };

  int resolved = 0;  // fired arrivals with a terminal verdict
  std::vector<JobId> pending_retire;
  jobtracker.on_job_finished([&](mapred::Job& job) {
    auto it = arrival_of.find(job.id());
    if (it == arrival_of.end()) return;  // not one of this stream's jobs
    ++resolved;
    fold_finished(job, it->second);
    sample_state();
    // The Job is still on the stack inside try_commit/fail_job here;
    // retirement is deferred to the run loop, between sim steps.
    if (!config.retain_job_results) pending_retire.push_back(job.id());
  });

  // Arrivals hitting a crashed JobTracker retry on a fixed 5 s ticket, same
  // as the single-job harness (DESIGN.md §14); once the master is up they
  // go through admission control when it is configured.
  std::function<void(std::size_t)> try_submit = [&](std::size_t i) {
    if (!jobtracker.available()) {
      sim.schedule_after(5 * sim::kSecond, [&, i] { try_submit(i); });
      return;
    }
    mapred::AdmissionController* admission = jobtracker.admission();
    if (admission == nullptr) {
      submitted[i] = jobtracker.submit(specs[i]);
      arrival_of[*submitted[i]] = i;
      sample_state();
      return;
    }
    admission->offer(
        specs[i], [&, i](const mapred::AdmissionController::Outcome& out) {
          if (out.decision ==
              mapred::AdmissionController::Decision::kAdmitted) {
            submitted[i] = out.job;
            arrival_of[out.job] = i;
            mapred::Job& job = jobtracker.job(out.job);
            if (out.defers > 0 && job.spec().deadline > 0) {
              // SLA clocks start at *arrival*: a deferred admission does
              // not push the deadline out.
              job.metrics().deadline_at =
                  arrivals[i].submit_at + job.spec().deadline;
            }
            sample_state();
          } else {
            rejected[i] = 1;
            ++result.rejected_jobs;
            ++resolved;
            if (arrivals[i].model.deadline > 0) {
              // A refused deadline job is a certain SLA miss.
              ++result.sla_eligible_jobs;
              ++result.sla_missed_jobs;
            }
          }
        });
  };

  // Submissions fire as sim events; an arrival past the horizon is never
  // scheduled at all (the run loop can step one event past max_sim_time, so
  // scheduling and skipping would let a just-past-the-edge arrival slip in),
  // and only fired submissions have a JobId to read back (the historical
  // multi_job example crashed on exactly that gap).
  int expected = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i].submit_at >= base.max_sim_time) continue;
    ++expected;
    sim.schedule_at(arrivals[i].submit_at, [&, i] { try_submit(i); });
  }

  while (resolved < expected && sim.now() < base.max_sim_time) {
    if (!sim.step()) break;
    // Retired-job GC (retain_job_results == false): destroy jobs whose
    // finish event already folded them, now that the event stack unwound.
    for (JobId id : pending_retire) jobtracker.retire_job(id);
    pending_retire.clear();
  }

  // ---- end-of-run accounting ---------------------------------------------
  // Deterministic arrival-index order for every end-of-run fold.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (submitted[i]) {
      ++result.submitted_jobs;
      if (folded[i]) continue;
      // Admitted but unfinished at the horizon: did-not-finish.
      mapred::Job& job = jobtracker.job(*submitted[i]);
      ++result.dnf_jobs;
      const double latency_s =
          sim::to_seconds(sim.now() - arrivals[i].submit_at);
      if (config.count_dnf_latencies) fold_latency(latency_s);
      const mapred::JobMetrics& m = job.metrics();
      if (m.has_deadline()) {
        ++result.sla_eligible_jobs;
        if (sim.now() > m.deadline_at) ++result.sla_missed_jobs;
      }
      last_end = std::max(last_end, sim.now());
      if (config.retain_job_results) build_outcome(job, i, latency_s);
    } else if (!rejected[i] && arrivals[i].submit_at < base.max_sim_time) {
      // Fired but still parked in the defer queue at the horizon: the
      // arrival never got in — count it with the rejections.
      rejected[i] = 1;
      ++result.rejected_jobs;
      if (arrivals[i].model.deadline > 0) {
        ++result.sla_eligible_jobs;
        ++result.sla_missed_jobs;
      }
    }
  }
  if (config.retain_job_results) {
    for (std::optional<JobOutcome>& outcome : outcomes) {
      if (outcome) result.jobs.push_back(std::move(*outcome));
    }
  }

  result.mean_latency_s = latencies.mean();
  result.p95_latency_s = latencies.percentile(0.95);
  result.p99_latency_s = latencies.percentile(0.99);
  result.jain_fairness = jain.value();
  if (last_end > 0 && !arrivals.empty()) {
    result.makespan_s = sim::to_seconds(last_end - arrivals.front().submit_at);
  }
  sample_state();
  result.final_retained_bytes = jobtracker.retained_state_bytes();
  result.jobs_retired = jobtracker.jobs_retired();
  if (mapred::AdmissionController* admission = jobtracker.admission()) {
    result.admission = admission->stats();
    result.admission_sequence_hash = admission->sequence_hash();
  }
  collect_counters(env, result);
  return result;
}

}  // namespace moon::experiment
