#include "experiment/environment.hpp"

#include <algorithm>
#include <string>

#include "experiment/scenario.hpp"
#include "trace/correlated.hpp"
#include "trace/trace_generator.hpp"

namespace moon::experiment {

Environment::Environment(const ScenarioConfig& config)
    : sim(config.seed),
      cluster(sim, config.fairness, config.solver, config.coalesce) {
  // The members `sim`/`cluster`/`dfs` shadow their namespaces in here, so
  // namespace-qualified types spell out moon::.
  moon::cluster::NodeConfig volatile_cfg;
  volatile_cfg.type = moon::cluster::NodeType::kVolatile;
  volatile_cfg.map_slots = config.map_slots;
  volatile_cfg.reduce_slots = config.reduce_slots;
  volatile_cfg.nic_in_bw = config.nic_bandwidth;
  volatile_cfg.nic_out_bw = config.nic_bandwidth;
  volatile_cfg.disk_bw = config.disk_bandwidth;

  // Hadoop mode: the dedicated machines exist but are typed volatile ("these
  // nodes are all treated as volatile in the Hadoop tests as Hadoop cannot
  // differentiate", §VI-C); they still never go down.
  moon::cluster::NodeConfig dedicated_cfg = volatile_cfg;
  dedicated_cfg.type = config.dedicated_known
                           ? moon::cluster::NodeType::kDedicated
                           : moon::cluster::NodeType::kVolatile;

  volatile_ids = cluster.add_nodes(config.volatile_nodes, volatile_cfg);
  cluster.add_nodes(config.dedicated_nodes, dedicated_cfg);

  // Availability traces apply to the genuinely volatile machines only.
  trace::GeneratorConfig gen_cfg = config.trace_gen;
  gen_cfg.unavailability_rate = config.unavailability_rate;
  Rng trace_rng = Rng{config.seed}.fork("traces");
  std::vector<trace::AvailabilityTrace> fleet;
  if (config.correlated_outages) {
    trace::CorrelatedConfig corr;
    corr.base = gen_cfg;
    corr.group_size = config.correlation_group_size;
    corr.correlated_fraction = config.correlated_fraction;
    corr.group_event_mean_s = config.correlated_event_mean_s;
    corr.group_event_stddev_s = config.correlated_event_mean_s / 4.0;
    corr.group_event_min_s =
        std::min(600.0, config.correlated_event_mean_s / 2.0);
    fleet = trace::CorrelatedTraceGenerator(corr).generate_fleet(
        trace_rng, volatile_ids.size());
  } else {
    fleet = trace::TraceGenerator(gen_cfg).generate_fleet(trace_rng,
                                                          volatile_ids.size());
  }

  driver = std::make_unique<moon::cluster::AvailabilityDriver>(sim, cluster);
  driver->assign_fleet(volatile_ids, fleet);
  const int repeats = static_cast<int>(
      config.max_sim_time / std::max<moon::sim::Duration>(gen_cfg.horizon, 1) +
      1);
  driver->install(repeats);

  dfs = std::make_unique<moon::dfs::Dfs>(sim, cluster, config.dfs, config.seed);
  dfs->start();

  jobtracker = std::make_unique<mapred::JobTracker>(sim, cluster, *dfs,
                                                    config.sched, config.seed);
  jobtracker->add_all_trackers();
  jobtracker->start();

  // Fault injection arms after the stack is live so outage cycles layer on
  // top of the already-installed availability traces. Its RNG streams fork
  // from the seed independently of every other component's.
  if (config.faults.any()) {
    injector = std::make_unique<moon::faults::FaultInjector>(
        sim, cluster, config.faults, config.seed);
    injector->arm(volatile_ids);
  }
  if (config.faults.enabled && config.faults.master_crash.enabled) {
    // Journals install before any workload is staged: the namespace and job
    // tables are still empty, so replay-from-empty reconstructs everything.
    moon::recovery::JournalConfig journal_cfg;
    journal_cfg.snapshot_interval = config.faults.master_crash.snapshot_interval;
    nn_journal =
        std::make_unique<moon::recovery::NameNodeJournal>(sim, journal_cfg);
    nn_journal->start();
    dfs->namenode().set_journal(nn_journal.get());
    jt_journal =
        std::make_unique<moon::recovery::JobTrackerJournal>(sim, journal_cfg);
    jt_journal->start();
    jobtracker->set_journal(jt_journal.get());
  }
  if (config.faults.enabled && (config.faults.audit_interval > 0 ||
                                config.faults.master_crash.enabled)) {
    auditor = std::make_unique<moon::audit::Auditor>(&cluster, dfs.get(),
                                                     jobtracker.get());
    if (config.faults.audit_interval > 0) {
      audit_task = std::make_unique<moon::sim::PeriodicTask>(
          sim, config.faults.audit_interval, [this] { auditor->run(); });
      audit_task->start();
    }
  }
  if (injector) {
    // No-op unless master_crash is on; hands the injector the auditor's
    // sweep as a callback (the faults layer sits below audit/ in the
    // architecture DAG), hence scheduled after the block above. The Auditor
    // outlives the injector on this Environment, so the captured pointer
    // stays valid for every recovery event.
    auto* audit_ptr = auditor.get();
    injector->schedule_master_crashes(
        dfs.get(), jobtracker.get(),
        audit_ptr == nullptr ? std::function<void()>()
                             : [audit_ptr] { audit_ptr->run(); });
  }

  if (config.obs.any()) {
    obs = std::make_shared<moon::obs::Observability>(config.obs, sim);
    if (auto* tracer = obs->tracer()) {
      tracer->name_process(moon::obs::kClusterPid, "cluster");
      tracer->name_track(moon::obs::kClusterPid, 0, "control");
      tracer->name_process(moon::obs::kDfsPid, "dfs");
      tracer->name_track(moon::obs::kDfsPid, 0, "namenode");
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        const NodeId id{i};
        const std::string name = "node" + std::to_string(i);
        tracer->name_track(moon::obs::kClusterPid, moon::obs::node_track(id),
                           name);
        tracer->name_track(moon::obs::kDfsPid, moon::obs::node_track(id), name);
      }
    }
    if (auto* metrics = obs->metrics()) {
      // Gauges only *read* state (§12 zero-perturbation contract): plain
      // counters and index sizes.
      auto* jt = jobtracker.get();
      auto* fs = dfs.get();
      auto* cl = &cluster;
      auto* sm = &sim;
      metrics->add_gauge("cluster_utilization", [jt] {
        int used = 0;
        for (const auto* t : jt->trackers()) {
          if (jt->tracker_state(t->node_id()) != mapred::TrackerState::kLive) {
            continue;
          }
          used += t->used_slots(mapred::TaskType::kMap) +
                  t->used_slots(mapred::TaskType::kReduce);
        }
        const int total = jt->available_execution_slots();
        return total == 0 ? 0.0 : static_cast<double>(used) / total;
      });
      metrics->add_gauge("running_attempts", [jt] {
        std::size_t n = 0;
        for (const auto* job : jt->jobs_in_order()) {
          if (job->finished()) continue;
          n += job->running_index_size(mapred::TaskType::kMap) +
               job->running_index_size(mapred::TaskType::kReduce);
        }
        return static_cast<double>(n);
      });
      metrics->add_gauge("pending_tasks", [jt] {
        std::size_t n = 0;
        for (const auto* job : jt->jobs_in_order()) {
          if (job->finished()) continue;
          n += job->pending_index_size(mapred::TaskType::kMap) +
               job->pending_index_size(mapred::TaskType::kReduce);
        }
        return static_cast<double>(n);
      });
      metrics->add_gauge("live_nodes", [cl] {
        return static_cast<double>(cl->available_count());
      });
      metrics->add_gauge("shuffle_bytes_in_flight", [fs] {
        return static_cast<double>(fs->shuffle_bytes_in_flight());
      });
      metrics->add_gauge("replication_queue_depth", [fs] {
        return static_cast<double>(fs->namenode().replication_queue_depth());
      });
      metrics->add_gauge("active_repairs", [fs] {
        return static_cast<double>(fs->active_repairs());
      });
      metrics->add_gauge("dfs_active_ops", [fs] {
        return static_cast<double>(fs->active_ops());
      });
      metrics->add_gauge("active_flows", [cl] {
        return static_cast<double>(cl->network().active_flows());
      });
      metrics->add_gauge("event_queue_depth", [sm] {
        return static_cast<double>(sm->pending_events());
      });
      metrics->add_gauge("dfs_bytes_read", [fs] {
        return static_cast<double>(fs->stats().bytes_read);
      });
      metrics->add_gauge("dfs_bytes_written", [fs] {
        return static_cast<double>(fs->stats().bytes_written);
      });
      metrics->add_gauge("replication_bytes", [fs] {
        return static_cast<double>(fs->stats().replication_bytes);
      });
      if (auto* adm = jt->admission()) {
        // Steady-state serving gauges (DESIGN.md §16): load relative to the
        // admission caps, the defer backlog, and the retained-state
        // footprint GC keeps bounded. Registered only when admission is on,
        // so existing gauge CSVs are byte-stable.
        metrics->add_gauge("admission_backpressure",
                           [adm] { return adm->backpressure(); });
        metrics->add_gauge("admission_deferred", [adm] {
          return static_cast<double>(adm->deferred_depth());
        });
        metrics->add_gauge("admission_rejected", [adm] {
          return static_cast<double>(adm->stats().rejected);
        });
        metrics->add_gauge("admission_shed", [adm] {
          return static_cast<double>(adm->stats().shed);
        });
        metrics->add_gauge("live_jobs", [jt] {
          return static_cast<double>(jt->live_jobs());
        });
        metrics->add_gauge("retained_job_bytes", [jt] {
          return static_cast<double>(jt->retained_state_bytes());
        });
      }
      if (injector) {
        auto* fi = injector.get();
        metrics->add_gauge("faults_injected", [fi] {
          return static_cast<double>(fi->stats().total_injected());
        });
        metrics->add_gauge("quarantined_nodes", [jt] {
          return static_cast<double>(jt->quarantined_count());
        });
      }
      if (auditor) {
        auto* au = auditor.get();
        metrics->add_gauge("audit_violations", [au] {
          return static_cast<double>(au->violations_total());
        });
      }
      if (nn_journal) {
        // Master-failover gauges: downtime exposure and parked-work backlog.
        metrics->add_gauge("masters_down", [fs, jt] {
          return (fs->namenode().available() ? 0.0 : 1.0) +
                 (jt->available() ? 0.0 : 1.0);
        });
        metrics->add_gauge("dfs_ops_parked", [fs] {
          return static_cast<double>(fs->stats().ops_parked);
        });
        metrics->add_gauge("master_retries", [fs] {
          return static_cast<double>(fs->stats().master_retries);
        });
        auto* nj = nn_journal.get();
        auto* tj = jt_journal.get();
        metrics->add_gauge("journal_records", [nj, tj] {
          return static_cast<double>(nj->stats().records_appended +
                                     tj->stats().records_appended);
        });
      }
    }
    obs->attach();
  }
}

void collect_counters(Environment& env, RunCounters& out) {
  moon::mapred::JobTracker& jt = *env.jobtracker;
  out.replication_queue_depth = env.dfs->namenode().replication_queue_depth();
  out.profile = env.sim.profiler().snapshot();
  out.dfs_stats = env.dfs->stats();
  if (env.injector) out.fault_stats = env.injector->stats();
  out.quarantines = jt.quarantines_total();
  if (env.nn_journal) {
    out.journal_records = env.nn_journal->stats().records_appended +
                          env.jt_journal->stats().records_appended;
    out.journal_snapshots = env.nn_journal->stats().snapshots_taken +
                            env.jt_journal->stats().snapshots_taken;
    out.journal_divergences = env.nn_journal->stats().divergences +
                              env.jt_journal->stats().divergences;
  }
  out.heartbeats_missed = jt.heartbeats_missed();
  out.reports_parked = jt.reports_parked();
  out.reports_replayed = jt.reports_replayed();
  out.reregistrations = jt.reregistrations();
  out.orphans_killed = jt.orphans_killed();
  if (env.auditor) {
    env.auditor->run();  // one final sweep at the end-of-run state
    out.audit_passes = env.auditor->passes();
    out.audit_violations = env.auditor->violations_total();
  }
  // Detach observability before the environment (which the gauges probe)
  // goes away; the finalized bundle rides out in the result.
  if (env.obs) {
    env.obs->finalize();
    out.obs = env.obs;
  }
}

}  // namespace moon::experiment
