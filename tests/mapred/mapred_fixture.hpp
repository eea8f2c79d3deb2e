// Shared fixture for MapReduce-layer tests: a small cluster with a running
// DFS and JobTracker, node availability driven directly by the test.
#pragma once

#include <memory>

#include "cluster/cluster.hpp"
#include "dfs/dfs.hpp"
#include "mapred/jobtracker.hpp"
#include "workload/workload.hpp"

namespace moon::mapred::testing {

struct FixtureOptions {
  std::size_t volatile_nodes = 4;
  std::size_t dedicated_nodes = 1;
  SchedulerConfig sched;
  dfs::DfsConfig dfs;
  int num_maps = 4;
  int num_reduces = 2;
  sim::Duration map_compute = 10 * sim::kSecond;
  sim::Duration reduce_compute = 10 * sim::kSecond;
  Bytes intermediate_per_map = kKiB;
  Bytes output_per_reduce = kKiB;
  dfs::FileKind intermediate_kind = dfs::FileKind::kReliable;
  dfs::ReplicationFactor intermediate_factor{1, 1};
  dfs::ReplicationFactor output_factor{1, 1};
  dfs::ReplicationFactor input_factor{1, 2};
};

class MapRedHarness {
 public:
  explicit MapRedHarness(FixtureOptions options = {})
      : options_(normalize(std::move(options))), sim_(7), cluster_(sim_) {
    cluster::NodeConfig vcfg;
    vcfg.type = cluster::NodeType::kVolatile;
    volatile_ids = cluster_.add_nodes(options_.volatile_nodes, vcfg);
    cluster::NodeConfig dcfg;
    dcfg.type = cluster::NodeType::kDedicated;
    dedicated_ids = cluster_.add_nodes(options_.dedicated_nodes, dcfg);

    dfs_ = std::make_unique<dfs::Dfs>(sim_, cluster_, options_.dfs, 5);
    dfs_->start();
    jobtracker_ = std::make_unique<JobTracker>(sim_, cluster_, *dfs_,
                                               options_.sched, 5);
    jobtracker_->add_all_trackers();
    jobtracker_->start();

    input_ = dfs_->stage_blocks("in", dfs::FileKind::kReliable,
                                options_.input_factor, options_.num_maps, kKiB);
  }

  JobId submit() {
    JobSpec spec;
    spec.name = "test";
    spec.num_maps = options_.num_maps;
    spec.num_reduces = options_.num_reduces;
    spec.input_file = input_;
    spec.intermediate_per_map = options_.intermediate_per_map;
    spec.output_per_reduce = options_.output_per_reduce;
    spec.map_compute = options_.map_compute;
    spec.reduce_compute = options_.reduce_compute;
    spec.compute_jitter = 0.0;  // deterministic task lengths for assertions
    spec.intermediate_kind = options_.intermediate_kind;
    spec.intermediate_factor = options_.intermediate_factor;
    spec.output_factor = options_.output_factor;
    job_id_ = jobtracker_->submit(spec);
    return job_id_;
  }

  /// Stages a fresh input and submits a custom-sized job — multi-job tests
  /// submit several of these against one tracker fleet.
  JobId submit_job(const std::string& name, int maps, int reduces,
                   sim::Duration map_compute = 10 * sim::kSecond,
                   sim::Duration reduce_compute = 10 * sim::kSecond) {
    const FileId input = dfs_->stage_blocks(
        name + ".in", dfs::FileKind::kReliable, options_.input_factor, maps,
        kKiB);
    JobSpec spec;
    spec.name = name;
    spec.num_maps = maps;
    spec.num_reduces = reduces;
    spec.input_file = input;
    spec.intermediate_per_map = options_.intermediate_per_map;
    spec.output_per_reduce = options_.output_per_reduce;
    spec.map_compute = map_compute;
    spec.reduce_compute = reduce_compute;
    spec.compute_jitter = 0.0;
    spec.intermediate_kind = options_.intermediate_kind;
    spec.intermediate_factor = options_.intermediate_factor;
    spec.output_factor = options_.output_factor;
    return jobtracker_->submit(spec);
  }

  /// Runs until every job in `ids` finishes or `limit` elapses.
  bool run_jobs_to_completion(const std::vector<JobId>& ids,
                              sim::Duration limit = sim::hours(4)) {
    const sim::Time deadline = sim_.now() + limit;
    const auto all_done = [&] {
      for (JobId id : ids) {
        if (!jobtracker_->job(id).finished()) return false;
      }
      return true;
    };
    while (!all_done() && sim_.now() < deadline) {
      if (!sim_.step()) break;
    }
    for (JobId id : ids) {
      if (!jobtracker_->job(id).metrics().completed) return false;
    }
    return true;
  }

  Job& job() { return jobtracker_->job(job_id_); }
  JobTracker& jobtracker() { return *jobtracker_; }
  dfs::Dfs& dfs() { return *dfs_; }
  cluster::Cluster& cluster() { return cluster_; }
  sim::Simulation& sim() { return sim_; }

  void advance(sim::Duration d) { sim_.run_until(sim_.now() + d); }

  /// Runs until the job finishes or `limit` elapses; returns success.
  bool run_to_completion(sim::Duration limit = sim::hours(4)) {
    const sim::Time deadline = sim_.now() + limit;
    while (!job().finished() && sim_.now() < deadline) {
      if (!sim_.step()) break;
    }
    return job().metrics().completed;
  }

  void set_node_available(NodeId id, bool up) {
    cluster_.node(id).set_available(up);
  }

  std::vector<NodeId> volatile_ids;
  std::vector<NodeId> dedicated_ids;

 private:
  /// A cluster without a dedicated tier cannot satisfy dedicated-replica
  /// requirements; drop them (and the reliable-file normalisation that
  /// would re-add them) so such configs behave like plain Hadoop setups.
  static FixtureOptions normalize(FixtureOptions options) {
    if (options.dedicated_nodes == 0) {
      options.dfs.adaptive_replication = false;
      options.input_factor.dedicated = 0;
      options.intermediate_factor.dedicated = 0;
      options.output_factor.dedicated = 0;
    }
    return options;
  }

  FixtureOptions options_;
  sim::Simulation sim_;
  cluster::Cluster cluster_;
  std::unique_ptr<dfs::Dfs> dfs_;
  std::unique_ptr<JobTracker> jobtracker_;
  FileId input_;
  JobId job_id_;
};

inline SchedulerConfig hadoop_sched(sim::Duration expiry = 60 * sim::kSecond) {
  SchedulerConfig cfg;
  cfg.tracker_expiry = expiry;
  cfg.suspension_interval = 0;
  return cfg;
}

inline SchedulerConfig moon_sched(bool hybrid = false) {
  SchedulerConfig cfg;
  cfg.tracker_expiry = 30 * sim::kMinute;
  cfg.suspension_interval = 30 * sim::kSecond;
  cfg.speculator = SchedulerConfig::Speculator::kMoon;
  cfg.dfs_aware_recovery = true;
  cfg.hybrid_aware = hybrid;
  return cfg;
}

}  // namespace moon::mapred::testing
