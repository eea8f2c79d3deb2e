#include "dfs/dfs.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "simkit/fault_hooks.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace moon::dfs {

// ---- operation types -----------------------------------------------------

struct Dfs::Op {
  explicit Op(Done done) : done_(std::move(done)) {}
  virtual ~Op() = default;
  /// Kicks the operation off. Always invoked from a 0-delay event so that an
  /// operation can never complete (and run its callback) before the OpId has
  /// been returned to the caller — synchronous completion is a re-entrancy
  /// trap for callers tracking ops by id.
  virtual void begin() = 0;
  /// Called periodically; abandon stalled transfers and retry.
  virtual void probe() = 0;
  /// Abort all in-flight flows (operation is being cancelled).
  virtual void abort() = 0;

  Done done_;
  obs::Tracer::SpanId span_;  ///< open trace span (invalid when tracing off)
  Bytes charge_ = 0;          ///< partial-read bytes counted in-flight
  /// Finished or cancelled. A probe that changes the network (an abort, a
  /// batch close) can see its own op close under it: the settle that churn
  /// may run fires completions, which can finish or cancel this op.
  /// Dfs::probe_op keeps the op alive until the probe returns, and the probe
  /// must stop as soon as this is set.
  bool closed_ = false;
};

struct Dfs::WriteOp final : Dfs::Op {
  WriteOp(Dfs& dfs, OpId id, FileId file, NodeId writer, Done done)
      : Op(std::move(done)), dfs_(dfs), id_(id), file_(file), writer_(writer) {}

  Dfs& dfs_;
  OpId id_;
  FileId file_;
  NodeId writer_;
  std::vector<BlockId> blocks_;  // pre-allocated; written sequentially
  std::size_t current_ = 0;
  Bytes pending_alloc_ = 0;  ///< bytes awaiting block allocation (NN was down)
  bool parked_ = false;      ///< waiting out a NameNode outage
  /// In-flight replica transfers for the current block, keyed by FlowId so
  /// completion removal is O(log n) instead of an O(n) erase sweep. FlowIds
  /// are issued in start order, so iteration reproduces the launch order the
  /// old vector gave (§2 determinism contract: the probe's abort sweep draws
  /// the re-pick RNG in iteration order).
  std::map<FlowId, NodeId> inflight_;
  int committed_ = 0;  // replicas landed for the current block
  int retries_ = 0;

  void begin() override {
    if (!ensure_blocks()) return;
    start_block();
  }

  /// Allocates the file's blocks if write_file deferred it (NameNode down at
  /// issue time). Returns whether blocks exist and the write may proceed.
  bool ensure_blocks() {
    if (pending_alloc_ == 0) return true;
    if (!dfs_.namenode_.available()) {
      park();
      return false;
    }
    if (!dfs_.namenode_.file_exists(file_)) {
      // Deleted while parked (the owning attempt was killed); nothing to do.
      finish(false);
      return false;
    }
    Bytes remaining = pending_alloc_;
    pending_alloc_ = 0;
    const Bytes block_size = dfs_.config().block_size;
    while (remaining > 0) {
      const Bytes this_block = std::min(remaining, block_size);
      remaining -= this_block;
      blocks_.push_back(dfs_.namenode_.add_block(file_, this_block));
    }
    return true;
  }

  void park() {
    if (!parked_) {
      parked_ = true;
      ++dfs_.namenode_.stats_mutable().ops_parked;
    }
  }

  void start_block() {
    if (current_ >= blocks_.size()) {
      finish(true);
      return;
    }
    committed_ = 0;
    pick_and_launch();
  }

  void pick_and_launch() {
    if (!dfs_.namenode_.available()) {
      // Target selection needs the master; park until recovery re-kicks us.
      park();
      return;
    }
    parked_ = false;
    const BlockId block = blocks_[current_];
    auto targets = dfs_.namenode_.pick_write_targets(file_, writer_, dfs_.rng_);
    if (targets.nodes.empty()) {
      // Nothing live to write to; the stall probe retries us later.
      return;
    }
    const Bytes size = dfs_.namenode_.block(block).size;
    for (NodeId target : targets.nodes) {
      launch_replica(block, target, size);
    }
  }

  void launch_replica(BlockId block, NodeId target, Bytes size) {
    auto& net = dfs_.cluster_.network();
    const auto& writer_node = dfs_.cluster_.node(writer_);
    std::vector<sim::FlowNetwork::ResourceId> path;
    if (target == writer_) {
      path = {writer_node.disk()};
    } else {
      // Remote replicas stream from the writer's local spill: the writer's
      // disk is part of the path (this is what makes map time grow with the
      // volatile replication degree, cf. Table II).
      const auto& target_node = dfs_.cluster_.node(target);
      path = {writer_node.disk(), writer_node.nic_out(), target_node.nic_in(),
              target_node.disk()};
    }
    const FlowId flow = net.start_flow(path, size, [this, block, target](FlowId f) {
      on_replica_done(f, block, target);
    });
    inflight_.emplace(flow, target);
  }

  void on_replica_done(FlowId flow, BlockId block, NodeId target) {
    inflight_.erase(flow);
    if (dfs_.namenode_.block_exists(block)) {
      dfs_.land_replica(block, target, dfs_.namenode_.block(block).size);
      dfs_.namenode_.stats_mutable().bytes_written +=
          dfs_.namenode_.block(block).size;
    }
    ++committed_;
    if (inflight_.empty()) {
      // Block closed. Below-factor blocks go to the replication queue (the
      // HDFS "pipeline finished short" path). With the master down the
      // check is meaningless (its replica map was wiped); the post-recovery
      // under-factor sweep covers those blocks.
      if (dfs_.namenode_.available() && dfs_.namenode_.block_exists(block) &&
          !dfs_.namenode_.block_meets_factor(block)) {
        dfs_.namenode_.enqueue_replication(block);
      }
      ++current_;
      start_block();
    }
  }

  void probe() override {
    if (!dfs_.cluster_.node(writer_).available()) return;  // writer suspended
    if (!dfs_.namenode_.available()) {
      // Master down: let in-flight transfers stream (data plane), but do not
      // re-pick targets, burn retries or touch the replication queue.
      if (parked_ || inflight_.empty() || pending_alloc_ > 0) {
        ++dfs_.namenode_.stats_mutable().master_retries;
      }
      return;
    }
    if (parked_ || pending_alloc_ > 0) {
      // Parked during an outage; the recovery re-kick (or this probe) resumes.
      parked_ = false;
      if (!ensure_blocks()) return;
      if (inflight_.empty()) start_block();
      return;
    }
    if (current_ >= blocks_.size()) return;
    auto& net = dfs_.cluster_.network();
    // Drop transfers that are stalled on an unavailable target. The stall
    // query never settles, so no completion can fire during this walk.
    std::vector<FlowId> stalled;
    for (const auto& [flow, target] : inflight_) {
      if (net.stalled(flow) && !dfs_.cluster_.node(target).available()) {
        stalled.push_back(flow);
      }
    }
    {
      sim::FlowNetwork::CapacityBatch batch(net);
      for (FlowId flow : stalled) {
        net.abort_flow(flow);
        inflight_.erase(flow);
      }
    }
    // Closing the batch settles, which can land the last live replica and
    // finish the op.
    if (closed_) return;
    if (!inflight_.empty()) return;  // others still moving
    if (committed_ > 0) {
      // At least one replica landed; close the block under-replicated.
      const BlockId block = blocks_[current_];
      if (!dfs_.namenode_.block_meets_factor(block)) {
        dfs_.namenode_.enqueue_replication(block);
      }
      ++current_;
      start_block();
      return;
    }
    // Nothing landed yet: re-pick targets entirely.
    if (++retries_ > dfs_.config().max_write_target_retries) {
      finish(false);
      return;
    }
    pick_and_launch();
  }

  void abort() override {
    auto& net = dfs_.cluster_.network();
    sim::FlowNetwork::CapacityBatch batch(net);
    for (const auto& [flow, target] : inflight_) net.abort_flow(flow);
    inflight_.clear();
  }

  void finish(bool ok) { dfs_.finish_op(id_, ok); }
};

struct Dfs::ReadOp final : Dfs::Op {
  ReadOp(Dfs& dfs, OpId id, BlockId block, NodeId reader, Bytes bytes, int rounds,
         Done done)
      : Op(std::move(done)),
        dfs_(dfs),
        id_(id),
        block_(block),
        reader_(reader),
        bytes_(bytes),
        rounds_left_(rounds) {}

  Dfs& dfs_;
  OpId id_;
  BlockId block_;
  NodeId reader_;
  Bytes bytes_;  ///< transfer size (<= block size for partition fetches)
  int rounds_left_;
  FlowId flow_ = FlowId::invalid();
  NodeId source_ = NodeId::invalid();
  std::vector<NodeId> tried_;
  EventId round_wait_ = EventId::invalid();
  bool parked_ = false;  ///< waiting out a NameNode outage

  void begin() override { attempt(); }

  void attempt() {
    if (!dfs_.namenode_.available()) {
      // Replica lookup needs the master. Park — the crash wiped the location
      // map, so a sweep now would just burn read rounds against an empty
      // replica set. Recovery (or the stall probe) re-attempts.
      if (!parked_) {
        parked_ = true;
        ++dfs_.namenode_.stats_mutable().ops_parked;
      }
      return;
    }
    parked_ = false;
    if (!dfs_.namenode_.block_exists(block_)) {
      // The file was deleted while we were reading (e.g. a map's output was
      // discarded because the map is being re-executed).
      ++dfs_.namenode_.stats_mutable().read_failures;
      dfs_.finish_op(id_, false);
      return;
    }
    const auto order = dfs_.namenode_.read_order(block_, reader_);
    source_ = NodeId::invalid();
    for (NodeId n : order) {
      if (std::find(tried_.begin(), tried_.end(), n) == tried_.end()) {
        source_ = n;
        break;
      }
    }
    if (!source_.valid()) {
      // No untried live replica. HDFS-style block reads sweep the replica
      // set again after a pause (replicas reappear as nodes return); once
      // the rounds are spent, the read fails (callers decide whether that is
      // a fetch failure, a task failure, or a retry-later).
      if (--rounds_left_ > 0) {
        tried_.clear();
        round_wait_ = dfs_.sim_.schedule_after(
            dfs_.config().read_round_wait, [this] {
              round_wait_ = EventId::invalid();
              attempt();
            });
        return;
      }
      ++dfs_.namenode_.stats_mutable().read_failures;
      dfs_.finish_op(id_, false);
      return;
    }
    auto& net = dfs_.cluster_.network();
    const auto& reader_node = dfs_.cluster_.node(reader_);
    std::vector<sim::FlowNetwork::ResourceId> path;
    if (source_ == reader_) {
      path = {reader_node.disk()};
    } else {
      const auto& src_node = dfs_.cluster_.node(source_);
      path = {src_node.disk(), src_node.nic_out(), reader_node.nic_in()};
    }
    flow_ = net.start_flow(path, bytes_, [this](FlowId) {
      dfs_.namenode_.stats_mutable().bytes_read += bytes_;
      flow_ = FlowId::invalid();
      if (auto* faults = dfs_.sim_.faults();
          faults && dfs_.namenode_.block_exists(block_) &&
          dfs_.datanode(source_).corrupted(block_)) {
        // Checksum-on-read caught a corrupted replica: evict it, queue the
        // block for re-replication, and retry from another source. The
        // transfer's bytes stay counted — the wasted IO is the point.
        faults->note_corruption_detected(block_, source_);
        ++dfs_.namenode_.stats_mutable().corruptions_detected;
        dfs_.datanode(source_).drop_block(block_,
                                          dfs_.namenode_.block(block_).size);
        if (dfs_.namenode_.available() &&
            !dfs_.namenode_.block_meets_factor(block_)) {
          dfs_.namenode_.enqueue_replication(block_);
        }
        tried_.push_back(source_);
        attempt();
        return;
      }
      dfs_.finish_op(id_, true);
    });
  }

  void probe() override {
    if (parked_) {
      // Parked during a master outage; re-attempt once it is back.
      if (!dfs_.namenode_.available()) {
        ++dfs_.namenode_.stats_mutable().master_retries;
        return;
      }
      attempt();
      return;
    }
    if (!flow_.valid()) return;
    if (!dfs_.cluster_.node(reader_).available()) return;  // reader suspended
    auto& net = dfs_.cluster_.network();
    if (!net.stalled(flow_)) return;
    if (!dfs_.namenode_.available()) {
      // Stalled while the master is down: keep waiting. Re-picking a source
      // needs the (wiped) replica map; recovery restores it first.
      ++dfs_.namenode_.stats_mutable().master_retries;
      return;
    }
    // Stalled: abandon this replica and try the next one. The abort can
    // settle, and a completion it fires can cancel this op.
    net.abort_flow(flow_);
    if (closed_) return;
    flow_ = FlowId::invalid();
    tried_.push_back(source_);
    attempt();
  }

  void abort() override {
    if (flow_.valid()) {
      dfs_.cluster_.network().abort_flow(flow_);
      flow_ = FlowId::invalid();
    }
    if (round_wait_.valid()) {
      dfs_.sim_.cancel(round_wait_);
      round_wait_ = EventId::invalid();
    }
  }
};

/// Background re-replication stream.
struct Dfs::Repair {
  BlockId block;
  NodeId source;
  NodeId target;
  Bytes size;
  obs::Tracer::SpanId span;  ///< open trace span (invalid when tracing off)
};

// ---- Dfs ------------------------------------------------------------------

Dfs::Dfs(sim::Simulation& sim, cluster::Cluster& cluster, DfsConfig config,
         std::uint64_t seed)
    : sim_(sim),
      cluster_(cluster),
      rng_(Rng{seed}.fork("dfs")),
      namenode_(sim, cluster, config),
      probe_task_(sim, config.client_probe_interval, [this] { probe_ops(); }),
      replication_task_(sim, config.replication_scan_interval,
                        [this] { replication_scan(); }) {
  for (NodeId id : cluster_.all_nodes()) {
    datanodes_.push_back(
        std::make_unique<DataNode>(sim, cluster_.network(), cluster_.node(id),
                                   namenode_));
  }
}

Dfs::~Dfs() {
  for (auto& [id, op] : ops_) op->abort();
}

void Dfs::start() {
  if (started_) return;
  started_ = true;
  namenode_.start();
  for (auto& dn : datanodes_) dn->start();
  probe_task_.start();
  replication_task_.start();
}

void Dfs::crash_namenode() { namenode_.crash(); }

void Dfs::recover_namenode() {
  if (namenode_.available()) return;
  namenode_.begin_recovery();
  // Re-registration storm: every available DataNode reports its physically
  // stored blocks, in NodeId order (datanodes_ is indexed by node id).
  for (auto& dn : datanodes_) {
    if (dn->host().available()) dn->send_block_report();
  }
  // Drain deferred deletes and sweep every block for missing replicas.
  namenode_.finish_recovery();
  // Re-kick parked client ops in issue order; probe() doubles as the resume
  // hook (parked writes allocate + re-pick, parked reads re-attempt).
  probe_issued_ops();
  // Refill the repair pipeline from the post-recovery sweep's queue.
  start_repair_streams();
}

DataNode& Dfs::datanode(NodeId node) {
  if (!node.valid() || node.value() >= datanodes_.size()) {
    throw std::out_of_range("Dfs: unknown datanode");
  }
  return *datanodes_[node.value()];
}

bool Dfs::land_replica(BlockId block, NodeId target, Bytes size) {
  if (auto* faults = sim_.faults()) {
    if (faults->reject_write(block, target)) {
      ++namenode_.stats_mutable().writes_rejected;
      return false;
    }
    datanode(target).store_block(block, size);
    if (faults->corrupt_replica(block, target)) {
      datanode(target).mark_corrupted(block);
    }
    return true;
  }
  datanode(target).store_block(block, size);
  return true;
}

FileId Dfs::stage_file(const std::string& name, FileKind kind,
                       ReplicationFactor factor, Bytes size) {
  const Bytes block_size = config().block_size;
  const int full = static_cast<int>(size / block_size);
  const Bytes tail = size % block_size;
  const FileId file = stage_blocks(name, kind, factor, full, block_size);
  if (tail > 0) {
    // Append the partial trailing block with the same placement rules.
    const BlockId block = namenode_.add_block(file, tail);
    const auto dedicated = cluster_.dedicated_nodes();
    const auto volatiles = cluster_.volatile_nodes();
    const auto& meta = namenode_.file(file);
    const int want_d =
        std::min<int>(meta.factor.dedicated, static_cast<int>(dedicated.size()));
    for (int i = 0; i < want_d; ++i) {
      datanode(dedicated[static_cast<std::size_t>(i)]).store_block(block, tail);
    }
    const int want_v = std::min<int>(meta.factor.volatile_count,
                                     static_cast<int>(volatiles.size()));
    if (want_v > 0) {
      auto picks = rng_.sample_without_replacement(volatiles.size(),
                                                   static_cast<std::size_t>(want_v));
      for (std::size_t idx : picks) {
        datanode(volatiles[idx]).store_block(block, tail);
      }
    }
    namenode_.try_complete_file(file);
  }
  return file;
}

FileId Dfs::stage_blocks(const std::string& name, FileKind kind,
                         ReplicationFactor factor, int count, Bytes block_bytes) {
  const FileId file = namenode_.create_file(name, kind, factor);
  const auto dedicated = cluster_.dedicated_nodes();
  const auto volatiles = cluster_.volatile_nodes();

  std::size_t dedicated_rr = 0;
  for (int b = 0; b < count; ++b) {
    const BlockId block = namenode_.add_block(file, block_bytes);
    const int want_d = std::min<int>(namenode_.file(file).factor.dedicated,
                                     static_cast<int>(dedicated.size()));
    for (int i = 0; i < want_d; ++i) {
      const NodeId target = dedicated[dedicated_rr++ % dedicated.size()];
      datanode(target).store_block(block, block_bytes);
    }
    const int want_v = std::min<int>(namenode_.file(file).factor.volatile_count,
                                     static_cast<int>(volatiles.size()));
    if (want_v > 0) {
      auto picks = rng_.sample_without_replacement(volatiles.size(),
                                                   static_cast<std::size_t>(want_v));
      for (std::size_t idx : picks) {
        datanode(volatiles[idx]).store_block(block, block_bytes);
      }
    }
  }
  namenode_.try_complete_file(file);
  return file;
}

OpId Dfs::write_file(FileId file, NodeId writer, Bytes size, Done done) {
  const OpId id = next_op_++;
  auto op = std::make_unique<WriteOp>(*this, id, file, writer, std::move(done));
  // Allocate all blocks up-front so metadata (sizes) exists even while data
  // is in flight. With the NameNode down the allocation (a metadata op) is
  // deferred: the op parks holding the byte count and allocates on recovery.
  if (namenode_.available()) {
    Bytes remaining = std::max<Bytes>(size, 1);
    const Bytes block_size = config().block_size;
    while (remaining > 0) {
      const Bytes this_block = std::min(remaining, block_size);
      remaining -= this_block;
      op->blocks_.push_back(namenode_.add_block(file, this_block));
    }
  } else {
    op->pending_alloc_ = std::max<Bytes>(size, 1);
  }
  if (auto* tracer = sim_.tracer()) {
    op->span_ = tracer->begin(obs::kDfsPid, obs::node_track(writer),
                              obs::Cat::kIo, "write", sim_.now(),
                              {{"file", std::to_string(file.value())},
                               {"bytes", std::to_string(size)}});
  }
  ops_.emplace(id, std::move(op));
  begin_op(id);
  return id;
}

OpId Dfs::read_block(BlockId block, NodeId reader, Done done) {
  const OpId id = next_op_++;
  auto op = std::make_unique<ReadOp>(*this, id, block, reader,
                                     namenode_.block(block).size,
                                     config().max_read_rounds, std::move(done));
  if (auto* tracer = sim_.tracer()) {
    op->span_ = tracer->begin(
        obs::kDfsPid, obs::node_track(reader), obs::Cat::kIo, "read",
        sim_.now(),
        {{"block", std::to_string(block.value())},
         {"bytes", std::to_string(namenode_.block(block).size)}});
  }
  ops_.emplace(id, std::move(op));
  begin_op(id);
  return id;
}

OpId Dfs::read_partial(BlockId block, NodeId reader, Bytes bytes, Done done) {
  const OpId id = next_op_++;
  auto op = std::make_unique<ReadOp>(*this, id, block, reader, bytes,
                                     /*rounds=*/1, std::move(done));
  op->charge_ = bytes;
  partial_inflight_ += bytes;
  if (auto* tracer = sim_.tracer()) {
    op->span_ = tracer->begin(obs::kDfsPid, obs::node_track(reader),
                              obs::Cat::kIo, "fetch", sim_.now(),
                              {{"block", std::to_string(block.value())},
                               {"bytes", std::to_string(bytes)}});
  }
  ops_.emplace(id, std::move(op));
  begin_op(id);
  return id;
}

void Dfs::begin_op(OpId id) {
  sim_.schedule_after(0, [this, id] {
    auto it = ops_.find(id);
    if (it != ops_.end()) it->second->begin();
  });
}

void Dfs::cancel_op(OpId op) {
  auto it = ops_.find(op);
  if (it == ops_.end()) return;
  it->second->abort();
  it->second->closed_ = true;
  partial_inflight_ -= it->second->charge_;
  if (auto* tracer = sim_.tracer()) {
    tracer->end(it->second->span_, sim_.now(), {{"outcome", "cancelled"}});
  }
  if (it->second.get() == probing_) probed_closed_ = std::move(it->second);
  ops_.erase(it);
}

void Dfs::finish_op(OpId id, bool ok) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return;
  // Extract before invoking: the callback may start new ops or cancel
  // others, and must not observe this op as active.
  std::unique_ptr<Op> op = std::move(it->second);
  ops_.erase(it);
  op->closed_ = true;
  partial_inflight_ -= op->charge_;
  if (auto* tracer = sim_.tracer()) {
    tracer->end(op->span_, sim_.now(), {{"outcome", ok ? "ok" : "failed"}});
  }
  if (op->done_) op->done_(ok);
  if (op.get() == probing_) probed_closed_ = std::move(op);
}

void Dfs::probe_ops() {
  sim::Profiler::Scope profile(sim_.profiler(), sim::Profiler::Key::kDfsProbe);
  probe_issued_ops();
}

void Dfs::probe_issued_ops() {
  // Probes retry stalled transfers (state-changing), so they run in issue
  // order (§2 determinism contract). A probe may finish or cancel ops and
  // its callbacks may issue new ones: step past the last probed id, and
  // stop at the first id issued during the walk.
  const OpId end = next_op_;
  for (auto it = ops_.begin(); it != ops_.end() && it->first < end;) {
    const OpId id = it->first;
    probe_op(id);
    it = ops_.upper_bound(id);
  }
}

void Dfs::probe_op(OpId id) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return;
  probing_ = it->second.get();
  probing_->probe();
  probing_ = nullptr;
  probed_closed_.reset();
}

void Dfs::replication_scan() {
  sim::Profiler::Scope profile(sim_.profiler(),
                               sim::Profiler::Key::kReplicationScan);
  // The repair pipeline is master-driven: freeze it during an outage (live
  // streams keep draining; the post-recovery sweep re-queues what they owe).
  if (!namenode_.available()) return;
  auto& net = cluster_.network();
  // 1. Recycle stalled repair streams, in flow-start order: each abort
  // re-enqueues the block, and the queue position decides the retry order
  // (§2 determinism contract).
  {
    sim::FlowNetwork::CapacityBatch batch(net);
    for (auto it = repairs_.begin(); it != repairs_.end();) {
      if (!net.stalled(it->first)) {
        ++it;
        continue;
      }
      net.abort_flow(it->first);
      if (auto* tracer = sim_.tracer()) {
        tracer->end(it->second.span, sim_.now(), {{"outcome", "stalled"}});
      }
      namenode_.enqueue_replication(it->second.block);
      it = repairs_.erase(it);
    }
  }
  // 2. Launch new streams up to the cap.
  start_repair_streams();
}

void Dfs::start_repair_streams() {
  if (!namenode_.available()) return;
  auto& net = cluster_.network();
  std::vector<BlockId> deferred;
  while (repairs_.size() <
         static_cast<std::size_t>(config().max_replication_streams)) {
    auto req = namenode_.next_replication_request();
    if (!req) break;
    auto plan = namenode_.plan_repair(req->block, rng_);
    if (!plan) {
      deferred.push_back(req->block);
      continue;
    }
    const Bytes size = namenode_.block(req->block).size;
    const auto& src = cluster_.node(plan->source);
    const auto& dst = cluster_.node(plan->target);
    const BlockId block = req->block;
    const NodeId target = plan->target;
    const FlowId flow = net.start_flow(
        {src.disk(), src.nic_out(), dst.nic_in(), dst.disk()}, size,
        [this, block, target, size](FlowId f) {
          auto rit = repairs_.find(f);
          if (rit != repairs_.end()) {
            if (auto* tracer = sim_.tracer()) {
              tracer->end(rit->second.span, sim_.now(), {{"outcome", "ok"}});
            }
            repairs_.erase(rit);
          }
          // The file may have been deleted while the copy was in flight
          // (e.g. a map output discarded for re-execution): drop the bytes.
          if (namenode_.block_exists(block)) {
            land_replica(block, target, size);
            namenode_.stats_mutable().replication_bytes += size;
            if (namenode_.available() && !namenode_.block_meets_factor(block)) {
              namenode_.enqueue_replication(block);
            }
          }
          // A slot freed up; try to keep the pipeline full.
          start_repair_streams();
        });
    obs::Tracer::SpanId span;
    if (auto* tracer = sim_.tracer()) {
      span = tracer->begin(obs::kDfsPid, obs::node_track(target),
                           obs::Cat::kRepair, "repair", sim_.now(),
                           {{"block", std::to_string(block.value())},
                            {"source", std::to_string(plan->source.value())},
                            {"bytes", std::to_string(size)}});
    }
    if (sim_.event_log() != nullptr) {
      obs::emit(sim_, obs::Level::kDebug, "dfs", "repair stream",
                {{"block", std::to_string(block.value())},
                 {"source", std::to_string(plan->source.value())},
                 {"target", std::to_string(target.value())}});
    }
    repairs_.emplace(flow,
                     Repair{block, plan->source, plan->target, size, span});
  }
  for (BlockId b : deferred) namenode_.enqueue_replication(b);
}

}  // namespace moon::dfs
