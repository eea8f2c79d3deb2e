#include "dfs/namenode.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/event_log.hpp"
#include "recovery/master_journal.hpp"

namespace moon::dfs {

bool BlockMeta::has_replica_on(NodeId node) const {
  return std::find(replicas.begin(), replicas.end(), node) != replicas.end();
}

NameNode::NameNode(sim::Simulation& sim, cluster::Cluster& cluster, DfsConfig config)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      liveness_task_(sim, config.liveness_scan_interval, [this] { liveness_scan(); }),
      estimate_task_(sim, config.estimate_interval, [this] { estimate_scan(); }) {}

void NameNode::start() {
  if (started_) return;
  started_ = true;
  liveness_task_.start();
  estimate_task_.start();
}

// ---- crash-recovery (DESIGN.md §14) ----------------------------------------

void NameNode::crash() {
  if (!up_) return;
  up_ = false;
  // Replica locations are soft state: wipe them in BlockId order so the
  // removal events the scheduler's locality indices hang off fire in a
  // reproducible sequence.
  for (BlockMeta& meta : blocks_.live()) {
    for (NodeId n : meta.replicas) notify_replica(meta.id, n, /*added=*/false);
    meta.replicas.clear();
    meta.queue_seq = BlockMeta::kNotQueued;
  }
  for (NodeBlocks& bucket : node_blocks_) bucket = {};
  live_dedicated_.clear();
  live_volatile_.clear();
  // The liveness view is forgotten wholesale. No state listeners fire: the
  // nodes did not change, the master's knowledge of them did.
  for (auto& info : datanodes_) {
    if (info) info->state = DataNodeState::kDead;
  }
  replication_queue_.clear();
  estimate_p_ = 0.0;
  estimate_accum_ = 0.0;
  estimate_samples_ = 0;
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kWarn, "dfs", "namenode crashed",
              {{"epoch", std::to_string(epoch_)}});
  }
}

void NameNode::begin_recovery() {
  if (up_) return;
  ++epoch_;
  up_ = true;
  if (journal_ != nullptr) journal_->add_divergences(diff_against_journal());
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kInfo, "dfs", "namenode recovering",
              {{"epoch", std::to_string(epoch_)}});
  }
}

std::int64_t NameNode::diff_against_journal() {
  // Replay the journal into an image and diff it against the live namespace
  // (the clients' cached view). Any mismatch means a real restart-from-
  // journal would have lost or invented durable state.
  const recovery::NameNodeImage& image = journal_->replay();
  std::int64_t diverged = 0;
  for (const auto& [id, fi] : image) {
    const FileMeta* found = files_.find(id);
    if (found == nullptr) {
      ++diverged;
      continue;
    }
    const FileMeta& live = *found;
    if (live.kind != fi.kind || live.complete != fi.complete ||
        !(live.factor == fi.factor) ||
        live.blocks.size() != fi.blocks.size()) {
      ++diverged;
      continue;
    }
    for (std::size_t i = 0; i < fi.blocks.size(); ++i) {
      const auto& [bid, bytes] = fi.blocks[i];
      const BlockMeta* block = blocks_.find(bid);
      if (live.blocks[i] != bid || block == nullptr || block->size != bytes) {
        ++diverged;
        break;
      }
    }
  }
  for (const FileMeta& meta : files_.live()) {
    if (!image.contains(meta.id)) ++diverged;
  }
  return diverged;
}

void NameNode::handle_block_report(NodeId node,
                                   const std::vector<BlockId>& report,
                                   double reported_bandwidth) {
  if (!up_) return;
  if (info_of(node) == nullptr) register_datanode(node);
  DataNodeInfo& info = *info_of(node);
  info.last_heartbeat = sim_.now();
  if (info.dedicated && config_.throttling_enabled) {
    info.throttle.update(reported_bandwidth);
  }
  if (info.state != DataNodeState::kLive) {
    set_state(node, DataNodeState::kLive);
  }
  for (BlockId b : report) {
    // Stale blocks of meanwhile-deleted files are simply not re-admitted;
    // the DataNode keeps the bytes (same contract as normal deletes).
    if (blocks_.contains(b)) commit_replica(b, node);
  }
  ++stats_.block_reports;
}

void NameNode::finish_recovery() {
  // Deferred deletes first, so their blocks are gone before the
  // under-factor sweep and cannot be repaired back into existence.
  std::vector<FileId> removals;
  removals.swap(deferred_removals_);
  for (FileId f : removals) remove_file(f);
  // Every block still short of its factor after the re-registration storm
  // re-enters the normal repair queue, in BlockId order.
  for (const BlockMeta& meta : blocks_.live()) {
    if (!block_meets_factor(meta.id)) enqueue_replication(meta.id);
  }
}

void NameNode::register_datanode(NodeId node) {
  DataNodeInfo info{DataNodeState::kLive, sim_.now(),
                    ThrottleState{config_.throttle_window, config_.throttle_threshold},
                    cluster_.node(node).dedicated()};
  if (info_of(node) == nullptr && !info.dedicated) ++volatile_registered_;
  if (node.value() >= datanodes_.size()) datanodes_.resize(node.value() + 1);
  datanodes_[node.value()] = std::move(info);
  bucket_of(node);  // blocks_on() is non-null for every registered node
  update_live_partition(node);
}

NameNode::NodeBlocks& NameNode::bucket_of(NodeId node) {
  if (node.value() >= node_blocks_.size()) node_blocks_.resize(node.value() + 1);
  return node_blocks_[node.value()];
}

void NameNode::update_live_partition(NodeId node) {
  const DataNodeInfo& info = *info_of(node);
  auto& mine = info.dedicated ? live_dedicated_ : live_volatile_;
  if (info.state == DataNodeState::kLive) {
    mine.insert(node);
  } else {
    mine.erase(node);
  }
}

void NameNode::heartbeat(NodeId node, double reported_bandwidth) {
  if (!up_) return;  // lost on the wire; DataNodes gate on available() anyway
  DataNodeInfo* info = info_of(node);
  if (info == nullptr) throw std::logic_error("NameNode: unregistered datanode");
  info->last_heartbeat = sim_.now();
  if (info->dedicated && config_.throttling_enabled) {
    info->throttle.update(reported_bandwidth);
  }
  if (info->state != DataNodeState::kLive) {
    set_state(node, DataNodeState::kLive);
  }
}

DataNodeState NameNode::state_of(NodeId node) const {
  const DataNodeInfo* info = info_of(node);
  if (info == nullptr) throw std::logic_error("NameNode: unregistered datanode");
  return info->state;
}

bool NameNode::is_saturated(NodeId dedicated_node) const {
  const DataNodeInfo* info = info_of(dedicated_node);
  if (info == nullptr || !info->dedicated) return false;
  if (!config_.throttling_enabled) return false;
  return info->throttle.throttled();
}

bool NameNode::all_dedicated_saturated() const {
  for (NodeId id : live_dedicated_) {
    if (!config_.throttling_enabled || !info_of(id)->throttle.throttled()) {
      return false;
    }
  }
  // Either every live dedicated node is throttled, or none is live at all;
  // both mean "cannot take dedicated writes right now".
  return true;
}

void NameNode::liveness_scan() {
  if (!up_) return;  // a crashed master scans nothing
  sim::Profiler::Scope profile(sim_.profiler(), sim::Profiler::Key::kNameNodeSweep);
  const sim::Time now = sim_.now();
  // datanodes_ is indexed by NodeId: expiring nodes die in id order, so
  // the replication-queue enqueue sequence their deaths trigger is
  // reproducible regardless of registration order.
  for (std::size_t i = 0; i < datanodes_.size(); ++i) {
    if (!datanodes_[i] || datanodes_[i]->state == DataNodeState::kDead) continue;
    const NodeId id{i};
    const DataNodeState state = datanodes_[i]->state;
    const sim::Duration gap = now - datanodes_[i]->last_heartbeat;
    if (gap > config_.expiry_interval) {
      set_state(id, DataNodeState::kDead);
    } else if (config_.hibernate_enabled && state == DataNodeState::kLive &&
               gap > config_.hibernate_interval) {
      set_state(id, DataNodeState::kHibernated);
    }
  }
}

void NameNode::estimate_scan() {
  if (!up_) return;
  sim::Profiler::Scope profile(sim_.profiler(), sim::Profiler::Key::kNameNodeSweep);
  const std::size_t volatile_total = volatile_registered_;
  const std::size_t volatile_down = volatile_total - live_volatile_.size();
  if (volatile_total == 0) return;
  const double sample =
      static_cast<double>(volatile_down) / static_cast<double>(volatile_total);
  // Exponentially weighted estimate over interval I: responsive to shifts
  // but stable against single-scan noise.
  constexpr double kAlpha = 0.5;
  estimate_p_ = estimate_samples_ == 0 ? sample
                                       : kAlpha * sample + (1.0 - kAlpha) * estimate_p_;
  ++estimate_samples_;
  if (config_.adaptive_replication) refresh_adaptive_requirements();
}

void NameNode::set_state(NodeId node, DataNodeState next) {
  DataNodeInfo& info = *info_of(node);
  const DataNodeState prev = info.state;
  if (prev == next) return;
  info.state = next;
  update_live_partition(node);
  if (next == DataNodeState::kDead) {
    ++stats_.dead_transitions;
    on_node_dead(node);
  } else if (next == DataNodeState::kHibernated) {
    ++stats_.hibernate_transitions;
    on_node_hibernated(node);
  }
  for (const auto& listener : state_listeners_) listener(node, prev, next);
}

void NameNode::on_node_dead(NodeId node) {
  // Every block on the node loses a replica for accounting purposes; the
  // replica list keeps the entry (the node may return with data intact), but
  // factor checks ignore dead holders, so under-replicated blocks re-queue.
  // Merge-walking the two BlockId-ordered halves of the bucket enqueues in
  // id order (§2 determinism contract) without snapshotting; the enqueue
  // only touches the queue structures, never the bucket being walked.
  const NodeBlocks* bucket = blocks_on(node);
  if (bucket == nullptr) return;
  const std::vector<BlockId>& opp = bucket->opportunistic;
  const std::vector<BlockId>& rel = bucket->reliable;
  auto o = opp.begin();
  auto r = rel.begin();
  while (o != opp.end() || r != rel.end()) {
    const BlockId b = (r == rel.end() || (o != opp.end() && *o < *r)) ? *o++ : *r++;
    if (!block_meets_factor(b)) enqueue_replication(b);
  }
}

void NameNode::on_node_hibernated(NodeId node) {
  // §IV-C: "only opportunistic files without dedicated replicas will be
  // re-replicated" when a node hibernates.
  const NodeBlocks* bucket = blocks_on(node);
  if (bucket == nullptr) return;
  for (BlockId b : bucket->opportunistic) {
    const BlockMeta& meta = block(b);
    const LiveReplicas live = count_live(meta);
    if (live.dedicated > 0) continue;
    if (!meets_factor(meta, live)) enqueue_replication(b);
  }
}

// ---- namespace ----------------------------------------------------------

FileId NameNode::create_file(std::string name, FileKind kind,
                             ReplicationFactor factor) {
  if (kind == FileKind::kReliable && factor.dedicated < 1) {
    // "One or more dedicated copies are always maintained for reliable
    // files"; normalise rather than reject so Hadoop-mode configs (d=0)
    // can still mark files reliable semantically.
    if (config_.adaptive_replication) factor.dedicated = 1;
  }
  const FileId id = file_ids_.next();
  FileMeta& meta = files_.add(id);
  meta.name = std::move(name);
  meta.kind = kind;
  meta.factor = factor;
  if (journal_ != nullptr) {
    journal_->record_create_file(id, meta.name, kind, factor);
  }
  return id;
}

const FileMeta& NameNode::file(FileId id) const {
  const FileMeta* meta = files_.find(id);
  if (meta == nullptr) throw std::out_of_range("NameNode: unknown file");
  return *meta;
}

FileMeta& NameNode::file_mutable(FileId id) {
  FileMeta* meta = files_.find(id);
  if (meta == nullptr) throw std::out_of_range("NameNode: unknown file");
  return *meta;
}

bool NameNode::file_exists(FileId id) const { return files_.contains(id); }

void NameNode::convert_to_reliable(FileId id) {
  auto& meta = file_mutable(id);
  const bool was_opportunistic = meta.kind == FileKind::kOpportunistic;
  meta.kind = FileKind::kReliable;
  meta.adaptive_volatile = 0;
  adaptive_files_.erase(id);
  if (was_opportunistic) {
    for (BlockId b : meta.blocks) {
      // Move the block to the reliable half of every holder's bucket.
      for (NodeId n : blocks_.find(b)->replicas) {
        NodeBlocks& bucket = bucket_of(n);
        sorted_erase(bucket.opportunistic, b);
        sorted_insert(bucket.reliable, b);
      }
      // Move an already-queued block into the reliable class under its
      // original sequence number (the queue serves reliable files first).
      const std::uint64_t seq = blocks_.find(b)->queue_seq;
      if (seq != BlockMeta::kNotQueued) {
        replication_queue_.erase({queue_class(FileKind::kOpportunistic), seq, b});
        replication_queue_.emplace(queue_class(FileKind::kReliable), seq, b);
      }
    }
  }
  // Reliable files carry a dedicated copy — but only when the deployment
  // actually manages a dedicated tier (plain Hadoop mode has none, and an
  // unsatisfiable requirement would wedge job commit forever).
  if (config_.adaptive_replication && meta.factor.dedicated < 1) {
    meta.factor.dedicated = 1;
  }
  if (journal_ != nullptr) journal_->record_convert_reliable(id, meta.factor);
  for (BlockId b : meta.blocks) {
    if (!block_meets_factor(b)) enqueue_replication(b);
  }
}

bool NameNode::try_complete_file(FileId id) {
  auto& meta = file_mutable(id);
  if (meta.complete) return true;
  if (!file_meets_factor(id)) return false;
  meta.complete = true;
  if (journal_ != nullptr) journal_->record_complete_file(id);
  return true;
}

void NameNode::remove_file(FileId id) {
  if (!up_) {
    // Deletes against a crashed master park until recovery; the drain in
    // finish_recovery() replays them in arrival order.
    ++stats_.removals_deferred;
    deferred_removals_.push_back(id);
    return;
  }
  const FileMeta* meta = files_.find(id);
  if (meta == nullptr) return;
  if (journal_ != nullptr) journal_->record_remove_file(id);
  for (BlockId b : meta->blocks) {
    if (const BlockMeta* block = blocks_.find(b)) {
      for (NodeId n : block->replicas) {
        sorted_erase(bucket_of(n).of(meta->kind), b);
        notify_replica(b, n, /*added=*/false);
      }
      replication_queue_.erase({queue_class(meta->kind), block->queue_seq, b});
      blocks_.erase(b);
    }
  }
  adaptive_files_.erase(id);
  files_.erase(id);
}

// ---- blocks ---------------------------------------------------------------

BlockId NameNode::add_block(FileId file_id, Bytes size) {
  auto& meta = file_mutable(file_id);
  const BlockId id = block_ids_.next();
  BlockMeta& bm = blocks_.add(id);
  bm.file = file_id;
  bm.size = size;
  meta.blocks.push_back(id);
  meta.size += size;
  if (journal_ != nullptr) journal_->record_add_block(file_id, id, size);
  return id;
}

const BlockMeta& NameNode::block(BlockId id) const {
  const BlockMeta* meta = blocks_.find(id);
  if (meta == nullptr) throw std::out_of_range("NameNode: unknown block");
  return *meta;
}

bool NameNode::block_exists(BlockId id) const { return blocks_.contains(id); }

NameNode::WriteTargets NameNode::pick_write_targets(FileId file_id, NodeId writer,
                                                    Rng& rng) {
  const auto& meta = file(file_id);
  WriteTargets out;

  // Live candidates come straight from the maintained partitions; the sets
  // iterate in the id order the old gather-then-sort produced.
  const std::set<NodeId>& live_dedicated = live_dedicated_;
  const std::set<NodeId>& live_volatile = live_volatile_;

  // --- dedicated replicas (Figure 3) ---
  int want_dedicated = meta.factor.dedicated;
  if (want_dedicated > 0) {
    const bool saturated = all_dedicated_saturated();
    if (meta.kind == FileKind::kOpportunistic && saturated) {
      // "a write request from an opportunistic file will be declined if all
      // dedicated DataNodes are close to saturation".
      out.dedicated_declined = true;
      ++stats_.dedicated_writes_declined;
      want_dedicated = 0;
    }
  }
  if (want_dedicated > 0 && !live_dedicated.empty()) {
    // Prefer unsaturated dedicated nodes; reliable writes fall back to
    // saturated ones ("always be satisfied on dedicated DataNodes").
    std::vector<NodeId> preferred;
    for (NodeId n : live_dedicated) {
      if (!is_saturated(n)) preferred.push_back(n);
    }
    if (preferred.empty() && meta.kind == FileKind::kReliable) {
      preferred.assign(live_dedicated.begin(), live_dedicated.end());
    }
    rng.shuffle(preferred);
    for (NodeId n : preferred) {
      if (want_dedicated == 0) break;
      out.nodes.push_back(n);
      --want_dedicated;
    }
  }

  // --- volatile replicas ---
  int want_volatile = meta.factor.volatile_count;
  if (out.dedicated_declined && config_.adaptive_replication) {
    // v -> v' so availability still meets the goal without a dedicated copy.
    const int v_prime = adaptive_volatile_requirement();
    if (v_prime > want_volatile) {
      want_volatile = v_prime;
      ++stats_.adaptive_v_raises;
    }
    // v' >= 1, so the file always enters the adaptive index here.
    file_mutable(file_id).adaptive_volatile = want_volatile;
    adaptive_files_.insert(file_id);
  }
  out.effective_volatile = want_volatile;

  // Hadoop-style: first volatile replica lands on the writer if possible.
  std::vector<NodeId> chosen_volatile;
  const bool writer_is_volatile = live_volatile.contains(writer);
  if (want_volatile > 0 && writer_is_volatile) {
    chosen_volatile.push_back(writer);
    --want_volatile;
  }
  if (want_volatile > 0) {
    std::vector<NodeId> remote;
    for (NodeId n : live_volatile) {
      if (n != writer) remote.push_back(n);
    }
    rng.shuffle(remote);
    for (NodeId n : remote) {
      if (want_volatile == 0) break;
      chosen_volatile.push_back(n);
      --want_volatile;
    }
  }
  out.nodes.insert(out.nodes.end(), chosen_volatile.begin(), chosen_volatile.end());
  return out;
}

void NameNode::commit_replica(BlockId block_id, NodeId node) {
  BlockMeta* meta = blocks_.find(block_id);
  if (meta == nullptr) throw std::out_of_range("NameNode: unknown block");
  if (!meta->has_replica_on(node)) {
    meta->replicas.push_back(node);
    sorted_insert(bucket_of(node).of(files_.find(meta->file)->kind), block_id);
    notify_replica(block_id, node, /*added=*/true);
  }
}

void NameNode::drop_replica(BlockId block_id, NodeId node) {
  BlockMeta* meta = blocks_.find(block_id);
  if (meta == nullptr) return;
  auto& reps = meta->replicas;
  const auto held = reps.size();
  reps.erase(std::remove(reps.begin(), reps.end(), node), reps.end());
  sorted_erase(bucket_of(node).of(files_.find(meta->file)->kind), block_id);
  if (reps.size() != held) notify_replica(block_id, node, /*added=*/false);
}

void NameNode::notify_replica(BlockId block_id, NodeId node, bool added) {
  for (const auto& listener : replica_listeners_) listener(block_id, node, added);
}

std::vector<NodeId> NameNode::read_order(BlockId block_id, NodeId reader) const {
  const auto& meta = block(block_id);
  std::vector<NodeId> local, volatiles, dedicated;
  for (NodeId n : meta.replicas) {
    const DataNodeInfo* info = info_of(n);
    if (info == nullptr || info->state != DataNodeState::kLive) continue;
    if (n == reader) {
      local.push_back(n);
    } else if (info->dedicated) {
      dedicated.push_back(n);
    } else {
      volatiles.push_back(n);
    }
  }
  std::sort(volatiles.begin(), volatiles.end());
  std::sort(dedicated.begin(), dedicated.end());
  std::vector<NodeId> order = std::move(local);
  const bool reader_is_volatile = !cluster_.node(reader).dedicated();
  if (config_.prefer_volatile_reads && reader_is_volatile) {
    // §IV-B: "read requests from clients on volatile DataNodes will always
    // try to fetch data from volatile replicas first".
    order.insert(order.end(), volatiles.begin(), volatiles.end());
    order.insert(order.end(), dedicated.begin(), dedicated.end());
  } else {
    order.insert(order.end(), dedicated.begin(), dedicated.end());
    order.insert(order.end(), volatiles.begin(), volatiles.end());
  }
  return order;
}

bool NameNode::block_readable(BlockId block_id) const {
  const auto& meta = block(block_id);
  for (NodeId n : meta.replicas) {
    const DataNodeInfo* info = info_of(n);
    if (info != nullptr && info->state == DataNodeState::kLive) return true;
  }
  return false;
}

NameNode::LiveReplicas NameNode::live_replicas(BlockId block_id) const {
  return count_live(block(block_id));
}

NameNode::LiveReplicas NameNode::count_live(const BlockMeta& meta) const {
  LiveReplicas out;
  for (NodeId n : meta.replicas) {
    const DataNodeInfo* info = info_of(n);
    if (info == nullptr) continue;
    switch (info->state) {
      case DataNodeState::kLive:
        ++(info->dedicated ? out.dedicated : out.volatile_count);
        break;
      case DataNodeState::kHibernated:
        ++out.hibernated;
        break;
      case DataNodeState::kDead:
        break;
    }
  }
  return out;
}

bool NameNode::block_meets_factor(BlockId block_id) const {
  const auto& meta = block(block_id);
  return meets_factor(meta, count_live(meta));
}

bool NameNode::meets_factor(const BlockMeta& meta,
                            const LiveReplicas& live) const {
  const auto& fm = *files_.find(meta.file);

  const int need_dedicated = fm.factor.dedicated;
  int need_volatile = fm.required_volatile();

  if (live.dedicated < need_dedicated) {
    // Opportunistic files tolerate a missing dedicated copy as long as the
    // (possibly adaptively raised) volatile requirement is met.
    if (fm.kind == FileKind::kReliable) return false;
    return live.volatile_count >= need_volatile;
  }
  // Dedicated requirement met: hibernated replicas retain their value
  // ("a data block with dedicated replicas already has the necessary
  // availability to tolerate transient unavailability of volatile nodes").
  const int effective_volatile =
      live.volatile_count + (live.dedicated > 0 ? live.hibernated : 0);
  return effective_volatile >= fm.factor.volatile_count;
}

bool NameNode::file_meets_factor(FileId file_id) const {
  const auto& meta = file(file_id);
  if (meta.blocks.empty()) return false;
  for (BlockId b : meta.blocks) {
    if (!block_meets_factor(b)) return false;
  }
  return true;
}

// ---- replication queue ------------------------------------------------

void NameNode::enqueue_replication(BlockId block_id) {
  BlockMeta* meta = blocks_.find(block_id);
  if (meta == nullptr || meta->queue_seq != BlockMeta::kNotQueued) return;
  meta->queue_seq = queue_seq_++;
  replication_queue_.emplace(queue_class(files_.find(meta->file)->kind),
                             meta->queue_seq, block_id);
  ++stats_.re_replications;
}

std::optional<NameNode::ReplicationRequest> NameNode::next_replication_request() {
  // Reliable files first, each class in enqueue order; a block repaired in
  // the meantime is dropped.
  while (!replication_queue_.empty()) {
    const auto [cls, seq, id] = *replication_queue_.begin();
    replication_queue_.erase(replication_queue_.begin());
    blocks_.find(id)->queue_seq = BlockMeta::kNotQueued;
    if (block_meets_factor(id)) continue;
    return ReplicationRequest{id, cls == queue_class(FileKind::kReliable)};
  }
  return std::nullopt;
}

std::size_t NameNode::replication_queue_depth() const {
  return replication_queue_.size();
}

std::optional<NameNode::RepairPlan> NameNode::plan_repair(BlockId block_id,
                                                          Rng& rng) {
  const BlockMeta* found = blocks_.find(block_id);
  if (found == nullptr) return std::nullopt;
  const auto& meta = *found;
  const auto& fm = *files_.find(meta.file);

  // Source: any live replica holder.
  std::vector<NodeId> sources;
  for (NodeId n : meta.replicas) {
    const DataNodeInfo* info = info_of(n);
    if (info != nullptr && info->state == DataNodeState::kLive) {
      sources.push_back(n);
    }
  }
  if (sources.empty()) return std::nullopt;  // unrecoverable right now
  std::sort(sources.begin(), sources.end());

  const LiveReplicas live = count_live(meta);
  const bool need_dedicated = live.dedicated < fm.factor.dedicated;

  // Targets come from the live partition matching the missing dimension;
  // the sets iterate in sorted id order, so candidate order is unchanged.
  std::vector<NodeId> candidates;
  if (need_dedicated) {
    for (NodeId id : live_dedicated_) {
      if (meta.has_replica_on(id)) continue;
      // Opportunistic repairs respect saturation; reliable ones do not.
      if (fm.kind == FileKind::kOpportunistic && is_saturated(id)) continue;
      candidates.push_back(id);
    }
  } else {
    for (NodeId id : live_volatile_) {
      if (!meta.has_replica_on(id)) candidates.push_back(id);
    }
  }
  if (candidates.empty()) {
    if (!need_dedicated) return std::nullopt;
    // Cannot place the dedicated copy now (all saturated/down): for
    // opportunistic files fall back to adding a volatile copy if the
    // adaptive requirement is unmet.
    if (fm.kind == FileKind::kReliable) return std::nullopt;
    for (NodeId id : live_volatile_) {
      if (!meta.has_replica_on(id)) candidates.push_back(id);
    }
    if (candidates.empty()) return std::nullopt;
  }

  RepairPlan plan;
  plan.source = sources[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
  plan.target = candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  return plan;
}

// ---- adaptive replication ----------------------------------------------

int NameNode::adaptive_volatile_requirement() const {
  // Smallest v with 1 - p^v >= goal. p = 0 -> one copy suffices.
  const double p = std::clamp(estimate_p_, 0.0, 0.999);
  const double goal = config_.availability_goal;
  if (p <= 0.0) return 1;
  int v = 1;
  double miss = p;  // p^v
  while (1.0 - miss < goal && v < 32) {
    ++v;
    miss *= p;
  }
  return v;
}

void NameNode::refresh_adaptive_requirements() {
  const int v_prime = adaptive_volatile_requirement();
  // Only files with a raised requirement can change: walk the adaptive index
  // in FileId order. The scan enqueues replication work, and the queue
  // position decides repair order, so hash order must not leak into it (§2
  // determinism contract). Every indexed file is opportunistic:
  // convert_to_reliable drops it from the index.
  for (auto fit = adaptive_files_.begin(); fit != adaptive_files_.end();) {
    FileMeta& meta = *files_.find(*fit);
    assert(meta.kind == FileKind::kOpportunistic && meta.adaptive_volatile != 0);
    if (meta.factor.dedicated > 0) {
      // Still waiting on a dedicated copy? If one arrived, the raised
      // requirement lapses.
      bool has_dedicated = true;
      for (BlockId b : meta.blocks) {
        if (live_replicas(b).dedicated == 0) {
          has_dedicated = false;
          break;
        }
      }
      if (has_dedicated && !meta.blocks.empty()) {
        meta.adaptive_volatile = 0;
        fit = adaptive_files_.erase(fit);
        continue;
      }
    }
    if (v_prime > meta.factor.volatile_count) {
      if (v_prime > meta.adaptive_volatile) ++stats_.adaptive_v_raises;
      meta.adaptive_volatile = v_prime;
      for (BlockId b : meta.blocks) {
        if (!block_meets_factor(b)) enqueue_replication(b);
      }
      ++fit;
    } else {
      meta.adaptive_volatile = 0;
      fit = adaptive_files_.erase(fit);
    }
  }
}

void NameNode::subscribe_state_changes(StateListener listener) {
  state_listeners_.push_back(std::move(listener));
}

void NameNode::subscribe_replica_events(ReplicaListener listener) {
  replica_listeners_.push_back(std::move(listener));
}

std::vector<NodeId> NameNode::datanodes() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < datanodes_.size(); ++i) {
    if (datanodes_[i]) out.emplace_back(i);
  }
  return out;
}

const char* to_string(FileKind kind) {
  switch (kind) {
    case FileKind::kReliable: return "reliable";
    case FileKind::kOpportunistic: return "opportunistic";
  }
  return "?";
}

const char* to_string(DataNodeState state) {
  switch (state) {
    case DataNodeState::kLive: return "live";
    case DataNodeState::kHibernated: return "hibernated";
    case DataNodeState::kDead: return "dead";
  }
  return "?";
}

}  // namespace moon::dfs
