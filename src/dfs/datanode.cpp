#include "dfs/datanode.hpp"

namespace moon::dfs {

DataNode::DataNode(sim::Simulation& sim, sim::FlowNetwork& net, cluster::Node& host,
                   NameNode& namenode)
    : sim_(sim),
      net_(net),
      host_(host),
      namenode_(namenode),
      heartbeat_(sim, namenode.config().heartbeat_interval, [this] { beat(); }) {
  namenode_.register_datanode(host_.id());
}

void DataNode::start() {
  heartbeat_.start();
  last_beat_at_ = sim_.now();
}

void DataNode::store_block(BlockId block, Bytes size) {
  if (sorted_insert(blocks_, block)) stored_bytes_ += size;
  corrupted_.erase(block);  // fresh bytes replace any corrupted replica
  // With the NameNode down, the bytes still land but the commit is lost
  // soft state — the post-recovery block report reconciles it.
  if (namenode_.available()) namenode_.commit_replica(block, host_.id());
}

void DataNode::drop_block(BlockId block, Bytes size) {
  if (sorted_erase(blocks_, block)) stored_bytes_ -= size;
  corrupted_.erase(block);
  if (namenode_.available()) namenode_.drop_replica(block, host_.id());
}

void DataNode::mark_corrupted(BlockId block) {
  if (stores(block)) corrupted_.insert(block);
}

void DataNode::beat() {
  // A suspended host makes no progress of any kind — including heartbeats.
  if (!host_.available()) return;
  // A crashed NameNode drops the beat on the floor, deterministically; the
  // liveness picture is rebuilt by block reports at recovery.
  if (!namenode_.available()) {
    ++namenode_.stats_mutable().heartbeats_skipped;
    return;
  }
  if (registered_epoch_ != namenode_.epoch()) {
    // The master restarted since we last registered: this beat is promoted
    // to a full re-registration (nodes that missed the recovery storm —
    // they were unavailable — catch up here).
    send_block_report();
    return;
  }
  namenode_.heartbeat(host_.id(), current_bandwidth());
}

double DataNode::current_bandwidth() {
  // Bandwidth consumed since the previous (delivered) heartbeat:
  // bytes through NIC-in + NIC-out + disk over the elapsed interval.
  const double transferred = net_.transferred_through(host_.nic_in()) +
                             net_.transferred_through(host_.nic_out()) +
                             net_.transferred_through(host_.disk());
  const double elapsed_s = sim::to_seconds(sim_.now() - last_beat_at_);
  double bandwidth = 0.0;
  if (elapsed_s > 0.0) {
    bandwidth = (transferred - last_reported_transferred_) / elapsed_s;
  }
  last_reported_transferred_ = transferred;
  last_beat_at_ = sim_.now();
  return bandwidth;
}

void DataNode::send_block_report() {
  if (!namenode_.available()) return;
  namenode_.handle_block_report(host_.id(), blocks_, current_bandwidth());
  registered_epoch_ = namenode_.epoch();
}

}  // namespace moon::dfs
