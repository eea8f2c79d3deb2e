#include "cluster/node.hpp"

#include <utility>

#include "obs/event_log.hpp"

namespace moon::cluster {

Node::Node(sim::Simulation& sim, sim::FlowNetwork& net, NodeId id, NodeConfig config)
    : sim_(sim), net_(net), id_(id), config_(config) {
  nic_in_ = net_.add_resource(config_.nic_in_bw);
  nic_out_ = net_.add_resource(config_.nic_out_bw);
  disk_ = net_.add_resource(config_.disk_bw);
}

void Node::set_available(bool up) {
  trace_up_ = up;
  apply_availability();
}

void Node::set_fault_down(bool down) {
  fault_down_ = down;
  apply_availability();
}

void Node::set_capacity_factor(double factor) {
  capacity_factor_ = factor;
  if (available_) {
    sim::FlowNetwork::CapacityBatch batch(net_);
    net_.set_capacity(nic_in_, config_.nic_in_bw * capacity_factor_);
    net_.set_capacity(nic_out_, config_.nic_out_bw * capacity_factor_);
    net_.set_capacity(disk_, config_.disk_bw * capacity_factor_);
  }
}

void Node::apply_availability() {
  const bool up = trace_up_ && !fault_down_;
  if (up == available_) return;
  available_ = up;
  {
    // One batched settle for all three resources instead of three.
    sim::FlowNetwork::CapacityBatch batch(net_);
    if (up) {
      down_total_ += sim_.now() - last_down_at_;
      net_.set_capacity(nic_in_, config_.nic_in_bw * capacity_factor_);
      net_.set_capacity(nic_out_, config_.nic_out_bw * capacity_factor_);
      net_.set_capacity(disk_, config_.disk_bw * capacity_factor_);
    } else {
      last_down_at_ = sim_.now();
      net_.set_capacity(nic_in_, 0.0);
      net_.set_capacity(nic_out_, 0.0);
      net_.set_capacity(disk_, 0.0);
    }
  }
  if (auto* tracer = sim_.tracer()) {
    if (up) {
      tracer->end(down_span_, sim_.now());
      down_span_ = {};
    } else {
      down_span_ = tracer->begin(obs::kClusterPid, obs::node_track(id_),
                                 obs::Cat::kNode, "down", sim_.now());
    }
  }
  if (sim_.event_log() != nullptr) {
    obs::emit(sim_, obs::Level::kDebug, "node", up ? "up" : "down",
              {{"node", std::to_string(id_.value())}});
  }
  for (const auto& listener : listeners_) listener(up);
}

void Node::subscribe(AvailabilityListener listener) {
  listeners_.push_back(std::move(listener));
}

sim::Duration Node::total_down_time() const {
  sim::Duration total = down_total_;
  if (!available_) total += sim_.now() - last_down_at_;
  return total;
}

}  // namespace moon::cluster
