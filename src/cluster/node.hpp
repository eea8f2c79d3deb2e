// Cluster node model.
//
// A node is either *volatile* (a volunteer PC that disappears per its
// availability trace) or *dedicated* (the small, reliable tier MOON adds).
// Each node exposes three fluid resources — NIC-in, NIC-out, disk — plus
// map/reduce execution slots consumed by the MapReduce layer. When a node
// becomes unavailable, its resource capacities drop to zero and subscribers
// (TaskTracker, DataNode) are notified so they can suspend heartbeats and
// freeze work.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"
#include "simkit/flow_network.hpp"
#include "simkit/simulation.hpp"

namespace moon::cluster {

enum class NodeType { kVolatile, kDedicated };

struct NodeConfig {
  NodeType type = NodeType::kVolatile;
  int map_slots = 2;     ///< Hadoop default M
  int reduce_slots = 2;  ///< Hadoop default R
  BytesPerSecond nic_in_bw = mibps(100.0);
  BytesPerSecond nic_out_bw = mibps(100.0);
  BytesPerSecond disk_bw = mibps(55.0);
};

class Node {
 public:
  /// Fires with `true` when the node comes up, `false` when it goes down.
  using AvailabilityListener = std::function<void(bool)>;

  Node(sim::Simulation& sim, sim::FlowNetwork& net, NodeId id, NodeConfig config);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] NodeType type() const { return config_.type; }
  [[nodiscard]] bool dedicated() const { return config_.type == NodeType::kDedicated; }
  [[nodiscard]] const NodeConfig& config() const { return config_; }

  [[nodiscard]] bool available() const { return available_; }

  /// Trace-layer availability transition; idempotent. The node is effectively
  /// up only when the trace says up AND no fault outage holds it down; on an
  /// effective transition, resource capacities are zeroed/restored and
  /// listeners notified.
  void set_available(bool up);

  /// Fault-injection overlay (correlated lab/rack outages): holds the node
  /// down regardless of its trace state. Layered, not exclusive — a node
  /// whose trace went down during a fault outage stays down when the outage
  /// lifts. Idempotent.
  void set_fault_down(bool down);

  /// Straggler degradation: scales NIC/disk capacities by `factor` (1.0 =
  /// nominal) from now on, including across availability transitions.
  void set_capacity_factor(double factor);
  [[nodiscard]] double capacity_factor() const { return capacity_factor_; }

  void subscribe(AvailabilityListener listener);

  /// Fluid resources (ids into the shared FlowNetwork).
  [[nodiscard]] sim::FlowNetwork::ResourceId nic_in() const { return nic_in_; }
  [[nodiscard]] sim::FlowNetwork::ResourceId nic_out() const { return nic_out_; }
  [[nodiscard]] sim::FlowNetwork::ResourceId disk() const { return disk_; }

  /// Cumulative time this node has spent unavailable.
  [[nodiscard]] sim::Duration total_down_time() const;

 private:
  /// Recomputes effective availability from the trace and fault layers and
  /// runs the transition if it changed.
  void apply_availability();

  sim::Simulation& sim_;
  sim::FlowNetwork& net_;
  NodeId id_;
  NodeConfig config_;
  sim::FlowNetwork::ResourceId nic_in_;
  sim::FlowNetwork::ResourceId nic_out_;
  sim::FlowNetwork::ResourceId disk_;
  bool available_ = true;
  bool trace_up_ = true;
  bool fault_down_ = false;
  double capacity_factor_ = 1.0;
  sim::Time last_down_at_ = 0;
  sim::Duration down_total_ = 0;
  std::vector<AvailabilityListener> listeners_;
  obs::Tracer::SpanId down_span_;  ///< open "down" span while unavailable
};

}  // namespace moon::cluster
