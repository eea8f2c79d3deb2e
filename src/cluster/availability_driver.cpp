#include "cluster/availability_driver.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace moon::cluster {

AvailabilityDriver::AvailabilityDriver(sim::Simulation& sim, Cluster& cluster)
    : sim_(sim), cluster_(cluster) {}

void AvailabilityDriver::assign(NodeId node, trace::AvailabilityTrace trace) {
  if (installed_) {
    throw std::logic_error("AvailabilityDriver: assign after install");
  }
  traces_.insert_or_assign(node, std::move(trace));
}

void AvailabilityDriver::assign_fleet(
    const std::vector<NodeId>& nodes,
    const std::vector<trace::AvailabilityTrace>& traces) {
  if (nodes.size() != traces.size()) {
    throw std::logic_error("AvailabilityDriver: node/trace count mismatch");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) assign(nodes[i], traces[i]);
}

void AvailabilityDriver::install(int repeats) {
  if (installed_) throw std::logic_error("AvailabilityDriver: double install");
  installed_ = true;
  // Walk assignments in NodeId order: two nodes flipping at the same instant
  // enqueue events whose same-timestamp tie-break is insertion order (§2
  // determinism contract).
  for (const auto& [node_id, trace] : traces_) {
    Node& node = cluster_.node(node_id);
    for (int rep = 0; rep < repeats; ++rep) {
      const sim::Time offset = static_cast<sim::Time>(rep) * trace.horizon();
      for (const auto& iv : trace.down_intervals()) {
        sim_.schedule_at(offset + iv.begin, [&node] { node.set_available(false); });
        sim_.schedule_at(offset + iv.end, [&node] { node.set_available(true); });
      }
    }
  }
}

const trace::AvailabilityTrace* AvailabilityDriver::trace_for(NodeId node) const {
  auto it = traces_.find(node);
  return it == traces_.end() ? nullptr : &it->second;
}

}  // namespace moon::cluster
