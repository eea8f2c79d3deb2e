// Binds availability traces to nodes.
//
// At install time, every down interval in each node's trace is scheduled as
// a pair of events (pause at begin, resume at end). This is the simulator's
// analogue of the paper's per-node monitoring process that "reads in the
// assigned availability trace, and suspends and resumes all the
// Hadoop/MOON related processes on the node accordingly."
#pragma once

#include <map>

#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "trace/availability_trace.hpp"

namespace moon::cluster {

class AvailabilityDriver {
 public:
  AvailabilityDriver(sim::Simulation& sim, Cluster& cluster);

  /// Assigns a trace to a node (replacing any previous assignment).
  void assign(NodeId node, trace::AvailabilityTrace trace);

  /// Assigns traces to nodes pairwise (traces[i] -> nodes[i]).
  void assign_fleet(const std::vector<NodeId>& nodes,
                    const std::vector<trace::AvailabilityTrace>& traces);

  /// Schedules all transitions for `repeats` consecutive trace horizons
  /// (outage patterns repeat cyclically if a job outlives one horizon).
  void install(int repeats = 3);

  [[nodiscard]] const trace::AvailabilityTrace* trace_for(NodeId node) const;

 private:
  sim::Simulation& sim_;
  Cluster& cluster_;
  /// Ordered by NodeId: install walks it directly.
  std::map<NodeId, trace::AvailabilityTrace> traces_;
  bool installed_ = false;
};

}  // namespace moon::cluster
