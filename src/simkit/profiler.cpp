#include "simkit/profiler.hpp"

namespace moon::sim {

const char* Profiler::name(Key key) {
  switch (key) {
    case Key::kSettle: return "settle";
    case Key::kRecompute: return "recompute";
    case Key::kDfsProbe: return "dfs_probe";
    case Key::kReplicationScan: return "replication_scan";
    case Key::kHeartbeat: return "heartbeat";
    case Key::kSpeculation: return "speculation";
    case Key::kEventDispatch: return "event_dispatch";
    case Key::kCheckpoint: return "checkpoint";
    case Key::kNameNodeSweep: return "namenode_sweep";
    case Key::kCount: break;
  }
  return "?";
}

}  // namespace moon::sim
