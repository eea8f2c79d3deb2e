// Structured event log: a bounded ring of the control plane's records.
//
// Each record carries simulated time, severity, a component tag ("job",
// "dfs", "faults", …), a message, and structured key=value fields. A run's
// log is reached through the Simulation its emitters already hold, like the
// tracer: Observability::attach() installs it with
// `Simulation::set_event_log` and finalize() clears it, so two runs in one
// process never share a log. A call site tests `sim.event_log()` (one
// pointer load and branch when off) before building its fields, then calls
// `emit`, which stamps sim.now(), appends the record and mirrors it into
// `sim.tracer()` as a `Cat::kLog` instant. Bounded like the metrics rings:
// memory is O(capacity), evictions are counted.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace moon::sim {
class Simulation;
}  // namespace moon::sim

namespace moon::obs {

enum class Level { kDebug, kInfo, kWarn, kError };

/// "debug" / "info" / "warn" / "error": the JSONL `level` and the trace arg.
const char* level_name(Level level);

/// One structured key=value field.
struct Field {
  std::string key;
  std::string value;
};
using Fields = std::vector<Field>;

struct LogRecord {
  sim::Time time = 0;
  Level level = Level::kInfo;
  std::string component;
  std::string message;
  Fields fields;
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity);

  void append(LogRecord record);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// i = 0 is the oldest retained record.
  [[nodiscard]] const LogRecord& at(std::size_t i) const;

  /// One JSON object per line: {"t":…,"level":…,"component":…,"msg":…,
  /// "fields":{…}}.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<LogRecord> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Appends a record stamped at sim.now() to `*sim.event_log()` and, when
/// tracing, mirrors it into `sim.tracer()` as a `Cat::kLog` instant on the
/// cluster control track. Call only when `sim.event_log()` is set.
void emit(sim::Simulation& sim, Level level, const char* component,
          std::string message, Fields fields = {});

}  // namespace moon::obs
