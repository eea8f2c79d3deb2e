// Structured event log: a bounded ring of log records captured during a run.
//
// Each record carries simulated time, severity, a component tag, a message,
// and structured key=value fields — the same shape `moon::log` emits, so the
// Observability layer can install a log sink and capture the control plane's
// narration without any printf parsing. Bounded like the metrics rings:
// memory is O(capacity), evictions are counted.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/time.hpp"

namespace moon::obs {

struct LogRecord {
  sim::Time time = 0;
  log::Level level = log::Level::kInfo;
  std::string component;
  std::string message;
  log::Fields fields;
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

}  // namespace moon::obs
