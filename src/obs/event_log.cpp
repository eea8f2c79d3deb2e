#include "obs/event_log.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "obs/trace.hpp"
#include "simkit/simulation.hpp"

namespace moon::obs {
namespace {

void write_escaped(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
  }
  return "?";
}

EventLog::EventLog(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void EventLog::append(LogRecord record) {
  if (size_ < ring_.size()) {
    ring_[(head_ + size_) % ring_.size()] = std::move(record);
    ++size_;
    return;
  }
  ring_[head_] = std::move(record);
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;
}

const LogRecord& EventLog::at(std::size_t i) const {
  assert(i < size_);
  return ring_[(head_ + i) % ring_.size()];
}

void EventLog::write_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < size_; ++i) {
    const LogRecord& rec = at(i);
    out << "{\"t\":" << sim::to_seconds(rec.time) << ",\"level\":\""
        << level_name(rec.level) << "\",\"component\":\"";
    write_escaped(out, rec.component);
    out << "\",\"msg\":\"";
    write_escaped(out, rec.message);
    out << "\",\"fields\":{";
    for (std::size_t f = 0; f < rec.fields.size(); ++f) {
      if (f > 0) out << ',';
      out << '"';
      write_escaped(out, rec.fields[f].key);
      out << "\":\"";
      write_escaped(out, rec.fields[f].value);
      out << '"';
    }
    out << "}}\n";
  }
}

void emit(sim::Simulation& sim, Level level, const char* component,
          std::string message, Fields fields) {
  assert(sim.event_log() != nullptr);
  if (Tracer* tracer = sim.tracer()) {
    Tracer::Args args;
    args.reserve(fields.size() + 2);
    args.emplace_back("level", level_name(level));
    args.emplace_back("component", component);
    for (const Field& f : fields) args.emplace_back(f.key, f.value);
    tracer->instant(kClusterPid, 0, Cat::kLog, message, sim.now(),
                    std::move(args));
  }
  sim.event_log()->append(
      {sim.now(), level, component, std::move(message), std::move(fields)});
}

}  // namespace moon::obs
