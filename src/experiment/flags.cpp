#include "experiment/flags.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string_view>
#include <vector>

#include "experiment/multi_job.hpp"

namespace moon::experiment {
namespace {

bool parse_int(const std::string& text, int& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value < 0) return false;
  out = static_cast<int>(value);
  return true;
}

bool set_path(std::string& field, const std::string& value) {
  field = value;
  return !value.empty();
}

/// One row per flag: its `--name=` prefix and a setter that stores the
/// value and reports whether it is well-formed.
struct Flag {
  std::string_view prefix;
  bool (*set)(ScenarioFlags& flags, const std::string& value);
};

constexpr Flag kFlags[] = {
    {"--faults=",
     [](ScenarioFlags& flags, const std::string& value) {
       faults::FaultConfig scratch;
       flags.faults = value;
       return !value.empty() && apply_fault_spec(value, scratch);
     }},
    {"--admission=",
     [](ScenarioFlags& flags, const std::string& value) {
       mapred::AdmissionConfig scratch;
       flags.admission = value;
       return apply_admission_spec(value, scratch);
     }},
    {"--deadline=",
     [](ScenarioFlags& flags, const std::string& value) {
       char* end = nullptr;
       flags.deadline_s = std::strtod(value.c_str(), &end);
       return !value.empty() && *end == '\0' && flags.deadline_s > 0.0 &&
              std::isfinite(flags.deadline_s);
     }},
    {"--trace=",
     [](ScenarioFlags& flags, const std::string& value) {
       return set_path(flags.trace_path, value);
     }},
    {"--metrics=",
     [](ScenarioFlags& flags, const std::string& value) {
       return set_path(flags.metrics_path, value);
     }},
    {"--events=",
     [](ScenarioFlags& flags, const std::string& value) {
       return set_path(flags.events_path, value);
     }},
};

}  // namespace

bool apply_admission_spec(const std::string& spec,
                          mapred::AdmissionConfig& config) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t colon = spec.find(':', pos);
    parts.push_back(spec.substr(
        pos, colon == std::string::npos ? std::string::npos : colon - pos));
    pos = colon == std::string::npos ? spec.size() + 1 : colon + 1;
  }
  if (parts.empty() || parts.size() > 3) {
    std::cerr << "--admission: expected POLICY[:MAX_QUEUED[:MAX_LIVE_ATTEMPTS]]"
                 ", got '" << spec << "'\n";
    return false;
  }
  if (parts[0] == "reject") {
    config.policy = mapred::AdmissionConfig::Policy::kRejectNewest;
  } else if (parts[0] == "defer") {
    config.policy = mapred::AdmissionConfig::Policy::kDeferWithBackoff;
  } else if (parts[0] == "shed") {
    config.policy = mapred::AdmissionConfig::Policy::kShedLowestPriority;
  } else {
    std::cerr << "--admission: unknown policy '" << parts[0]
              << "' (expected reject | defer | shed)\n";
    return false;
  }
  if (parts.size() >= 2 && !parse_int(parts[1], config.max_queued_jobs)) {
    std::cerr << "--admission: bad MAX_QUEUED '" << parts[1] << "'\n";
    return false;
  }
  if (parts.size() >= 3 && !parse_int(parts[2], config.max_live_attempts)) {
    std::cerr << "--admission: bad MAX_LIVE_ATTEMPTS '" << parts[2] << "'\n";
    return false;
  }
  config.enabled = true;
  return true;
}

void ScenarioFlags::apply(ScenarioConfig& config) const {
  // Values were validated while parsing, so neither grammar can fail here.
  if (!faults.empty()) apply_fault_spec(faults, config.faults);
  if (!admission.empty()) apply_admission_spec(admission, config.sched.admission);
}

void ScenarioFlags::apply(MultiJobConfig& config) const {
  apply(config.base);
  if (deadline_s <= 0.0) return;
  for (workload::JobMix& entry : config.arrivals.mix) {
    entry.model.deadline = sim::seconds(deadline_s);
  }
}

void ScenarioFlags::apply_obs(obs::ObsConfig& config) const {
  if (!trace_path.empty()) config.trace = true;
  if (!metrics_path.empty()) config.metrics = true;
  if (!events_path.empty()) config.capture_log = true;
}

void ScenarioFlags::export_run(const obs::Observability* bundle) const {
  if (bundle == nullptr) return;
  if (!trace_path.empty() && bundle->tracer() != nullptr) {
    std::ofstream out(trace_path);
    bundle->tracer()->write_chrome_trace(out);
    std::cerr << "trace: " << trace_path << " ("
              << bundle->tracer()->event_count() << " events, "
              << bundle->tracer()->dropped() << " dropped)\n";
  }
  if (!metrics_path.empty() && bundle->metrics() != nullptr) {
    std::ofstream out(metrics_path);
    bundle->metrics()->write_csv(out);
    std::cerr << "metrics: " << metrics_path << " ("
              << bundle->metrics()->gauge_count() << " gauges, "
              << bundle->metrics()->sample_count() << " samples)\n";
  }
  if (!events_path.empty()) {
    std::ofstream out(events_path);
    bundle->events().write_jsonl(out);
    std::cerr << "events: " << events_path << " ("
              << bundle->events().size() << " records)\n";
  }
}

std::optional<ScenarioFlags> try_parse_scenario_flags(int& argc, char** argv) {
  ScenarioFlags flags;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if (arg.starts_with(f.prefix)) flag = &f;
    }
    if (flag == nullptr) {
      argv[kept++] = argv[i];
      continue;
    }
    const std::string value(arg.substr(flag->prefix.size()));
    if (!flag->set(flags, value)) {
      std::cerr << "bad flag " << arg << "\n";
      return std::nullopt;
    }
  }
  argc = kept;
  return flags;
}

ScenarioFlags parse_scenario_flags(int& argc, char** argv) {
  std::optional<ScenarioFlags> flags = try_parse_scenario_flags(argc, argv);
  if (!flags) std::exit(2);
  return *flags;
}

}  // namespace moon::experiment
