#include "experiment/fault_cli.hpp"

#include <cstdlib>
#include <iostream>

#include "common/time.hpp"

namespace moon::experiment {
namespace {

bool parse_number(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0';
}

void enable_outages(faults::FaultConfig& config) {
  config.outages.enabled = true;
}

void enable_heartbeats(faults::FaultConfig& config, double p) {
  config.heartbeats.enabled = true;
  config.heartbeats.drop_probability = p;
  config.heartbeats.delay_probability = p;
}

void enable_storage(faults::FaultConfig& config, double p) {
  config.storage.enabled = true;
  config.storage.corrupt_probability = p;
  config.storage.reject_probability = p;
}

void enable_stragglers(faults::FaultConfig& config, double fraction) {
  config.stragglers.enabled = true;
  config.stragglers.fraction = fraction;
}

}  // namespace

bool apply_fault_spec(const std::string& spec, faults::FaultConfig& config) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (token.empty()) continue;

    const std::size_t colon = token.find(':');
    const std::string name = token.substr(0, colon);
    const bool has_value = colon != std::string::npos;
    double value = 0.0;
    if (has_value && !parse_number(token.substr(colon + 1), value)) {
      std::cerr << "--faults: bad value in token '" << token << "'\n";
      return false;
    }

    if (name == "all" && !has_value) {
      enable_outages(config);
      enable_heartbeats(config, 0.05);
      enable_storage(config, 0.02);
      enable_stragglers(config, config.stragglers.fraction);
    } else if (name == "outages" && !has_value) {
      enable_outages(config);
    } else if (name == "heartbeats") {
      enable_heartbeats(config, has_value ? value : 0.05);
    } else if (name == "storage") {
      enable_storage(config, has_value ? value : 0.02);
    } else if (name == "stragglers") {
      enable_stragglers(config,
                        has_value ? value : config.stragglers.fraction);
    } else if (name == "audit") {
      config.audit_interval = sim::seconds(has_value ? value : 60.0);
    } else if (name == "master_crash") {
      config.master_crash.enabled = true;
      if (has_value) config.master_crash.mean_downtime = sim::seconds(value);
    } else {
      std::cerr << "--faults: unknown token '" << token
                << "' (expected all | outages | heartbeats[:P] | storage[:P]"
                   " | stragglers[:F] | audit[:SECONDS]"
                   " | master_crash[:DOWNTIME_SECONDS])\n";
      return false;
    }
    config.enabled = true;
  }
  return true;
}

}  // namespace moon::experiment
