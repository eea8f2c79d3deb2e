// The shared command-line flag table: every flag's good and bad forms, argv
// compaction, and what each flag applies to a config.
#include "experiment/flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/multi_job.hpp"

namespace moon::experiment {
namespace {

/// Parses `args` (after a program name); returns the flags and leaves the
/// arguments the table did not claim in `rest`.
std::optional<ScenarioFlags> parse(std::vector<std::string> args,
                                   std::vector<std::string>* rest = nullptr) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  std::optional<ScenarioFlags> flags = try_parse_scenario_flags(argc, argv.data());
  if (rest != nullptr) rest->assign(argv.begin() + 1, argv.begin() + argc);
  return flags;
}

TEST(ScenarioFlags, AcceptsEveryFlagsGoodForms) {
  for (const char* arg :
       {"--faults=all", "--faults=heartbeats:0.1,storage", "--faults=audit:30",
        "--faults=master_crash:60", "--admission=reject", "--admission=shed:6",
        "--admission=defer:4:40", "--deadline=1800", "--deadline=0.5",
        "--trace=t.json", "--metrics=m.csv", "--events=e.jsonl"}) {
    SCOPED_TRACE(arg);
    EXPECT_TRUE(parse({arg}).has_value());
  }
}

TEST(ScenarioFlags, RejectsEveryFlagsBadForms) {
  for (const char* arg :
       {"--faults=", "--faults=bogus", "--faults=heartbeats:x",
        "--faults=outages:2", "--admission=", "--admission=maybe",
        "--admission=reject:-1", "--admission=reject:x",
        "--admission=defer:1:2:3", "--deadline=", "--deadline=abc",
        "--deadline=0", "--deadline=-5", "--deadline=10s", "--deadline=inf",
        "--trace=", "--metrics=", "--events="}) {
    SCOPED_TRACE(arg);
    EXPECT_FALSE(parse({arg}).has_value());
  }
}

TEST(ScenarioFlags, MalformedValueExitsNonZero) {
  std::string prog = "prog";
  std::string bad = "--deadline=soon";
  char* argv[] = {prog.data(), bad.data()};
  int argc = 2;
  EXPECT_EXIT(parse_scenario_flags(argc, argv), ::testing::ExitedWithCode(2),
              "--deadline=soon");
}

TEST(ScenarioFlags, StripsFlagsAndKeepsPositionalArguments) {
  std::vector<std::string> rest;
  const auto flags = parse({"0.4", "--trace=t.json", "extra",
                            "--faults=outages", "--deadline=60"},
                           &rest);
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(rest, (std::vector<std::string>{"0.4", "extra"}));
  EXPECT_EQ(flags->trace_path, "t.json");
  EXPECT_EQ(flags->faults, "outages");
  EXPECT_EQ(flags->deadline_s, 60.0);
  EXPECT_TRUE(flags->any_obs());
  EXPECT_FALSE(parse({"0.4"})->any_obs());
}

TEST(ScenarioFlags, AppliesEachFlagToItsConfig) {
  const auto flags =
      parse({"--faults=heartbeats:0.2", "--admission=shed:6:40",
             "--deadline=90", "--metrics=m.csv", "--events=e.jsonl"});
  ASSERT_TRUE(flags.has_value());

  MultiJobConfig cfg;
  cfg.arrivals.mix = {{workload::sort_workload(), 1.0},
                      {workload::wordcount_workload(), 1.0}};
  flags->apply(cfg);
  EXPECT_TRUE(cfg.base.faults.enabled);
  EXPECT_TRUE(cfg.base.faults.heartbeats.enabled);
  EXPECT_EQ(cfg.base.faults.heartbeats.drop_probability, 0.2);
  EXPECT_TRUE(cfg.base.sched.admission.enabled);
  EXPECT_EQ(cfg.base.sched.admission.policy,
            mapred::AdmissionConfig::Policy::kShedLowestPriority);
  EXPECT_EQ(cfg.base.sched.admission.max_queued_jobs, 6);
  EXPECT_EQ(cfg.base.sched.admission.max_live_attempts, 40);
  for (const workload::JobMix& entry : cfg.arrivals.mix) {
    EXPECT_EQ(entry.model.deadline, 90 * sim::kSecond);
  }
  // Observability is opt-in per config.
  EXPECT_FALSE(cfg.base.obs.any());
  flags->apply_obs(cfg.base.obs);
  EXPECT_FALSE(cfg.base.obs.trace);
  EXPECT_TRUE(cfg.base.obs.metrics);
  EXPECT_TRUE(cfg.base.obs.capture_log);

  // No flags, no change.
  ScenarioConfig untouched;
  parse({})->apply(untouched);
  EXPECT_FALSE(untouched.faults.enabled);
  EXPECT_FALSE(untouched.sched.admission.enabled);
}

}  // namespace
}  // namespace moon::experiment
