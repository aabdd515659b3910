// End-to-end smoke tests: the whole stack (simulator, disk, VMM, CPU,
// gang scheduler, adaptive pager, workloads, harness) on scaled-down
// configurations. Fine-grained per-module tests live in the other files.

#include <gtest/gtest.h>

#include "harness/figures.hpp"
#include "harness/runner.hpp"
#include "outcome_compare.hpp"

namespace apsim {
namespace {

ExperimentConfig tiny_config(PolicySet policy) {
  ExperimentConfig config;
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kW;  // ~15 MB footprint
  config.nodes = 1;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.policy = policy;
  config.quantum = 10 * kSecond;
  config.iterations_scale = 0.2;
  config.seed = 7;
  return config;
}

TEST(Smoke, BatchRunCompletes) {
  auto config = tiny_config(PolicySet::original());
  config.batch_mode = true;
  const RunOutcome outcome = run_batch(config);
  ASSERT_GT(outcome.makespan, 0);
  ASSERT_EQ(outcome.jobs.size(), 2u);
  EXPECT_GT(outcome.jobs[0].completion, 0);
  EXPECT_GT(outcome.jobs[1].completion, outcome.jobs[0].completion);
}

TEST(Smoke, GangRunCompletesAndSwitches) {
  const RunOutcome outcome = run_gang(tiny_config(PolicySet::original()));
  ASSERT_GT(outcome.makespan, 0);
  EXPECT_GT(outcome.switches, 0);
  EXPECT_GT(outcome.major_faults, 0u) << "memory was not overcommitted";
}

TEST(Smoke, AdaptivePolicyBeatsOriginalUnderMemoryStress) {
  const auto orig = evaluate(tiny_config(PolicySet::original()));
  const auto adaptive = evaluate(tiny_config(PolicySet::all()));
  ASSERT_GT(orig.gang.makespan, 0);
  ASSERT_GT(adaptive.gang.makespan, 0);
  // Same batch baseline, deterministic runs.
  EXPECT_EQ(orig.batch.makespan, adaptive.batch.makespan);
  EXPECT_LT(adaptive.gang.makespan, orig.gang.makespan);
  EXPECT_GT(orig.overhead, adaptive.overhead);
}

TEST(Smoke, DeterministicAcrossRuns) {
  const RunOutcome a = run_gang(tiny_config(PolicySet::all()));
  const RunOutcome b = run_gang(tiny_config(PolicySet::all()));
  expect_same_outcome(a, b);
}

}  // namespace
}  // namespace apsim
