// Unit and integration tests for the experiment harness: configuration
// mapping, the gang/batch dispatch, trace capture, and the threaded sweep.

#include <gtest/gtest.h>

#include "harness/figures.hpp"
#include "harness/runner.hpp"
#include "outcome_compare.hpp"

namespace apsim {
namespace {

ExperimentConfig tiny(PolicySet policy = PolicySet::original()) {
  ExperimentConfig config;
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kW;
  config.nodes = 1;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.policy = policy;
  config.quantum = 4 * kSecond;  // several switches within each job's run
  config.iterations_scale = 0.2;
  return config;
}

TEST(Config, DescribeIsHumanReadable) {
  auto config = tiny(PolicySet::parse("so/ai"));
  EXPECT_EQ(config.describe(), "LU.W x2 on 1 node(s), 22MB, so/ai");
  config.label = "custom";
  EXPECT_EQ(config.describe(), "custom");
}

TEST(Config, NodeParamsReflectMemoryAndWiring) {
  const auto config = tiny();
  const NodeParams node = config.make_node_params();
  EXPECT_EQ(node.vmm.total_frames, mb_to_pages(64.0));
  EXPECT_DOUBLE_EQ(node.wired_mb, 42.0);
  EXPECT_GT(node.swap_slots, 0);
  EXPECT_EQ(node.disk.num_blocks, node.swap_slots);
  EXPECT_EQ(node.vmm.page_cluster, 16);
}

TEST(Config, PageClusterPropagates) {
  auto config = tiny();
  config.page_cluster = 64;
  EXPECT_EQ(config.make_node_params().vmm.page_cluster, 64);
}

TEST(Runner, RunConfigDispatchesOnBatchMode) {
  auto config = tiny();
  config.batch_mode = true;
  const RunOutcome batch = run_config(config);
  EXPECT_EQ(batch.policy, "batch");
  config.batch_mode = false;
  const RunOutcome gang = run_config(config);
  EXPECT_EQ(gang.policy, "orig");
  EXPECT_GT(gang.makespan, batch.makespan);
}

TEST(Runner, CapturesTracesWhenRequested) {
  auto config = tiny();
  config.capture_traces = true;
  const RunOutcome outcome = run_gang(config);
  ASSERT_EQ(outcome.traces.size(), 1u);
  EXPECT_GT(outcome.traces[0].pages_in.total(), 0.0);
  EXPECT_GT(outcome.traces[0].pages_out.total(), 0.0);
}

TEST(Runner, NoTracesByDefault) {
  const RunOutcome outcome = run_gang(tiny());
  EXPECT_TRUE(outcome.traces.empty());
}

TEST(Runner, EvaluateComputesOverhead) {
  const EvaluatedRun result = evaluate(tiny());
  ASSERT_GT(result.gang.makespan, 0);
  ASSERT_GT(result.batch.makespan, 0);
  EXPECT_GT(result.overhead, 0.0);
  EXPECT_LT(result.overhead, 1.0);
  EXPECT_DOUBLE_EQ(
      result.overhead,
      switching_overhead(result.gang.makespan, result.batch.makespan));
}

TEST(Runner, HorizonTimeoutReportsMinusOne) {
  auto config = tiny();
  config.horizon = kSecond;  // far too short
  const RunOutcome outcome = run_gang(config);
  EXPECT_EQ(outcome.makespan, -1);
}

TEST(Runner, JobOutcomesCarryPerJobStats) {
  const RunOutcome outcome = run_gang(tiny());
  ASSERT_EQ(outcome.jobs.size(), 2u);
  for (const auto& job : outcome.jobs) {
    EXPECT_GT(job.completion, 0);
    EXPECT_GT(job.cpu_time, 0);
    EXPECT_GT(job.minor_faults, 0u);
  }
  EXPECT_EQ(outcome.major_faults,
            outcome.jobs[0].major_faults + outcome.jobs[1].major_faults);
}

TEST(Runner, ParallelMapPreservesOrder) {
  std::vector<ExperimentConfig> configs;
  for (int i = 0; i < 5; ++i) {
    auto config = tiny();
    config.label = "cfg" + std::to_string(i);
    configs.push_back(config);
  }
  auto labels = parallel_map<std::string>(
      configs,
      [](const ExperimentConfig& c) { return c.label; }, 2);
  ASSERT_EQ(labels.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(labels[static_cast<std::size_t>(i)],
              "cfg" + std::to_string(i));
  }
}

TEST(Runner, ParallelRunsMatchSerialRuns) {
  std::vector<ExperimentConfig> configs = {tiny(), tiny(PolicySet::all())};
  auto parallel = parallel_map<RunOutcome>(
      configs, [](const ExperimentConfig& c) { return run_gang(c); }, 2);
  auto serial = parallel_map<RunOutcome>(
      configs, [](const ExperimentConfig& c) { return run_gang(c); }, 1);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    expect_same_outcome(parallel[i], serial[i]);
  }
}

TEST(Figures, MemoryConfigsOvercommitButFitOneInstance) {
  for (NpbApp app : kAllApps) {
    const auto spec = npb_spec(app, NpbClass::kB);
    const double usable = fig7_usable_mb(app);
    EXPECT_GT(usable, spec.footprint_mb(1)) << to_string(app);
    EXPECT_LT(usable, 2.0 * spec.footprint_mb(1)) << to_string(app);
    EXPECT_LE(usable, 1024.0) << to_string(app);
  }
  for (int nodes : {2, 4}) {
    for (NpbApp app : kAllApps) {
      const auto spec = npb_spec(app, NpbClass::kB);
      const double usable = fig8_usable_mb(app, nodes);
      EXPECT_GT(usable, spec.footprint_mb(nodes))
          << to_string(app) << "@" << nodes;
    }
  }
}

TEST(Figures, FigureBaseMatchesPaperSetup) {
  const auto config = figure_base(NpbApp::kMG, 4, 350.0, PolicySet::all());
  EXPECT_EQ(config.app, NpbApp::kMG);
  EXPECT_EQ(config.cls, NpbClass::kB);
  EXPECT_EQ(config.nodes, 4);
  EXPECT_EQ(config.instances, 2);
  EXPECT_EQ(config.quantum, 5 * kMinute);
  EXPECT_DOUBLE_EQ(config.node_memory_mb, 1024.0);
  EXPECT_DOUBLE_EQ(config.usable_memory_mb, 350.0);
  EXPECT_EQ(config.policy, PolicySet::all());
}

}  // namespace
}  // namespace apsim
