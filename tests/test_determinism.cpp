// Thread-count independence of sweeps: parallel_map runs one Simulator per
// worker, sharing nothing but the process-wide zipf-table memo (a pure
// function of its key), so mapping the same mixed gang/batch config list at
// 1, 2 and 8 threads must produce byte-identical RunOutcome vectors. Any
// divergence means a run read state outside its own Simulator (a global, a
// shared RNG, allocator-address-dependent ordering) — exactly the class of
// bug the slab event pool and callback changes could introduce.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "outcome_compare.hpp"

namespace apsim {
namespace {

/// The mixed sweep: every policy over a small overcommitted scenario, gang
/// and batch interleaved, two apps, a tiered and a faulted variant.
std::vector<ExperimentConfig> sweep_configs() {
  std::vector<ExperimentConfig> configs;
  for (const char* policy : {"orig", "so", "so/ao", "so/ao/ai/bg"}) {
    ExperimentConfig config;
    config.app = NpbApp::kIS;
    config.cls = NpbClass::kW;
    config.nodes = 1;
    config.instances = 2;
    config.node_memory_mb = 64.0;
    config.usable_memory_mb = 22.0;
    config.quantum = 4 * kSecond;
    config.iterations_scale = 0.1;
    config.policy = PolicySet::parse(policy);
    configs.push_back(config);

    ExperimentConfig batch = config;
    batch.batch_mode = true;
    configs.push_back(batch);
  }
  {
    ExperimentConfig tiered = configs[0];
    tiered.app = NpbApp::kCG;
    tiered.policy = PolicySet::all();
    tiered.tier_mb = 4.0;
    configs.push_back(tiered);
    // A second CG run with the same footprint draws its ranks from the same
    // process-wide zipf table: the serial pass builds it, and at 2 and 8
    // threads two workers read it at once.
    ExperimentConfig plain = configs[0];
    plain.app = NpbApp::kCG;
    configs.push_back(plain);
  }
  {
    ExperimentConfig faulted = configs[0];
    faulted.policy = PolicySet::all();
    faulted.faults.add(FaultSpec::parse("disk_transient start_s=1 end_s=30 p=0.02"));
    configs.push_back(faulted);
  }
  return configs;
}

TEST(Determinism, ParallelMapIsThreadCountIndependent) {
  const std::vector<ExperimentConfig> configs = sweep_configs();
  const std::function<RunOutcome(const ExperimentConfig&)> fn = run_config;

  const std::vector<RunOutcome> serial = parallel_map<RunOutcome>(configs, fn, 1);
  ASSERT_EQ(serial.size(), configs.size());

  for (unsigned threads : {2u, 8u}) {
    const std::vector<RunOutcome> parallel =
        parallel_map<RunOutcome>(configs, fn, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("config " + std::to_string(i) + " (" +
                   configs[i].describe() + ") at " + std::to_string(threads) +
                   " threads");
      expect_same_outcome(serial[i], parallel[i]);
      EXPECT_EQ(serial[i].trace == nullptr, parallel[i].trace == nullptr);
    }
  }
}

TEST(Determinism, RepeatedSerialRunsAreIdentical) {
  // Baseline for the test above: the map itself is deterministic run to run.
  const std::vector<ExperimentConfig> configs = sweep_configs();
  const std::function<RunOutcome(const ExperimentConfig&)> fn = run_config;
  const std::vector<RunOutcome> first = parallel_map<RunOutcome>(configs, fn, 1);
  const std::vector<RunOutcome> second = parallel_map<RunOutcome>(configs, fn, 1);
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    expect_same_outcome(first[i], second[i]);
    EXPECT_EQ(first[i].trace == nullptr, second[i].trace == nullptr);
  }
}

}  // namespace
}  // namespace apsim
