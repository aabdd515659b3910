// Reclaim work must scale with the victims a policy returns, not with the
// resident pages it walks past. On a small overcommitted ao/ai run most
// resident pages are in flight whenever reclaim runs (aggressive page-out
// and adaptive page-in keep thousands of reads and write-outs going), which
// is where a page-at-a-time sweep spends its time. The bound is on the
// deterministic work counter Vmm::Stats::pages_scanned, not on wall time.

#include <gtest/gtest.h>

#include <string>

#include "harness/runner.hpp"
#include "reclaim_recorder.hpp"

namespace apsim {
namespace {

/// LU.A, two gangs on one node, 57.5 MB usable, 20 s quanta.
ExperimentConfig overcommitted_ao_ai(const std::string& policy) {
  ExperimentConfig config;
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kA;
  config.nodes = 1;
  config.instances = 2;
  config.usable_memory_mb = 57.5;
  config.quantum = 20 * kSecond;
  config.iterations_scale = 0.2;
  config.policy = PolicySet::parse("ao/ai");
  config.reclaim_policy = policy;
  return config;
}

class ReclaimCost : public ::testing::TestWithParam<std::string> {};

TEST_P(ReclaimCost, PagesScannedPerVictimIsBounded) {
  ScopedRecording recording(/*use_oracles=*/false);
  const RunOutcome out = run_config(overcommitted_ao_ai(GetParam()));
  EXPECT_EQ(out.jobs_failed, 0);
  const ReclaimLog& log = recording.log();
  ASSERT_GT(log.victims, 10000u) << "the run must page heavily";
  const double per_victim = static_cast<double>(log.pages_scanned()) /
                            static_cast<double>(log.victims);
  // Each victim costs the page itself plus the referenced or younger pages
  // the policy ages on the way; in-flight pages are skipped a bitmap word
  // at a time and never examined one by one.
  EXPECT_LE(per_victim, 16.0) << log.pages_scanned() << " pages scanned for "
                             << log.victims << " victims";
}

INSTANTIATE_TEST_SUITE_P(Policies, ReclaimCost,
                         ::testing::Values("clock-lru", "mglru", "s3-fifo"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace apsim
