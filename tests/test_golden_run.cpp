// Golden-run regression test: the full RunOutcome counter set of a small
// fig7-style scenario (IS.W, two instances on one overcommitted node), pinned
// per policy. The simulator is deterministic, so these values must reproduce
// bit for bit on every platform and after every refactor — any drift means an
// intended behavior change (update the table in the same commit, explaining
// why) or an unintended one (a bug). The event-queue/callback overhaul that
// introduced this test was validated against these exact pre-overhaul values.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "harness/config.hpp"
#include "harness/runner.hpp"

namespace apsim {
namespace {

ExperimentConfig golden_config(const std::string& policy) {
  ExperimentConfig config;
  config.app = NpbApp::kIS;
  config.cls = NpbClass::kW;
  config.nodes = 1;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;  // overcommitted: every switch pages
  config.quantum = 4 * kSecond;
  config.iterations_scale = 0.25;
  config.policy = PolicySet::parse(policy);
  return config;
}

struct Golden {
  SimTime makespan;
  std::uint64_t major_faults;
  std::uint64_t pages_swapped_in;
  std::uint64_t pages_swapped_out;
  std::uint64_t false_evictions;
  std::uint64_t pages_recorded;
  std::uint64_t pages_replayed;
  std::uint64_t bg_pages_written;
  int switches;
  SimTime job_completion[2];
  std::uint64_t job_major_faults[2];
};

struct GoldenCase {
  const char* policy;
  Golden want;
  const char* reclaim = "clock-lru";
};

// Values recorded from the pre-overhaul simulator (RelWithDebInfo, x86-64);
// the deterministic substrate makes them platform-independent.
constexpr GoldenCase kGolden[] = {
    {"orig",
     {36857718138, 3376, 14883, 8117, 1483, 0, 0, 0, 8,
      {35846631324, 36857718138}, {1893, 1483}}},
    {"so",
     {23620194353, 1827, 4072, 3672, 0, 0, 0, 0, 4,
      {19952620393, 23620194353}, {930, 897}}},
    {"ao",
     {27951936247, 1940, 8058, 6526, 797, 0, 0, 0, 5,
      {27951936247, 23636754872}, {1122, 818}}},
    {"ai",
     {22972400451, 978, 9875, 6265, 976, 4227, 4227, 0, 4,
      {19962815966, 22972400451}, {316, 662}}},
    {"bg",
     {12663175491, 375, 4792, 4795, 221, 0, 0, 1024, 2,
      {10735283383, 12663175491}, {222, 153}}},
    {"so/ao/ai/bg",
     {10444548366, 0, 3268, 3332, 0, 3268, 3268, 1024, 2,
      {9237326596, 10444548366}, {0, 0}}},
    // The gather-and-sort baselines (exact-lru and fifo) under demand
    // paging, adaptive page-in and background writing, recorded before the
    // two shared one resident-set gather. Selective page-out never falls
    // back to its base policy in this scenario, so so/... rows would only
    // repeat the clock-lru values above.
    {"orig",
     {22944356785, 1617, 5992, 5995, 488, 0, 0, 0, 4,
      {19693548859, 22944356785}, {825, 792}},
     "exact-lru"},
    {"ai",
     {13114492844, 370, 4282, 4282, 369, 2250, 2250, 0, 2,
      {11966402795, 13114492844}, {370, 0}},
     "exact-lru"},
    {"bg",
     {23025534493, 1617, 5688, 6431, 455, 0, 0, 2341, 4,
      {19907049627, 23025534493}, {826, 791}},
     "exact-lru"},
    {"orig",
     {58152788074, 6247, 22728, 10067, 2651, 0, 0, 0, 13,
      {58152788074, 55060793068}, {3244, 3003}},
     "fifo"},
    {"ai",
     {13128465034, 373, 4283, 4283, 372, 2238, 2238, 0, 2,
      {11982329762, 13128465034}, {373, 0}},
     "fifo"},
    {"bg",
     {66037070587, 6708, 25964, 13833, 2651, 0, 0, 7166, 15,
      {66037070587, 62712761316}, {3539, 3169}},
     "fifo"},
};

/// Check one run against its pinned counters. The scenarios run without
/// tier or faults, so every counter of those subsystems is pinned to zero —
/// nonzero means a subsystem leaked into a configuration that did not ask
/// for it.
void expect_golden(const RunOutcome& out, const Golden& want) {
  EXPECT_EQ(out.makespan, want.makespan);
  EXPECT_EQ(out.major_faults, want.major_faults);
  EXPECT_EQ(out.pages_swapped_in, want.pages_swapped_in);
  EXPECT_EQ(out.pages_swapped_out, want.pages_swapped_out);
  EXPECT_EQ(out.false_evictions, want.false_evictions);
  EXPECT_EQ(out.pages_recorded, want.pages_recorded);
  EXPECT_EQ(out.pages_replayed, want.pages_replayed);
  EXPECT_EQ(out.bg_pages_written, want.bg_pages_written);
  EXPECT_EQ(out.switches, want.switches);

  ASSERT_EQ(out.jobs.size(), 2u);
  for (int j = 0; j < 2; ++j) {
    EXPECT_EQ(out.jobs[static_cast<std::size_t>(j)].completion,
              want.job_completion[j])
        << "job " << j;
    EXPECT_EQ(out.jobs[static_cast<std::size_t>(j)].major_faults,
              want.job_major_faults[j])
        << "job " << j;
    EXPECT_FALSE(out.jobs[static_cast<std::size_t>(j)].failed);
  }

  EXPECT_EQ(out.tier_pool_hits, 0u);
  EXPECT_EQ(out.tier_pool_misses, 0u);
  EXPECT_EQ(out.tier_pages_stored, 0u);
  EXPECT_EQ(out.tier_bytes_stored, 0u);
  EXPECT_EQ(out.tier_writeback_pages, 0u);
  EXPECT_EQ(out.jobs_failed, 0);
  EXPECT_EQ(out.nodes_failed, 0);
  EXPECT_EQ(out.io_errors, 0u);
  EXPECT_EQ(out.io_retries, 0u);
  EXPECT_EQ(out.pages_unrecoverable, 0u);
  EXPECT_EQ(out.signal_retransmits, 0u);
}

TEST(GoldenRun, Fig7SmallCountersPinnedPerPolicy) {
  for (const GoldenCase& golden : kGolden) {
    SCOPED_TRACE(testing::Message() << "policy " << golden.policy
                                    << ", reclaim " << golden.reclaim);
    ExperimentConfig config = golden_config(golden.policy);
    config.reclaim_policy = golden.reclaim;
    expect_golden(run_gang(config), golden.want);
  }
}

// MG.W, two instances on one node. One instance is 36.8 MB, so the node gets
// 48 MB usable: the pair pages at every switch without either instance
// thrashing alone. MG's phases begin at 0%, 35%, 70% and 92% of its
// footprint, so their sequential runs start and end inside bitmap words, and
// three of its five phases write: the touch engine's partial-word masks and
// its stale swap-slot frees both run under paging here.
ExperimentConfig mg_config(const std::string& policy) {
  ExperimentConfig config = golden_config(policy);
  config.app = NpbApp::kMG;
  config.usable_memory_mb = 48.0;
  return config;
}

// Recorded before the touch engine walked sequential runs a bitmap word at a
// time.
constexpr GoldenCase kGoldenMg[] = {
    {"orig",
     {180254811482, 18450, 180321, 121596, 3313, 0, 0, 0, 43,
      {180254811482, 175350817199}, {9703, 8747}}},
    {"so/ao/ai/bg",
     {38229884378, 77, 73269, 56692, 76, 72066, 72066, 4096, 8,
      {34879387708, 38229884378}, {0, 77}}},
};

TEST(GoldenRun, MgCountersPinnedPerPolicy) {
  for (const GoldenCase& golden : kGoldenMg) {
    SCOPED_TRACE(testing::Message() << "policy " << golden.policy);
    expect_golden(run_gang(mg_config(golden.policy)), golden.want);
  }
}

// CG.W in MG's shape: the only workload that draws zipf touches (its matrix
// phase, theta 1.0 over 90% of the footprint), and here it takes major
// faults partway through its zipf runs. so/ao/ai/bg is left out: it swaps in
// over 500,000 pages and takes 30 times or more the host time of any row
// below.
ExperimentConfig cg_config(const std::string& policy) {
  ExperimentConfig config = mg_config(policy);
  config.app = NpbApp::kCG;
  return config;
}

// Recorded before the touch engine drew zipf ranks from a guide table.
constexpr GoldenCase kGoldenCg[] = {
    {"orig",
     {89708651632, 6136, 24251, 15435, 686, 0, 0, 0, 20,
      {81185878539, 89708651632}, {2735, 3401}}},
    {"so",
     {62497515328, 3952, 9712, 11697, 0, 0, 0, 0, 11,
      {62497515328, 45730121279}, {2951, 1001}}},
    {"ai",
     {143451709736, 5757, 52142, 15713, 1349, 27674, 27674, 0, 32,
      {130283218275, 143451709736}, {1890, 3867}}},
    {"bg",
     {88579980016, 5832, 25917, 22225, 643, 0, 0, 10240, 20,
      {80358181235, 88579980016}, {2582, 3250}}},
};

TEST(GoldenRun, CgCountersPinnedPerPolicy) {
  for (const GoldenCase& golden : kGoldenCg) {
    SCOPED_TRACE(testing::Message() << "policy " << golden.policy);
    expect_golden(run_gang(cg_config(golden.policy)), golden.want);
  }
}

TEST(GoldenRun, ExtractedMatrixPolicyMatchesPreRefactorGolden) {
  // Differential pin for the SchedulerPolicy extraction: selecting the
  // paper's rotation by name through the policy registry must reproduce the
  // pre-extraction golden counters bit for bit. Two cases bracket the
  // spectrum: the no-optimization baseline and the full paper stack.
  for (const GoldenCase& golden : {kGolden[0], kGolden[5]}) {
    SCOPED_TRACE(std::string("policy ") + golden.policy);
    ExperimentConfig config = golden_config(golden.policy);
    config.sched_policy = "matrix";  // explicit, resolved via the registry
    const RunOutcome out = run_gang(config);
    EXPECT_EQ(out.makespan, golden.want.makespan);
    EXPECT_EQ(out.major_faults, golden.want.major_faults);
    EXPECT_EQ(out.pages_swapped_in, golden.want.pages_swapped_in);
    EXPECT_EQ(out.pages_swapped_out, golden.want.pages_swapped_out);
    EXPECT_EQ(out.false_evictions, golden.want.false_evictions);
    EXPECT_EQ(out.switches, golden.want.switches);
    ASSERT_EQ(out.jobs.size(), 2u);
    for (int j = 0; j < 2; ++j) {
      EXPECT_EQ(out.jobs[static_cast<std::size_t>(j)].completion,
                golden.want.job_completion[j])
          << "job " << j;
    }
  }
}

// The perfbench chaos_recover config at half its length: LU.W on two
// overcommitted nodes with a 4 MB compressed tier, 3 s checkpoints and
// dyn-thresh autotuning; node 1 crashes, both jobs restart on node 0, and a
// window of transient disk errors hits node 0 while it pages for both. The
// only pin that runs the tier (its pool, writeback and fault draws) together
// with checkpoint/restart.
ExperimentConfig tiered_chaos_config() {
  ExperimentConfig config;
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kW;
  config.nodes = 2;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.quantum = 4 * kSecond;
  config.iterations_scale = 0.25;
  config.checkpoint_interval = 3 * kSecond;
  config.tier_mb = 4.0;
  config.autotune = true;
  config.autotune_controller = "dyn-thresh";
  config.faults.add(FaultSpec::parse("node_crash node=1 at_s=10"));
  config.faults.add(
      FaultSpec::parse("disk_transient node=0 start_s=15 end_s=30 p=0.01"));
  return config;
}

TEST(GoldenRun, TieredCheckpointedRunWithCrashPinned) {
  // Recorded before the compressed pool moved from a std::map + std::list
  // to flat slab storage; the pool's LRU order and its fault-RNG draws feed
  // every value below.
  const RunOutcome out = run_gang(tiered_chaos_config());
  EXPECT_EQ(out.makespan, 189575481966);
  EXPECT_EQ(out.tier_pool_hits, 40490u);
  EXPECT_EQ(out.tier_pool_misses, 97268u);
  EXPECT_EQ(out.tier_pages_stored, 29486u);
  EXPECT_EQ(out.tier_bytes_stored, 54025709u);
  EXPECT_EQ(out.tier_writeback_pages, 4736u);
  EXPECT_EQ(out.checkpoints_taken, 124u);
  EXPECT_EQ(out.bytes_checkpointed, 970301440u);
  EXPECT_EQ(out.pages_staged, 8408u);
  EXPECT_EQ(out.jobs_recovered, 2);
  EXPECT_DOUBLE_EQ(out.lost_work_ms, 383.13);
  EXPECT_EQ(out.disk_blocks_read, 97268u);
  EXPECT_EQ(out.disk_blocks_written, 168717u);
  EXPECT_EQ(out.io_errors, 22u);
  EXPECT_EQ(out.nodes_failed, 1);
  EXPECT_EQ(out.jobs_failed, 0);
}

TEST(GoldenRun, TracingDoesNotPerturbTheCounters) {
  // A traced run must be semantically identical to an untraced one: the
  // tracer records but never feeds back. Re-run one golden case with the
  // in-memory tracer and expect the exact same pinned numbers.
  ExperimentConfig config = golden_config("so/ao/ai/bg");
  config.trace_json = std::string("-");
  const RunOutcome out = run_gang(config);
  const Golden& want = kGolden[5].want;
  EXPECT_EQ(out.makespan, want.makespan);
  EXPECT_EQ(out.major_faults, want.major_faults);
  EXPECT_EQ(out.pages_swapped_in, want.pages_swapped_in);
  EXPECT_EQ(out.pages_swapped_out, want.pages_swapped_out);
  EXPECT_EQ(out.switches, want.switches);
  ASSERT_NE(out.trace, nullptr);
  EXPECT_GT(out.trace->events().size(), 0u);
}

}  // namespace
}  // namespace apsim
