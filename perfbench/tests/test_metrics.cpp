// Tests for the benchmark's own arithmetic (perfbench/src/stats.hpp).
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(PaperArithmetic, OverheadFromKnownMakespans) {
  EXPECT_DOUBLE_EQ(overhead_pct(100.0, 80.0), 20.0);
  EXPECT_DOUBLE_EQ(overhead_pct(80.0, 80.0), 0.0);
  EXPECT_DOUBLE_EQ(overhead_pct(0.0, 80.0), 0.0);  // no gang run, no overhead
}

TEST(PaperArithmetic, ReductionAgainstOriginal) {
  // orig overhead 20%, adaptive 5% -> 75% of the switch paging removed.
  EXPECT_DOUBLE_EQ(reduction_pct(5.0, 20.0), 75.0);
  // A policy that made things worse reduces by a negative amount.
  EXPECT_DOUBLE_EQ(reduction_pct(30.0, 20.0), -50.0);
  EXPECT_DOUBLE_EQ(reduction_pct(5.0, 0.0), 0.0);
}

TEST(PaperArithmetic, ScoreAgainstPaperAveragesOverApps) {
  // App A: orig 100 s, adaptive 85 s, batch 80 s -> overheads 20% and
  //        5.882...%, reduction 70.588...%.
  // App B: orig 50 s, adaptive 45 s, batch 40 s -> overheads 20% and
  //        11.111...%, reduction 44.444...%.
  const std::vector<AppMakespans> apps = {{100.0, 85.0, 80.0, 80.0},
                                          {50.0, 45.0, 40.0, 40.0}};
  const PaperScore s = score_against_paper(apps);
  const double ov_a = 100.0 * 5.0 / 85.0;
  const double ov_b = 100.0 * 5.0 / 45.0;
  const double red_a = 100.0 * (1.0 - ov_a / 20.0);
  const double red_b = 100.0 * (1.0 - ov_b / 20.0);
  EXPECT_NEAR(s.switch_overhead_pct, (ov_a + ov_b) / 2.0, 1e-12);
  EXPECT_NEAR(s.paging_reduction_pct, (red_a + red_b) / 2.0, 1e-12);
  EXPECT_NEAR(s.paper_err_pp,
              (std::fabs(red_a - 80.0) + std::fabs(red_b - 40.0)) / 2.0,
              1e-12);
}

TEST(Percentiles, NearestRankWithSampleCounts) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  const Percentile p50 = percentile(v, 50.0);
  EXPECT_EQ(p50.value, 100.0);
  EXPECT_EQ(p50.samples, 200u);
  EXPECT_EQ(p50.above, 100u);
  const Percentile p99 = percentile(v, 99.0);
  EXPECT_EQ(p99.value, 198.0);
  EXPECT_EQ(p99.above, 2u);  // too few tail samples to trust on its own
  const Percentile p95 = percentile(v, 95.0);
  EXPECT_EQ(p95.value, 190.0);
  EXPECT_EQ(p95.above, 10u);
}

TEST(Percentiles, SmallAndEmptySamples) {
  const Percentile one = percentile(std::vector<double>{7.0}, 99.0);
  EXPECT_EQ(one.value, 7.0);
  EXPECT_EQ(one.samples, 1u);
  EXPECT_EQ(one.above, 0u);
  const Percentile none = percentile(std::vector<float>{}, 50.0);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.value, 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Slowdown, PoolsAcrossRunsAndSkipsUnfinishedJobs) {
  // Two policies' runs; 0 marks a job that never completed.
  const std::vector<std::vector<double>> runs = {{1.0, 2.0, 0.0},
                                                 {3.0, 6.0}};
  const PooledSlowdown pooled = pool_slowdowns(runs);
  EXPECT_DOUBLE_EQ(pooled.mean, 3.0);
  EXPECT_EQ(pooled.p99.samples, 4u);
  EXPECT_EQ(pooled.p99.value, 6.0);
}

TEST(FailureClassification, HorizonLostJobAndDigestMismatch) {
  EXPECT_FALSE(classify_run(1000, 0, 42, 42).failed());
  EXPECT_EQ(classify_run(1000, 0, 42, 42).describe(), "ok");

  const RunVerdict horizon = classify_run(-1, 0, 42, 42);
  EXPECT_TRUE(horizon.failed());
  EXPECT_TRUE(horizon.horizon);
  EXPECT_EQ(horizon.describe(), "horizon");

  const RunVerdict lost = classify_run(5000, 1, 42, 42);
  EXPECT_TRUE(lost.lost_job);
  EXPECT_EQ(lost.describe(), "lost_job");

  const RunVerdict mismatch = classify_run(1000, 0, 41, 42);
  EXPECT_TRUE(mismatch.digest_mismatch);
  EXPECT_EQ(mismatch.describe(), "digest_mismatch");

  EXPECT_EQ(classify_run(-1, 2, 1, 2).describe(),
            "horizon,lost_job,digest_mismatch");
}

TEST(LayerAttribution, EventAdvancingTwoLayersCountsForBoth) {
  LayerAttribution a(3);
  a.prime({10, 20, 30});
  a.observe(5000.0, {11, 20, 31});  // layers 0 and 2 moved
  a.observe(2000.0, {11, 21, 31});  // layer 1 moved
  a.observe(1000.0, {11, 21, 31});  // nothing moved
  EXPECT_DOUBLE_EQ(a.host_ms(0), 0.005);
  EXPECT_DOUBLE_EQ(a.host_ms(1), 0.002);
  EXPECT_DOUBLE_EQ(a.host_ms(2), 0.005);
  EXPECT_DOUBLE_EQ(a.unattributed_ms(), 0.001);
}

}  // namespace
}  // namespace perfbench
