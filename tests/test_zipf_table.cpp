// Exactness of ZipfTable, the guide table the batched touch engine draws zipf
// ranks from: rank(h) must equal zipf_rank(h, n, theta, hn) for every draw h.
// The cases cover both exponent regimes (theta == 1 takes exp, any other
// theta takes pow, with a negative exponent above 1), single-rank and tiny
// regions, and CG.B's 4-node region (26,127 pages). Each case is checked
// around every rank boundary, at both ends of every bucket and on a seeded
// fuzz; the memo is checked for one table per key under concurrent callers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "mem/touch_plan.hpp"
#include "sim/rng.hpp"

namespace apsim {
namespace {

struct ZipfCase {
  std::int64_t n;
  double theta;
};

constexpr ZipfCase kCases[] = {
    {1, 1.0},     {2, 1.0},     {3, 0.8},     {97, 0.8},     {97, 1.0},
    {2903, 1.0},  {26127, 1.0}, {26127, 0.8}, {26127, 1.2},
};

constexpr std::uint64_t kTop = std::uint64_t{1} << 53;  // 53-bit uniforms

std::int64_t oracle(const ZipfTable& table, std::uint64_t h) {
  return zipf_rank(h, table.n(), table.theta(), table.hn());
}

/// The first 53-bit uniform k whose draw k << 11 has zipf_rank >= r.
std::uint64_t first_uniform_at_rank(const ZipfTable& table, std::int64_t r) {
  std::uint64_t lo = 0;
  std::uint64_t hi = kTop;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (oracle(table, mid << 11) >= r) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::string describe(const ZipfCase& c) {
  return "n " + std::to_string(c.n) + " theta " + std::to_string(c.theta);
}

TEST(ZipfTable, MatchesZipfRankAroundEveryRankBoundary) {
  // Draws within 16 uniforms of the point where zipf_rank steps from r - 1
  // to r, with the 11 low bits that u drops at 0, all ones, and between.
  for (const ZipfCase& c : kCases) {
    SCOPED_TRACE(describe(c));
    const ZipfTable& table = zipf_table(c.n, c.theta);
    std::int64_t mismatches = 0;
    for (std::int64_t r = 1; r < c.n; ++r) {
      const std::uint64_t k = first_uniform_at_rank(table, r);
      const std::uint64_t from = k < 16 ? 0 : k - 16;
      const std::uint64_t to = std::min(k + 16, kTop - 1);
      for (std::uint64_t j = from; j <= to; ++j) {
        for (const std::uint64_t low : {0x000u, 0x2a5u, 0x7ffu}) {
          const std::uint64_t h = (j << 11) | low;
          if (table.rank(h) != oracle(table, h)) {
            ADD_FAILURE() << "rank " << r << " draw " << h << ": table "
                          << table.rank(h) << ", zipf_rank "
                          << oracle(table, h);
            if (++mismatches == 10) return;
          }
        }
      }
    }
  }
}

TEST(ZipfTable, MatchesZipfRankAtBothEndsOfEveryBucket) {
  for (const ZipfCase& c : kCases) {
    SCOPED_TRACE(describe(c));
    const ZipfTable& table = zipf_table(c.n, c.theta);
    const int shift = 64 - table.bits();
    for (std::uint64_t b = 0; b < (std::uint64_t{1} << table.bits()); ++b) {
      const std::uint64_t first = b << shift;
      const std::uint64_t last = first | ((std::uint64_t{1} << shift) - 1);
      ASSERT_EQ(table.rank(first), oracle(table, first)) << "bucket " << b;
      ASSERT_EQ(table.rank(last), oracle(table, last)) << "bucket " << b;
    }
  }
}

TEST(ZipfTable, MatchesZipfRankOnSeededDraws) {
  Rng rng(0x21F7AB1E);
  for (const ZipfCase& c : kCases) {
    SCOPED_TRACE(describe(c));
    const ZipfTable& table = zipf_table(c.n, c.theta);
    for (int i = 0; i < 10'000'000; ++i) {
      const std::uint64_t h = rng();
      ASSERT_EQ(table.rank(h), oracle(table, h)) << "draw " << h;
    }
  }
}

TEST(ZipfTable, SizeFollowsTheRegionAndMostBucketsArePure) {
  // bits = ceil(log2 n) + 3, clamped to [10, 20]: CG.B's 4-node region gets
  // 2^18 buckets and its serial region 2^20. A table whose buckets all fell
  // back to zipf_rank would still be exact, so bound the fallback share.
  EXPECT_EQ(zipf_table(1, 1.0).bits(), 10);
  EXPECT_EQ(zipf_table(1, 1.0).mixed_buckets(), 0);
  EXPECT_EQ(zipf_table(97, 0.8).bits(), 10);
  EXPECT_EQ(zipf_table(2903, 1.0).bits(), 15);
  EXPECT_EQ(zipf_table(96768, 1.0).bits(), 20);
  const ZipfTable& cg = zipf_table(26127, 1.0);
  ASSERT_EQ(cg.bits(), 18);
  EXPECT_LT(cg.mixed_buckets(), (std::int64_t{1} << 18) / 5);
  EXPECT_DOUBLE_EQ(cg.hn(), zipf_harmonic(26127, 1.0));
}

TEST(ZipfTable, ConcurrentCallersShareOneTablePerKey) {
  // Eight threads ask at once, each for one key all of them share and for
  // one of four keys two of them share. The keys are used by no other test
  // in this binary, so the tables are built here, under contention.
  constexpr int kThreads = 8;
  constexpr ZipfCase kShared{4099, 0.9};
  constexpr std::array<ZipfCase, 4> kPaired{
      {{4101, 1.0}, {4103, 0.7}, {4105, 1.1}, {4107, 1.0}}};
  std::array<const ZipfTable*, kThreads> shared{};
  std::array<const ZipfTable*, kThreads> paired{};
  std::array<std::vector<std::int64_t>, kThreads> ranks;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const ZipfCase& mine = kPaired[static_cast<std::size_t>(t % 4)];
      const auto ti = static_cast<std::size_t>(t);
      shared[ti] = &zipf_table(kShared.n, kShared.theta);
      paired[ti] = &zipf_table(mine.n, mine.theta);
      Rng rng(99);
      for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t h = rng();
        ranks[ti].push_back(shared[ti]->rank(h));
        ranks[ti].push_back(paired[ti]->rank(h));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(testing::Message() << "thread " << t);
    const auto ti = static_cast<std::size_t>(t);
    const ZipfCase& mine = kPaired[static_cast<std::size_t>(t % 4)];
    EXPECT_EQ(shared[ti], shared[0]);
    EXPECT_EQ(paired[ti], paired[static_cast<std::size_t>(t % 4)]);
    EXPECT_EQ(paired[ti]->n(), mine.n);
    EXPECT_EQ(paired[ti]->theta(), mine.theta);
    EXPECT_EQ(ranks[ti], ranks[static_cast<std::size_t>(t % 4)]);
    Rng rng(99);
    for (int i = 0; i < 20'000; ++i) {
      const std::uint64_t h = rng();
      ASSERT_EQ(ranks[ti][static_cast<std::size_t>(2 * i)],
                oracle(*shared[ti], h));
      ASSERT_EQ(ranks[ti][static_cast<std::size_t>(2 * i + 1)],
                oracle(*paired[ti], h));
    }
  }
  EXPECT_EQ(&zipf_table(kShared.n, kShared.theta), shared[0]);
}

}  // namespace
}  // namespace apsim
