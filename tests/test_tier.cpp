// Tests for the compressed swap tier: CompressedPool admission/budget/LRU
// mechanics, TierManager routing (pool vs disk, pool-full overflow,
// pool-faulted fallback, background writeback), the SwapDevice release-hook
// integration, and full-stack runs (counters exported, deterministic replay,
// disabled tier == no TierManager at all).

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cluster/node.hpp"
#include "fault/fault_injector.hpp"
#include "harness/runner.hpp"
#include "outcome_compare.hpp"
#include "tier/compressed_pool.hpp"
#include "tier/tier_manager.hpp"

namespace apsim {
namespace {

// ---------------------------------------------------------------------------
// CompressedPool

CompressedPoolParams pool_params(std::int64_t budget_bytes,
                                 TierRatioModel model = TierRatioModel::kText,
                                 std::uint64_t seed = 42) {
  CompressedPoolParams p;
  p.budget_bytes = budget_bytes;
  p.model = model;
  p.seed = seed;
  return p;
}

TEST(CompressedPool, RatiosAreDeterministicInSeedAndSlot) {
  CompressedPool a(pool_params(1 << 20));
  CompressedPool b(pool_params(1 << 20));
  CompressedPool c(pool_params(1 << 20, TierRatioModel::kText, 43));
  bool any_differs = false;
  for (SwapSlot s = 0; s < 256; ++s) {
    EXPECT_DOUBLE_EQ(a.ratio_of(s), b.ratio_of(s));
    if (a.ratio_of(s) != c.ratio_of(s)) any_differs = true;
  }
  EXPECT_TRUE(any_differs) << "different seeds produced identical ratios";
}

TEST(CompressedPool, ModelsProduceTheirDocumentedRanges) {
  CompressedPool text(pool_params(1 << 20, TierRatioModel::kText));
  CompressedPool incompressible(
      pool_params(1 << 20, TierRatioModel::kIncompressible));
  CompressedPool zero(pool_params(1 << 20, TierRatioModel::kZeroFilled));
  CompressedPool mixed(pool_params(1 << 20, TierRatioModel::kMixed));
  double zero_sum = 0.0;
  for (SwapSlot s = 0; s < 512; ++s) {
    EXPECT_GE(text.ratio_of(s), 0.25);
    EXPECT_LE(text.ratio_of(s), 0.55);
    EXPECT_GE(incompressible.ratio_of(s), 0.92);
    EXPECT_GT(mixed.ratio_of(s), 0.0);
    EXPECT_LE(mixed.ratio_of(s), 1.0);
    zero_sum += zero.ratio_of(s);
  }
  // Zero-dominated pages nearly vanish on average.
  EXPECT_LT(zero_sum / 512.0, 0.25);
}

TEST(CompressedPool, ParseRatioModelRoundTripsAndRejectsUnknown) {
  for (TierRatioModel model :
       {TierRatioModel::kMixed, TierRatioModel::kText,
        TierRatioModel::kZeroFilled, TierRatioModel::kIncompressible}) {
    EXPECT_EQ(parse_tier_ratio_model(to_string(model)), model);
  }
  EXPECT_THROW((void)parse_tier_ratio_model("lzma"), std::invalid_argument);
}

TEST(CompressedPool, StoreChargesBudgetAndRejectsWhenFull) {
  // kText compresses to [0.25, 0.55] of 4096 = at most ~2253 bytes/page.
  CompressedPool pool(pool_params(8 * 1024));
  std::int64_t stored = 0;
  SwapSlot s = 0;
  while (pool.store(s)) {
    ++stored;
    ++s;
  }
  EXPECT_GE(stored, 3);  // at least 3 pages fit in 8 KB at <= 0.55 ratio
  EXPECT_EQ(pool.stats().rejects_budget, 1u);
  EXPECT_LE(pool.bytes_used(), pool.budget_bytes());
  EXPECT_EQ(pool.entry_count(), stored);
  EXPECT_EQ(pool.stats().pages_stored, static_cast<std::uint64_t>(stored));

  // Dropping entries releases their budget; the rejected slot then fits
  // (three kText pages free >= 3 KB, more than any single page needs).
  EXPECT_TRUE(pool.drop(0));
  EXPECT_TRUE(pool.drop(1));
  EXPECT_TRUE(pool.drop(2));
  EXPECT_FALSE(pool.contains(0));
  EXPECT_TRUE(pool.store(s).has_value());
}

TEST(CompressedPool, RejectsIncompressiblePages) {
  CompressedPool pool(pool_params(1 << 20, TierRatioModel::kIncompressible));
  for (SwapSlot s = 0; s < 64; ++s) {
    EXPECT_FALSE(pool.store(s).has_value());
  }
  EXPECT_EQ(pool.stats().rejects_ratio, 64u);
  EXPECT_EQ(pool.entry_count(), 0);
}

TEST(CompressedPool, WritebackPopsColdestFirst) {
  CompressedPool pool(pool_params(1 << 20));
  for (SwapSlot s = 0; s < 4; ++s) ASSERT_TRUE(pool.store(s));
  pool.touch(0);  // 0 becomes hottest; coldest order is now 1, 2, 3, 0
  const auto batch = pool.begin_writeback(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);

  // Success drops the entry and its bytes; failure re-queues at the cold end.
  const std::int64_t before = pool.bytes_used();
  pool.finish_writeback(1, /*ok=*/true);
  EXPECT_FALSE(pool.contains(1));
  EXPECT_LT(pool.bytes_used(), before);
  pool.finish_writeback(2, /*ok=*/false);
  EXPECT_TRUE(pool.contains(2));
  const auto retry = pool.begin_writeback(1);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0], 2);  // the failed entry rejoined at the cold end
}

TEST(CompressedPool, InvalidationDuringWritebackIsSafe) {
  CompressedPool pool(pool_params(1 << 20));
  ASSERT_TRUE(pool.store(7));
  const auto batch = pool.begin_writeback(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(pool.drop(7));  // slot freed while the write is in flight
  EXPECT_EQ(pool.bytes_used(), 0);
  pool.finish_writeback(7, /*ok=*/true);  // must be a no-op
  pool.finish_writeback(7, /*ok=*/false);
  EXPECT_EQ(pool.entry_count(), 0);
  EXPECT_EQ(pool.bytes_used(), 0);
}

TEST(CompressedPool, SlotRecycledDuringWritebackKeepsTheFreshEntry) {
  // The full lifecycle under thrash: a slot goes out for writeback, the VMM
  // frees it (drop) and reallocates it for a different page (store), and
  // only then does the old write complete. The completion must not disturb
  // the fresh entry — erasing it would leave a dangling LRU node.
  CompressedPool pool(pool_params(1 << 20));
  ASSERT_TRUE(pool.store(7));
  ASSERT_EQ(pool.begin_writeback(1).size(), 1u);
  EXPECT_TRUE(pool.drop(7));            // slot freed mid-flight...
  ASSERT_TRUE(pool.store(7));           // ...and recycled for a new page
  const std::int64_t bytes = pool.bytes_used();

  pool.finish_writeback(7, /*ok=*/true);  // stale completion: no-op
  EXPECT_TRUE(pool.contains(7));
  EXPECT_EQ(pool.bytes_used(), bytes);

  pool.finish_writeback(7, /*ok=*/false);  // stale failure: also a no-op
  EXPECT_TRUE(pool.contains(7));
  // The fresh entry must still be a well-formed LRU member: exactly one
  // writeback pop, then nothing left.
  EXPECT_EQ(pool.begin_writeback(8).size(), 1u);
  EXPECT_TRUE(pool.begin_writeback(8).empty());
  pool.finish_writeback(7, /*ok=*/true);
  EXPECT_EQ(pool.entry_count(), 0);
  EXPECT_EQ(pool.bytes_used(), 0);
}

TEST(CompressedPool, EntriesUnderWritebackAreNotHandedOutTwice) {
  CompressedPool pool(pool_params(1 << 20));
  for (SwapSlot s = 0; s < 3; ++s) ASSERT_TRUE(pool.store(s));
  const auto first = pool.begin_writeback(2);
  const auto second = pool.begin_writeback(2);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 1u);
  std::set<SwapSlot> all(first.begin(), first.end());
  all.insert(second.begin(), second.end());
  EXPECT_EQ(all.size(), 3u);
}

// ---------------------------------------------------------------------------
// TierManager

struct TierFixture {
  explicit TierFixture(TierParams params = default_params())
      : tier(sim, swap, params) {}

  static TierParams default_params() {
    TierParams p;
    p.pool_mb = 1.0;
    p.ratio_model = TierRatioModel::kText;  // always admits
    return p;
  }

  SlotRun alloc(std::int64_t n) {
    auto run = swap.alloc_run(n);
    EXPECT_TRUE(run.has_value() && run->count == n);
    return *run;
  }

  Simulator sim;
  Disk disk{sim, DiskParams{.num_blocks = 4096}};
  SwapDevice swap{disk, 0, 2048};
  TierManager tier;
};

TEST(TierManager, SwapOutLandsInPoolWithoutDiskIo) {
  TierFixture f;
  const SlotRun run = f.alloc(32);
  bool ok = false;
  f.tier.write(run, IoPriority::kForeground,
               [&](IoResult r) { ok = r.ok; });
  f.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(f.tier.pool().entry_count(), 32);
  EXPECT_EQ(f.disk.stats().blocks_written, 0u);
  // Compress cost is microseconds, not disk milliseconds.
  EXPECT_LE(f.sim.now(), 32 * f.tier.params().compress_cost + kMillisecond);
}

TEST(TierManager, SwapInHitsPoolThenFallsBackToDisk) {
  TierFixture f;
  const SlotRun pooled = f.alloc(16);
  bool wrote = false;
  f.tier.write(pooled, IoPriority::kForeground,
               [&](IoResult r) { wrote = r.ok; });
  f.sim.run();
  ASSERT_TRUE(wrote);

  bool read_ok = false;
  f.tier.read(pooled, IoPriority::kForeground,
              [&](IoResult r) { read_ok = r.ok; });
  f.sim.run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(f.tier.stats().pool_hits, 16u);
  EXPECT_EQ(f.tier.stats().pool_misses, 0u);
  EXPECT_EQ(f.disk.stats().blocks_read, 0u);

  // A run that is nowhere in the pool reads from disk.
  const SlotRun cold = f.alloc(8);
  read_ok = false;
  f.tier.read(cold, IoPriority::kForeground,
              [&](IoResult r) { read_ok = r.ok; });
  f.sim.run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(f.tier.stats().pool_misses, 8u);
  EXPECT_EQ(f.disk.stats().blocks_read, 8u);
}

TEST(TierManager, MixedRunSplitsIntoPoolAndDiskSegments) {
  TierFixture f;
  const SlotRun run = f.alloc(16);
  bool wrote = false;
  f.tier.write(run, IoPriority::kForeground,
               [&](IoResult r) { wrote = r.ok; });
  f.sim.run();
  ASSERT_TRUE(wrote);
  // Punch holes: drop the middle half of the pool entries, as if those
  // slots had been freed and re-written to disk.
  for (SwapSlot s = run.start + 4; s < run.start + 12; ++s) {
    EXPECT_TRUE(f.tier.pool().drop(s));
  }
  bool read_ok = false;
  f.tier.read(run, IoPriority::kForeground,
              [&](IoResult r) { read_ok = r.ok; });
  f.sim.run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(f.tier.stats().pool_hits, 8u);
  EXPECT_EQ(f.tier.stats().pool_misses, 8u);
  EXPECT_EQ(f.disk.stats().blocks_read, 8u);
}

TEST(TierManager, PoolFullOverflowsToDisk) {
  TierParams params = TierFixture::default_params();
  params.pool_mb = 0.0625;  // 64 KB: at ~0.25-0.55 ratio, fits ~30-60 pages
  params.writeback = false;
  TierFixture f(params);
  const SlotRun run = f.alloc(256);
  bool ok = false;
  f.tier.write(run, IoPriority::kForeground, [&](IoResult r) { ok = r.ok; });
  f.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_GT(f.tier.pool().entry_count(), 0);
  EXPECT_LT(f.tier.pool().entry_count(), 256);
  EXPECT_GT(f.tier.stats().stores_rejected, 0u);
  EXPECT_GT(f.disk.stats().blocks_written, 0u);
  EXPECT_EQ(f.tier.pool().entry_count() +
                static_cast<std::int64_t>(f.disk.stats().blocks_written),
            256);
}

TEST(TierManager, FaultedPoolFallsBackToDiskAndKeepsServingReads) {
  TierFixture f;
  FaultSpec spec = FaultSpec::parse("tier_fault p=1");
  FaultInjector injector(f.sim, FaultPlan{}.add(spec));
  // Store before the fault matters: entries stay readable.
  const SlotRun pooled = f.alloc(8);
  bool ok = false;
  f.tier.write(pooled, IoPriority::kForeground, [&](IoResult r) { ok = r.ok; });
  f.sim.run();
  ASSERT_TRUE(ok);

  f.tier.set_fault_injector(&injector, 0);
  const SlotRun faulted = f.alloc(8);
  ok = false;
  f.tier.write(faulted, IoPriority::kForeground,
               [&](IoResult r) { ok = r.ok; });
  f.sim.run();
  EXPECT_TRUE(ok);  // the write still succeeds — on disk
  EXPECT_EQ(f.tier.stats().stores_faulted, 8u);
  EXPECT_EQ(injector.stats().tier_stores_rejected, 8u);
  EXPECT_EQ(f.disk.stats().blocks_written, 8u);
  EXPECT_FALSE(f.tier.pool().contains(faulted.start));

  // Pool-resident data is RAM: injected store faults do not lose it.
  bool read_ok = false;
  f.tier.read(pooled, IoPriority::kForeground,
              [&](IoResult r) { read_ok = r.ok; });
  f.sim.run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(f.tier.stats().pool_hits, 8u);
}

TEST(TierManager, WritebackDrainsColdEntriesToDiskAndQuiesces) {
  TierParams params = TierFixture::default_params();
  params.pool_mb = 0.125;  // 128 KB
  TierFixture f(params);
  // Fill past the high watermark in several writes.
  std::int64_t completed = 0;
  for (int batch = 0; batch < 4; ++batch) {
    const SlotRun run = f.alloc(32);
    f.tier.write(run, IoPriority::kForeground,
                 [&](IoResult r) { completed += r.ok ? 1 : 0; });
  }
  f.sim.run();  // must terminate: the writeback daemon stops when drained
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(f.sim.pending_events(), 0u);
  EXPECT_GT(f.tier.stats().writeback_pages, 0u);
  EXPECT_GT(f.disk.stats().blocks_written, 0u);
  EXPECT_LE(f.tier.pool().occupancy(), f.tier.params().writeback_low_frac);
  // Every page is accounted for exactly once: still pooled, written back,
  // or overflowed to disk at store time.
  EXPECT_EQ(f.tier.pool().entry_count() +
                static_cast<std::int64_t>(f.disk.stats().blocks_written),
            128);
}

TEST(TierManager, WritebackDisabledKeepsEverythingPooled) {
  TierParams params = TierFixture::default_params();
  params.pool_mb = 0.125;
  params.writeback = false;
  TierFixture f(params);
  const SlotRun run = f.alloc(128);
  f.tier.write(run, IoPriority::kForeground, [](IoResult) {});
  f.sim.run();
  EXPECT_EQ(f.tier.stats().writeback_pages, 0u);
  EXPECT_GE(f.tier.pool().occupancy(), f.tier.params().writeback_high_frac);
}

TEST(TierManager, FreeingSlotsDropsPoolEntries) {
  TierFixture f;
  const SlotRun run = f.alloc(4);
  f.tier.write(run, IoPriority::kForeground, [](IoResult) {});
  f.sim.run();
  ASSERT_EQ(f.tier.pool().entry_count(), 4);
  for (std::int64_t i = 0; i < run.count; ++i) {
    f.swap.free_slot(run.start + i);
  }
  EXPECT_EQ(f.tier.pool().entry_count(), 0);
  EXPECT_EQ(f.tier.pool().bytes_used(), 0);
  EXPECT_EQ(f.tier.pool().stats().invalidations, 4u);
}

// ---------------------------------------------------------------------------
// Node / full-stack integration

TEST(TierNode, DisabledTierConstructsNoManager) {
  Simulator sim;
  NodeParams params;
  params.vmm.total_frames = 2048;
  params.disk.num_blocks = 4096;
  Node node(sim, params, 0);
  EXPECT_EQ(node.tier(), nullptr);
  EXPECT_EQ(node.vmm().tier(), nullptr);
}

TEST(TierNode, EnabledTierWiresDownPoolBudget) {
  Simulator sim;
  NodeParams params;
  params.vmm.total_frames = 4096;
  params.disk.num_blocks = 8192;
  NodeParams tiered = params;
  tiered.tier.pool_mb = 4.0;  // 1024 pages
  Node plain(sim, params, 0);
  Node node(sim, tiered, 1);
  ASSERT_NE(node.tier(), nullptr);
  EXPECT_EQ(node.vmm().tier(), node.tier());
  EXPECT_EQ(plain.vmm().free_frames() - node.vmm().free_frames(), 1024);
  EXPECT_EQ(node.tier()->pool().budget_bytes(), 4 * 1024 * 1024);
}

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kW;
  config.nodes = 1;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.quantum = 4 * kSecond;
  config.iterations_scale = 0.1;
  config.policy = PolicySet::parse("so/ao/ai/bg");
  return config;
}

TEST(TierFullStack, CountersFlowIntoRunOutcome) {
  ExperimentConfig config = small_config();
  config.tier_mb = 6.0;
  const RunOutcome out = run_gang(config);
  ASSERT_GT(out.makespan, 0);
  EXPECT_GT(out.tier_pages_stored, 0u);
  EXPECT_GT(out.tier_bytes_stored, 0u);
  EXPECT_GT(out.tier_pool_hits, 0u);
  EXPECT_GT(out.tier_compression_ratio(), 0.0);
  EXPECT_LT(out.tier_compression_ratio(), 1.0);

  const RunOutcome off = run_gang(small_config());
  EXPECT_EQ(off.tier_pages_stored, 0u);
  EXPECT_EQ(off.tier_pool_hits, 0u);
  EXPECT_EQ(off.tier_pool_misses, 0u);
  EXPECT_DOUBLE_EQ(off.tier_compression_ratio(), 1.0);
}

TEST(TierFullStack, TieredRunsAreDeterministic) {
  ExperimentConfig config = small_config();
  config.tier_mb = 6.0;
  const RunOutcome a = run_gang(config);
  const RunOutcome b = run_gang(config);
  expect_same_outcome(a, b);
}

TEST(TierFullStack, ConfigValidatesTierAndRetrySettings) {
  ExperimentConfig config = small_config();
  config.tier_mb = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.tier_mb = 21.0;  // leaves < freepages_high usable frames
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.tier_mb = 6.0;
  config.validate();

  config.io_retry_limit = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.io_retry_limit = 4;
  config.io_retry_cap = config.io_retry_base - 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.io_retry_cap = config.io_retry_base;
  config.stalled_fault_retry_limit = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.stalled_fault_retry_limit = 1;
  config.write_failure_streak_limit = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.write_failure_streak_limit = 1;
  config.validate();
}

TEST(TierFullStack, RetrySettingsReachTheVmm) {
  ExperimentConfig config = small_config();
  config.io_retry_limit = 7;
  config.io_retry_base = 2 * kMillisecond;
  config.io_retry_cap = 32 * kMillisecond;
  config.stalled_fault_retry_limit = 99;
  config.write_failure_streak_limit = 5;
  const NodeParams node = config.make_node_params();
  EXPECT_EQ(node.vmm.io_retry_limit, 7);
  EXPECT_EQ(node.vmm.io_retry_base, 2 * kMillisecond);
  EXPECT_EQ(node.vmm.io_retry_cap, 32 * kMillisecond);
  EXPECT_EQ(node.vmm.stalled_fault_retry_limit, 99);
  EXPECT_EQ(node.vmm.write_failure_streak_limit, 5);
}

}  // namespace
}  // namespace apsim
