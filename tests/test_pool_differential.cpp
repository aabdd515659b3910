// Differential test for the compressed pool's flat storage (slab entries, an
// index-linked LRU and an open-addressing slot index). Seeded random
// operation sequences drive it side by side with the std::map + std::list
// pool kept verbatim in tests/pool_oracle.*: every return value, the entry
// count, the bytes used and every counter must agree after every operation,
// and the final cold-to-hot order must be identical.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "pool_oracle.hpp"
#include "tier/compressed_pool.hpp"

namespace apsim {
namespace {

testing::AssertionResult same_state(const CompressedPool& pool,
                                    const oracle::CompressedPool& ref) {
  const auto& a = pool.stats();
  const auto& b = ref.stats();
  if (pool.entry_count() != ref.entry_count() ||
      pool.bytes_used() != ref.bytes_used() ||
      pool.budget_bytes() != ref.budget_bytes() ||
      a.pages_stored != b.pages_stored || a.bytes_stored != b.bytes_stored ||
      a.rejects_ratio != b.rejects_ratio ||
      a.rejects_budget != b.rejects_budget ||
      a.invalidations != b.invalidations || a.peak_bytes != b.peak_bytes) {
    return testing::AssertionFailure()
           << "entries " << pool.entry_count() << " vs " << ref.entry_count()
           << ", bytes " << pool.bytes_used() << " vs " << ref.bytes_used()
           << ", stored " << a.pages_stored << " vs " << b.pages_stored
           << ", rejects " << a.rejects_ratio << "/" << a.rejects_budget
           << " vs " << b.rejects_ratio << "/" << b.rejects_budget
           << ", invalidations " << a.invalidations << " vs "
           << b.invalidations << ", peak " << a.peak_bytes << " vs "
           << b.peak_bytes;
  }
  return testing::AssertionSuccess();
}

/// Drain both pools through begin_writeback, which pops coldest first, and
/// compare the whole cold-to-hot order.
void expect_same_lru_order(CompressedPool& pool, oracle::CompressedPool& ref) {
  const auto all = std::numeric_limits<std::int64_t>::max();
  const std::vector<SwapSlot> got = pool.begin_writeback(all);
  const std::vector<SwapSlot> want = ref.begin_writeback(all);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(same_state(pool, ref));
}

struct Mix {
  const char* name;
  SwapSlot key_space;  ///< slots are drawn from [0, key_space)
  TierRatioModel model;
  std::int64_t budget_bytes;
  int ops;
};

void run_sequence(std::uint64_t seed, const Mix& mix) {
  SCOPED_TRACE(testing::Message() << mix.name << ", seed " << seed);
  const CompressedPoolParams params{.budget_bytes = mix.budget_bytes,
                                    .model = mix.model,
                                    .max_admit_ratio = 0.9,
                                    .seed = seed};
  CompressedPool pool(params);
  oracle::CompressedPool ref(params);
  std::mt19937_64 rng(seed);
  const auto below = [&](std::uint64_t n) { return rng() % n; };

  // Slots handed out by begin_writeback and not yet finished. A slot may be
  // dropped, re-stored or even handed out again while it is listed here, so
  // finishing it exercises the stale-write paths too.
  std::vector<SwapSlot> in_flight;
  const auto pick_slot = [&] {
    if (!in_flight.empty() && below(4) == 0) {
      return in_flight[below(in_flight.size())];
    }
    return static_cast<SwapSlot>(below(static_cast<std::uint64_t>(mix.key_space)));
  };

  for (int n = 0; n < mix.ops; ++n) {
    const auto op = below(100);
    if (op < 40) {
      const SwapSlot slot = pick_slot();
      ASSERT_EQ(pool.store(slot), ref.store(slot)) << "store " << slot;
    } else if (op < 52) {
      const SwapSlot slot = pick_slot();
      const bool held = ref.contains(slot);
      ASSERT_EQ(pool.touch(slot), held) << "touch " << slot;
      ref.touch(slot);
    } else if (op < 66) {
      const SwapSlot slot = pick_slot();
      ASSERT_EQ(pool.drop(slot), ref.drop(slot)) << "drop " << slot;
    } else if (op < 76) {
      const SwapSlot slot = pick_slot();
      ASSERT_EQ(pool.contains(slot), ref.contains(slot)) << "contains " << slot;
    } else if (op < 84) {
      const auto max_slots = static_cast<std::int64_t>(below(9));
      const auto got = pool.begin_writeback(max_slots);
      ASSERT_EQ(got, ref.begin_writeback(max_slots));
      in_flight.insert(in_flight.end(), got.begin(), got.end());
    } else if (op < 96) {
      if (in_flight.empty()) continue;
      const std::size_t i = below(in_flight.size());
      const SwapSlot slot = in_flight[i];
      in_flight[i] = in_flight.back();
      in_flight.pop_back();
      const bool ok = below(3) != 0;
      pool.finish_writeback(slot, ok);
      ref.finish_writeback(slot, ok);
    } else {
      // Shrink the budget under the occupancy, or restore it.
      const std::int64_t budget =
          below(2) == 0
              ? mix.budget_bytes * static_cast<std::int64_t>(5 + below(90)) / 100
              : mix.budget_bytes;
      pool.set_budget_bytes(budget);
      ref.set_budget_bytes(budget);
    }
    ASSERT_TRUE(same_state(pool, ref)) << "after op " << n;
  }

  for (const SwapSlot slot : in_flight) {
    const bool ok = below(2) != 0;
    pool.finish_writeback(slot, ok);
    ref.finish_writeback(slot, ok);
  }
  ASSERT_TRUE(same_state(pool, ref));
  expect_same_lru_order(pool, ref);
}

TEST(PoolDifferential, RandomSequencesMatchTheMapAndListPool) {
  const Mix mixes[] = {
      // Few slots: constant re-stores, drops of in-flight slots and stale
      // writeback completions.
      {"dense keys", 48, TierRatioModel::kMixed, 64 * 1024, 20000},
      // The budget binds: stores are rejected and the LRU churns.
      {"tight budget", 4096, TierRatioModel::kText, 24 * 1024, 20000},
      // Sparse keys, roomy budget: thousands of entries, so the index
      // doubles many times and deletions run through long probe chains.
      {"sparse keys", SwapSlot{1} << 40, TierRatioModel::kZeroFilled,
       4 * 1024 * 1024, 60000},
  };
  for (const Mix& mix : mixes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_sequence(seed, mix);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PoolDifferential, WritebackOfARecycledSlotLeavesTheNewEntryAlone) {
  // Slot 0 is handed to writeback, dropped (its page was freed) and stored
  // again while the write is in flight. The stale write's completion must
  // neither drop the fresh entry nor move it; a failed write of slot 1
  // sends it back to the cold end.
  const CompressedPoolParams params{.budget_bytes = 1 << 20,
                                    .model = TierRatioModel::kText,
                                    .seed = 5};
  CompressedPool pool(params);
  oracle::CompressedPool ref(params);
  for (SwapSlot s = 0; s < 4; ++s) ASSERT_EQ(pool.store(s), ref.store(s));
  const auto batch = pool.begin_writeback(2);
  ASSERT_EQ(batch, ref.begin_writeback(2));
  ASSERT_EQ(batch, (std::vector<SwapSlot>{0, 1}));
  ASSERT_TRUE(pool.drop(0) && ref.drop(0));
  ASSERT_EQ(pool.store(0), ref.store(0));
  pool.finish_writeback(0, true);
  ref.finish_writeback(0, true);
  EXPECT_TRUE(pool.contains(0));
  pool.finish_writeback(1, false);
  ref.finish_writeback(1, false);
  ASSERT_TRUE(same_state(pool, ref));
  const auto all = std::numeric_limits<std::int64_t>::max();
  const auto order = pool.begin_writeback(all);
  EXPECT_EQ(order, (std::vector<SwapSlot>{1, 2, 3, 0}));
  EXPECT_EQ(order, ref.begin_writeback(all));
}

TEST(PoolDifferential, IndexDoublesManyTimesAndKeepsEveryEntry) {
  // 30000 admitted entries take the index from 16 buckets through twelve
  // doublings; then every other entry goes, half of the rest are touched,
  // and the cold-to-hot order must still match.
  const CompressedPoolParams params{.budget_bytes = std::int64_t{1} << 30,
                                    .model = TierRatioModel::kText,
                                    .seed = 7};
  CompressedPool pool(params);
  oracle::CompressedPool ref(params);
  std::vector<SwapSlot> slots;
  for (SwapSlot s = 0; std::ssize(slots) < 30000; s += 3) {
    ASSERT_EQ(pool.store(s), ref.store(s));
    slots.push_back(s);
  }
  ASSERT_EQ(pool.entry_count(), 30000);
  for (std::size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_EQ(pool.drop(slots[i]), ref.drop(slots[i]));
  }
  for (std::size_t i = 1; i < slots.size(); i += 4) {
    const bool held = ref.contains(slots[i]);
    ASSERT_EQ(pool.touch(slots[i]), held) << "slot " << slots[i];
    ref.touch(slots[i]);
  }
  for (const SwapSlot s : slots) {
    ASSERT_EQ(pool.contains(s), ref.contains(s)) << "slot " << s;
    ASSERT_FALSE(pool.contains(s + 1));
  }
  ASSERT_TRUE(same_state(pool, ref));
  expect_same_lru_order(pool, ref);
}

TEST(PoolDifferential, DeletionsWithProbeChainsThatWrapTheTable) {
  // Slots whose multiplicative hash puts them in the last bucket of the
  // first, 16-bucket index: their probe chain runs off the end of the table
  // and wraps to bucket 0, where slots homed at bucket 0 queue behind them.
  // Deleting chain members in every position must keep every other slot
  // reachable (backward-shift deletion across the wrap).
  const auto home16 = [](SwapSlot s) {
    return (static_cast<std::uint64_t>(s) * 0x9E3779B97F4A7C15ULL) >> 60;
  };
  std::vector<SwapSlot> last_home;
  std::vector<SwapSlot> first_home;
  for (SwapSlot s = 0; last_home.size() < 5 || first_home.size() < 3; ++s) {
    if (home16(s) == 15 && last_home.size() < 5) last_home.push_back(s);
    if (home16(s) == 0 && first_home.size() < 3) first_home.push_back(s);
  }
  // Eight entries keep the 16-bucket table at half load, so it never grows.
  std::vector<SwapSlot> chain = last_home;
  chain.insert(chain.end(), first_home.begin(), first_home.end());

  const CompressedPoolParams params{.budget_bytes = 1 << 20,
                                    .model = TierRatioModel::kText,
                                    .seed = 3};
  for (std::size_t victim = 0; victim < chain.size(); ++victim) {
    SCOPED_TRACE(testing::Message() << "drop chain member " << victim);
    CompressedPool pool(params);
    oracle::CompressedPool ref(params);
    for (const SwapSlot s : chain) ASSERT_EQ(pool.store(s), ref.store(s));
    // Drop one member, then the rest from the back, checking every slot
    // stays findable after each deletion.
    std::vector<SwapSlot> order{chain[victim]};
    for (std::size_t i = chain.size(); i-- > 0;) {
      if (i != victim) order.push_back(chain[i]);
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
      ASSERT_EQ(pool.drop(order[k]), ref.drop(order[k]));
      for (const SwapSlot s : chain) {
        ASSERT_EQ(pool.contains(s), ref.contains(s))
            << "slot " << s << " after " << k + 1 << " drops";
      }
      ASSERT_TRUE(same_state(pool, ref));
      if (k == 2) {
        // Re-store a dropped slot mid-way: it must land back in the chain.
        ASSERT_EQ(pool.store(order[0]), ref.store(order[0]));
        ASSERT_TRUE(pool.contains(order[0]));
        ASSERT_EQ(pool.drop(order[0]), ref.drop(order[0]));
      }
    }
    EXPECT_EQ(pool.entry_count(), 0);
    EXPECT_EQ(pool.bytes_used(), 0);
  }
}

}  // namespace
}  // namespace apsim
