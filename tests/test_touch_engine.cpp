// Tests for the batched touch engine: golden page_at values pinning the
// reference-string addressing (all four patterns, both zipf regimes), the
// prepared TouchPlan agreeing with AccessChunk, and bulk-vs-scalar
// equivalence: direct Vmm::touch_run fuzzing (including the word walk's
// partial words, stale swap-slot frees, pages with I/O in flight, and zipf
// runs over a CG-sized region, whose ranks touch_run draws from the zipf
// table a block at a time, with first holes and budgets at block edges),
// full CPU-executor runs under memory pressure, and touch_run after
// each residency transition (evict, writeback, tier, prefetch, injected disk
// faults, release).

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "mem/vmm.hpp"
#include "proc/cpu.hpp"
#include "tier/tier_manager.hpp"
#include "workloads/generator.hpp"

namespace apsim {
namespace {

// ---------------------------------------------------------------------------
// Golden addressing values

/// Fixed chunk shape shared by the golden tests: values below were produced
/// by this exact configuration and pin the addressing functions — any change
/// to touch_hash, zipf_rank or the pattern arithmetic must show up here.
AccessChunk golden_chunk(AccessChunk::Pattern pattern, double theta = 0.8) {
  AccessChunk c;
  c.pattern = pattern;
  c.region_start = 1000;
  c.region_pages = 97;
  c.touches = 100000;
  c.seed = 12345;
  c.stride = 7;
  c.theta = theta;
  return c;
}

constexpr std::int64_t kGoldenIdx[] = {0, 1, 2, 42, 96, 97, 1000, 99999};

void expect_golden(const AccessChunk& chunk, const std::int64_t (&want)[8]) {
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(chunk.page_at(kGoldenIdx[k]), want[k]) << "index " << kGoldenIdx[k];
  }
  // The prepared plan must address identically to the chunk.
  const TouchPlan plan = chunk.prepare();
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(plan.page_at(kGoldenIdx[k]), want[k]) << "index " << kGoldenIdx[k];
  }
}

TEST(TouchGolden, Sequential) {
  auto c = golden_chunk(AccessChunk::Pattern::kSequential);
  expect_golden(c, {1000, 1001, 1002, 1042, 1096, 1000, 1030, 1089});
}

TEST(TouchGolden, Strided) {
  auto c = golden_chunk(AccessChunk::Pattern::kStrided);
  expect_golden(c, {1000, 1007, 1014, 1003, 1090, 1000, 1016, 1041});
}

TEST(TouchGolden, Random) {
  auto c = golden_chunk(AccessChunk::Pattern::kRandom);
  expect_golden(c, {1071, 1027, 1032, 1036, 1035, 1000, 1066, 1030});
}

TEST(TouchGolden, ZipfTheta08) {
  auto c = golden_chunk(AccessChunk::Pattern::kZipf, 0.8);
  expect_golden(c, {1035, 1043, 1030, 1084, 1010, 1000, 1062, 1031});
}

TEST(TouchGolden, ZipfTheta10) {
  // theta == 1.0 takes the harmonic/exponential special case.
  auto c = golden_chunk(AccessChunk::Pattern::kZipf, 1.0);
  expect_golden(c, {1023, 1030, 1020, 1078, 1005, 1000, 1050, 1020});
}

TEST(TouchGolden, ZipfHnCacheSurvivesParameterChange) {
  // The lazily-filled harmonic cache must be keyed on (region_pages, theta):
  // mutating either must not reuse the stale constant.
  auto c = golden_chunk(AccessChunk::Pattern::kZipf, 0.8);
  const VPage before = c.page_at(42);
  c.theta = 1.0;
  auto fresh = golden_chunk(AccessChunk::Pattern::kZipf, 1.0);
  EXPECT_EQ(c.page_at(42), fresh.page_at(42));
  c.theta = 0.8;
  EXPECT_EQ(c.page_at(42), before);
  c.region_pages = 53;
  auto small = golden_chunk(AccessChunk::Pattern::kZipf, 0.8);
  small.region_pages = 53;
  EXPECT_EQ(c.page_at(42), small.page_at(42));
}

TEST(TouchGolden, PreparedPlanMatchesChunkEverywhere) {
  for (const auto pattern :
       {AccessChunk::Pattern::kSequential, AccessChunk::Pattern::kStrided,
        AccessChunk::Pattern::kRandom, AccessChunk::Pattern::kZipf}) {
    for (const double theta : {0.8, 1.0}) {
      AccessChunk c = golden_chunk(pattern, theta);
      const TouchPlan plan = c.prepare();
      for (std::int64_t i = 0; i < 500; ++i) {
        ASSERT_EQ(plan.page_at(i), c.page_at(i))
            << "pattern " << static_cast<int>(pattern) << " theta " << theta
            << " i " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fixtures

VmmParams small_params() {
  VmmParams p;
  p.total_frames = 128;
  p.freepages_min = 8;
  p.freepages_low = 12;
  p.freepages_high = 16;
  p.page_cluster = 8;
  return p;
}

/// One full memory stack; the equivalence tests run two of these in
/// lock-step (identical construction order, hence identical RNG streams).
struct Stack {
  explicit Stack(VmmParams params = small_params())
      : vmm(sim, swap, params) {
    swap.set_slot_release_hook(
        [this](SwapSlot slot) { freed.push_back(slot); });
  }

  Simulator sim;
  Disk disk{sim, DiskParams{.num_blocks = 1 << 16}};
  SwapDevice swap{disk, 0, 1 << 16};
  Vmm vmm;
  std::vector<SwapSlot> freed;  ///< swap slots in the order they were freed

  bool sync_fault(Pid pid, VPage v, bool write = false) {
    bool done = false;
    vmm.fault(pid, v, write, [&] { done = true; });
    sim.run();
    return done;
  }

  void populate(Pid pid, VPage begin, VPage end, bool write = true) {
    for (VPage v = begin; v < end; ++v) {
      if (!vmm.touch(pid, v, write)) {
        ASSERT_TRUE(sync_fault(pid, v, write));
      }
    }
  }

  void force_free(std::int64_t target) {
    bool done = false;
    vmm.request_free_frames(target, [&] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }
};

void expect_equal_spaces(const AddressSpace& a, const AddressSpace& b) {
  ASSERT_EQ(a.num_pages(), b.num_pages());
  EXPECT_EQ(a.resident_pages(), b.resident_pages());
  EXPECT_EQ(a.dirty_pages(), b.dirty_pages());
  EXPECT_EQ(a.ws_pages(), b.ws_pages());
  EXPECT_EQ(a.stats().minor_faults, b.stats().minor_faults);
  EXPECT_EQ(a.stats().major_faults, b.stats().major_faults);
  EXPECT_EQ(a.stats().pages_swapped_in, b.stats().pages_swapped_in);
  EXPECT_EQ(a.stats().pages_swapped_out, b.stats().pages_swapped_out);
  EXPECT_EQ(a.stats().pages_clean_dropped, b.stats().pages_clean_dropped);
  EXPECT_EQ(a.stats().false_evictions, b.stats().false_evictions);
  for (VPage v = 0; v < a.num_pages(); ++v) {
    const auto x = a.page_table().at(v);
    const auto y = b.page_table().at(v);
    ASSERT_EQ(x.present(), y.present()) << "page " << v;
    ASSERT_EQ(x.frame(), y.frame()) << "page " << v;
    ASSERT_EQ(x.slot(), y.slot()) << "page " << v;
    ASSERT_EQ(x.last_ref(), y.last_ref()) << "page " << v;
    ASSERT_EQ(x.ws_seen(), y.ws_seen()) << "page " << v;
    ASSERT_EQ(x.referenced(), y.referenced()) << "page " << v;
    ASSERT_EQ(x.dirty(), y.dirty()) << "page " << v;
    ASSERT_EQ(x.io_busy(), y.io_busy()) << "page " << v;
    ASSERT_EQ(x.age(), y.age()) << "page " << v;
  }
  // Rows the per-page views do not expose.
  const PageTable::Meta& x = a.page_table().ro();
  const PageTable::Meta& y = b.page_table().ro();
  EXPECT_EQ(x.has_slot, y.has_slot);
  EXPECT_EQ(x.ever_touched, y.ever_touched);
  EXPECT_EQ(x.evicted, y.evicted);
}

/// The scalar reference for touch_run: one touch() per touch, stopping at
/// the first non-resident page, as Cpu does with batched_touch off.
Vmm::TouchRun scalar_run(Vmm& vmm, AddressSpace& as, const TouchPlan& plan,
                         std::int64_t begin, std::int64_t budget) {
  Vmm::TouchRun out;
  out.consumed = budget;
  for (std::int64_t k = 0; k < budget; ++k) {
    const VPage v = plan.page_at(begin + k);
    if (!vmm.touch(as, v, plan.write)) {
      out.consumed = k;
      out.fault_page = v;
      out.faulted = true;
      break;
    }
  }
  return out;
}

/// Two identical stacks with one process each, driven in lock-step: every
/// transition is applied to both through both(), and check_run() sends a
/// plan through touch_run on A and through the scalar loop on B, then
/// compares the results, the page tables, the swap allocators and the order
/// in which swap slots were freed.
struct Twin {
  explicit Twin(std::int64_t pages = 256, VmmParams params = small_params())
      : a(params), b(params), pid_a(a.vmm.create_process(pages)),
        pid_b(b.vmm.create_process(pages)) {}

  Stack a;
  Stack b;
  Pid pid_a;
  Pid pid_b;

  template <class Fn>
  void both(Fn&& fn) {
    fn(a, pid_a);
    fn(b, pid_b);
  }

  Vmm::TouchRun check_run(const TouchPlan& plan, std::int64_t begin,
                          std::int64_t budget) {
    AddressSpace& as_a = a.vmm.space(pid_a);
    AddressSpace& as_b = b.vmm.space(pid_b);
    const Vmm::TouchRun got = a.vmm.touch_run(as_a, plan, begin, budget);
    const Vmm::TouchRun want = scalar_run(b.vmm, as_b, plan, begin, budget);
    EXPECT_EQ(got.consumed, want.consumed);
    EXPECT_EQ(got.faulted, want.faulted);
    EXPECT_EQ(got.fault_page, want.fault_page);
    expect_same_state();
    return got;
  }

  void expect_same_state() {
    expect_equal_spaces(a.vmm.space(pid_a), b.vmm.space(pid_b));
    const SwapDevice::AllocImage x = a.swap.capture_alloc();
    const SwapDevice::AllocImage y = b.swap.capture_alloc();
    EXPECT_EQ(x.used, y.used);
    EXPECT_EQ(x.hint, y.hint);
    EXPECT_EQ(a.freed, b.freed);
    EXPECT_EQ(a.sim.now(), b.sim.now());
  }
};

/// A sequential plan over [start, start + pages).
TouchPlan sequential_plan(VPage start, std::int64_t pages, bool write) {
  TouchPlan plan;
  plan.pattern = TouchPattern::kSequential;
  plan.region_start = start;
  plan.region_pages = pages;
  plan.touches = 1 << 20;
  plan.write = write;
  return plan;
}

/// True while some page of \p as has a transfer in flight.
bool any_io_busy(const AddressSpace& as) {
  for (const std::uint64_t w : as.page_table().ro().io_busy) {
    if (w != 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Bulk vs scalar: direct Vmm::touch_run fuzz

TEST(TouchRunEquivalence, FuzzAgainstScalarLoop) {
  // Two identical stacks: A consumes plans through touch_run, B through the
  // scalar touch() loop. Every observable — consumed count, fault page, the
  // full page tables and all counters — must stay bit-identical across
  // randomized plans, partial residency and resumed runs.
  Stack a;
  Stack b;
  const std::int64_t kPages = 256;
  const Pid pid_a = a.vmm.create_process(kPages);
  const Pid pid_b = b.vmm.create_process(kPages);
  std::mt19937_64 rng(0xC0FFEE);

  // Partial residency: fault in a pseudo-random subset, same on both.
  for (VPage v = 0; v < kPages; ++v) {
    if ((rng() & 3) != 0) {  // ~75% resident
      ASSERT_TRUE(a.sync_fault(pid_a, v, true));
      ASSERT_TRUE(b.sync_fault(pid_b, v, true));
    }
  }

  auto& as_a = a.vmm.space(pid_a);
  auto& as_b = b.vmm.space(pid_b);
  const TouchPattern patterns[] = {TouchPattern::kSequential,
                                   TouchPattern::kStrided,
                                   TouchPattern::kRandom, TouchPattern::kZipf};
  for (int round = 0; round < 200; ++round) {
    TouchPlan plan;
    plan.pattern = patterns[rng() % 4];
    plan.region_pages = 1 + static_cast<std::int64_t>(rng() % kPages);
    plan.region_start =
        static_cast<VPage>(rng() % (kPages - plan.region_pages + 1));
    plan.touches = 1 << 20;
    plan.stride = static_cast<std::int64_t>(rng() % 300);  // 0 included
    plan.write = (rng() & 1) != 0;
    plan.seed = rng();
    plan.theta = (rng() & 1) != 0 ? 1.0 : 0.8;
    if (plan.pattern == TouchPattern::kZipf) {
      plan.zipf = &zipf_table(plan.region_pages, plan.theta);
    }
    const auto begin = static_cast<std::int64_t>(rng() % 5000);
    const auto budget = static_cast<std::int64_t>(1 + rng() % 700);

    const Vmm::TouchRun run = a.vmm.touch_run(as_a, plan, begin, budget);

    // Scalar reference on stack B.
    const Vmm::TouchRun want = scalar_run(b.vmm, as_b, plan, begin, budget);
    const bool faulted = want.faulted;
    const VPage fault_page = want.fault_page;

    ASSERT_EQ(run.consumed, want.consumed) << "round " << round;
    ASSERT_EQ(run.faulted, faulted) << "round " << round;
    ASSERT_EQ(run.fault_page, fault_page) << "round " << round;
    // Occasionally fault the missing page in (both stacks), advance the
    // epoch, or evict — so later rounds see changed residency.
    if (faulted && (rng() & 1) != 0) {
      ASSERT_TRUE(a.sync_fault(pid_a, fault_page, plan.write));
      ASSERT_TRUE(b.sync_fault(pid_b, fault_page, plan.write));
    }
    if (round % 37 == 17) {
      a.vmm.begin_ws_epoch(pid_a);
      b.vmm.begin_ws_epoch(pid_b);
    }
    if (round % 51 == 23) {
      a.force_free(40);
      b.force_free(40);
    }
  }
  expect_equal_spaces(as_a, as_b);
  EXPECT_EQ(a.sim.now(), b.sim.now());
}

TEST(TouchRunEquivalence, FastForwardStridedOrbitMatchesScalar) {
  // stride sharing a factor with region_pages: the orbit period is shorter
  // than the budget, so the fast path applies fewer distinct touches — the
  // result must still match the scalar loop exactly.
  Stack a;
  Stack b;
  const std::int64_t kPages = 96;
  const Pid pid_a = a.vmm.create_process(kPages);
  const Pid pid_b = b.vmm.create_process(kPages);
  a.populate(pid_a, 0, kPages);
  b.populate(pid_b, 0, kPages);
  auto& as_a = a.vmm.space(pid_a);
  auto& as_b = b.vmm.space(pid_b);

  for (const std::int64_t stride : {0, 1, 4, 6, 12, 96, 97, 192}) {
    TouchPlan plan;
    plan.pattern = stride == 1 ? TouchPattern::kSequential
                               : TouchPattern::kStrided;
    plan.region_start = 0;
    plan.region_pages = kPages;
    plan.touches = 1 << 20;
    plan.stride = stride;
    plan.write = (stride % 2) == 0;

    const Vmm::TouchRun run = a.vmm.touch_run(as_a, plan, 13, 500);
    EXPECT_EQ(run.consumed, 500);
    EXPECT_FALSE(run.faulted);
    for (std::int64_t k = 0; k < 500; ++k) {
      ASSERT_TRUE(b.vmm.touch(as_b, plan.page_at(13 + k), plan.write));
    }
    expect_equal_spaces(as_a, as_b);
  }
}

TEST(TouchRunEquivalence, WordWalkEdgesAgainstScalarLoop) {
  // The word walk's edges: a 1300-page space (21 bitmap words, the last one
  // partial), mostly resident, whose regions start and end inside words,
  // span many words and get budgets of up to four times their size; runs
  // often start next to the region's end and wrap by a page or two. Between
  // runs the twins fault the missing page in, evict (the next write-outs
  // then take slots after the frees), read evicted pages back clean with
  // their swap slot, which a write run frees, and leave background writes or
  // eviction writes in flight across a run, so runs meet io_busy pages.
  VmmParams params = small_params();
  params.total_frames = 2048;
  const std::int64_t kPages = 1300;
  Twin t(kPages, params);
  std::mt19937_64 rng(0x5EED);
  const auto below = [&](std::int64_t n) {
    return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(n));
  };

  // Every page but a few holes, mostly written in.
  for (VPage v = 0; v < kPages; ++v) {
    if (below(100) < 98) {
      const bool write = below(4) != 0;
      t.both([&](Stack& s, Pid pid) {
        ASSERT_TRUE(s.sync_fault(pid, v, write));
      });
    }
  }

  for (int round = 0; round < 600; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    TouchPlan plan;
    plan.region_pages = 1 + below(kPages);
    plan.region_start = below(kPages - plan.region_pages + 1);
    plan.touches = 1 << 30;
    plan.write = below(3) != 0;
    // Sequential, or strided with a stride that is 1 mod region_pages; both
    // take the word walk.
    const std::int64_t kind = below(4);
    plan.pattern =
        kind == 0 ? TouchPattern::kSequential : TouchPattern::kStrided;
    plan.stride = kind == 0 ? 1 : plan.region_pages * (kind - 1) + 1;
    const std::int64_t rp = plan.region_pages;
    const std::int64_t idx =
        below(2) == 0 ? below(rp) : std::max<std::int64_t>(0, rp - below(3));
    const std::int64_t begin = idx + rp * below(1000);
    const std::int64_t budget =
        below(2) == 0 ? 1 + below(4 * rp)
                      : std::max<std::int64_t>(1, rp - idx - 1 + below(4));

    const std::int64_t action = below(8);
    if (action == 0) {
      // Background writes in flight: their pages are clean, io_busy and
      // hold a slot the write run must not free.
      t.both([](Stack& s, Pid pid) {
        s.vmm.writeback_dirty(pid, 400, IoPriority::kBackground, {});
      });
    } else if (action == 1) {
      // Eviction writes in flight: stop once the first write is issued.
      t.both([](Stack& s, Pid pid) {
        s.vmm.request_free_frames(s.vmm.free_frames() + 96, [] {});
        s.sim.run_until([&] { return any_io_busy(s.vmm.space(pid)); });
      });
    }
    const Vmm::TouchRun run = t.check_run(plan, begin, budget);
    if (::testing::Test::HasFatalFailure()) return;
    t.both([](Stack& s, Pid) { s.sim.run(); });
    t.expect_same_state();

    if (run.faulted && below(4) != 0) {
      const bool write = below(2) == 0;
      t.both([&](Stack& s, Pid pid) {
        ASSERT_TRUE(s.sync_fault(pid, run.fault_page, write));
      });
    }
    if (round % 20 == 10) {
      // Evict, compare where the slots went, then read a stretch of the
      // evicted pages back in clean.
      t.both([](Stack& s, Pid) { s.force_free(s.vmm.free_frames() + 150); });
      t.expect_same_state();
      const VPage from = below(kPages - 300);
      const AddressSpace& as = t.a.vmm.space(t.pid_a);
      for (VPage v = from; v < from + 300; ++v) {
        const auto pte = as.page_table().at(v);
        if (pte.present() || pte.slot() == kNoSwapSlot) continue;
        t.both([&](Stack& s, Pid pid) {
          ASSERT_TRUE(s.sync_fault(pid, v, false));
        });
      }
      t.expect_same_state();
    }
    if (round % 60 == 30) {
      t.both([](Stack& s, Pid pid) { s.vmm.begin_ws_epoch(pid); });
    }
  }
  t.expect_same_state();
}

TEST(TouchRunEquivalence, CgSizedZipfRunsAgainstScalarLoop) {
  // CG.B's 4-node matrix region: 26,127 pages, whose zipf table has 2^18
  // buckets, in a space that is resident but for about one page in a
  // thousand. touch_run draws its ranks from the table, the scalar loop
  // (through TouchPlan::page_at) from zipf_rank itself, so every run compares
  // the table with its definition up to the first hole, over about a
  // thousand draws on average. Between runs the twins fault the hole in, and
  // now and then evict a hundred pages, whose slots later write runs free.
  VmmParams params = small_params();
  params.total_frames = 28000;
  const std::int64_t kRegion = 26127;
  const std::int64_t kPages = kRegion + 1000;
  Twin t(kPages, params);
  std::mt19937_64 rng(0xC6B);
  const auto below = [&](std::int64_t n) {
    return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(n));
  };
  for (VPage v = 0; v < kPages; ++v) {
    if (below(1000) != 0) {
      const bool write = below(2) != 0;
      t.both([&](Stack& s, Pid pid) {
        ASSERT_TRUE(s.sync_fault(pid, v, write));
      });
    }
  }

  std::int64_t consumed = 0;
  for (int round = 0; round < 120; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    TouchPlan plan;
    plan.pattern = TouchPattern::kZipf;
    plan.region_pages = below(4) != 0 ? kRegion : 1 + below(kPages);
    plan.region_start = below(kPages - plan.region_pages + 1);
    plan.touches = 1 << 30;
    plan.write = below(2) == 0;
    plan.seed = rng();
    plan.theta = below(2) == 0 ? 1.0 : 0.8;
    plan.zipf = &zipf_table(plan.region_pages, plan.theta);
    const std::int64_t begin = below(1 << 20);
    const std::int64_t budget = 1000 + below(8000);
    const Vmm::TouchRun run = t.check_run(plan, begin, budget);
    if (::testing::Test::HasFatalFailure()) return;
    consumed += run.consumed;

    if (run.faulted && below(4) != 0) {
      const bool write = below(2) == 0;
      t.both([&](Stack& s, Pid pid) {
        ASSERT_TRUE(s.sync_fault(pid, run.fault_page, write));
      });
    }
    if (round % 20 == 10) {
      t.both([](Stack& s, Pid) { s.force_free(s.vmm.free_frames() + 100); });
      t.expect_same_state();
    }
  }
  t.expect_same_state();
  // The runs must reach deep into their budgets, not stop at a hole at once.
  EXPECT_GT(consumed, 50'000);
}

TEST(TouchRunEquivalence, ZipfBlockEdgesAgainstScalarLoop) {
  // touch_run draws zipf ranks ZipfTable::kBlock (B) at a time and drops
  // those drawn past the first absent page. A 2,000-page region is resident
  // but for 40 holes at ranks 500-539, about one draw in a hundred. For each
  // theta and direction, runs start where the first hole is draw 0, B - 1, B
  // or B + 1, with budgets of 1, B - 1, B, B + 1 and 3B. Before each write
  // series the twins evict pages and read them back clean, keeping their
  // swap slots, so the write runs free slots in draw order.
  constexpr auto kB = static_cast<std::int64_t>(ZipfTable::kBlock);
  constexpr std::int64_t kRegion = 2000;
  const auto is_hole = [](VPage v) { return v >= 500 && v < 540; };
  VmmParams params = small_params();
  params.total_frames = 4096;
  Twin t(kRegion, params);
  const auto fill = [&](bool write) {
    for (VPage v = 0; v < kRegion; ++v) {
      if (is_hole(v) || t.a.vmm.space(t.pid_a).page_table().at(v).present()) {
        continue;
      }
      t.both([&](Stack& s, Pid pid) {
        ASSERT_TRUE(s.sync_fault(pid, v, write));
      });
    }
  };
  fill(true);

  // The first begin whose run meets its first absent page at draw d.
  const auto begin_with_first_hole_at = [&](const TouchPlan& plan,
                                            std::int64_t d) {
    const PageTable& pt = t.a.vmm.space(t.pid_a).page_table();
    for (std::int64_t begin = 0; begin < (1 << 20); ++begin) {
      std::int64_t k = 0;
      while (k <= d && pt.at(plan.page_at(begin + k)).present()) ++k;
      if (k == d) return begin;
    }
    return std::int64_t{-1};
  };

  std::size_t write_frees = 0;
  for (const double theta : {0.8, 1.0}) {
    for (const bool write : {false, true}) {
      SCOPED_TRACE(testing::Message() << "theta " << theta << " write "
                                      << write);
      if (write) {
        t.both([](Stack& s, Pid) { s.force_free(s.vmm.free_frames() + 300); });
        fill(false);
      }
      TouchPlan plan;
      plan.pattern = TouchPattern::kZipf;
      plan.region_pages = kRegion;
      plan.touches = 1 << 30;
      plan.write = write;
      plan.seed = 0xB10C;
      plan.theta = theta;
      plan.zipf = &zipf_table(kRegion, theta);
      const std::size_t freed_before = t.a.freed.size();
      for (const std::int64_t d : {std::int64_t{0}, kB - 1, kB, kB + 1}) {
        const std::int64_t begin = begin_with_first_hole_at(plan, d);
        ASSERT_GE(begin, 0) << "no run meets its first hole at draw " << d;
        for (const std::int64_t budget :
             {std::int64_t{1}, kB - 1, kB, kB + 1, 3 * kB}) {
          SCOPED_TRACE(testing::Message() << "first hole at draw " << d
                                          << " budget " << budget);
          const Vmm::TouchRun run = t.check_run(plan, begin, budget);
          if (::testing::Test::HasFatalFailure()) return;
          EXPECT_EQ(run.consumed, std::min(budget, d));
          EXPECT_EQ(run.faulted, budget > d);
        }
      }
      if (write) write_frees += t.a.freed.size() - freed_before;
    }
  }
  t.expect_same_state();
  EXPECT_GT(write_frees, 0u);
}

// ---------------------------------------------------------------------------
// Bulk vs scalar: whole CPU-executor runs

void run_program_pair(std::unique_ptr<Program> prog_a,
                      std::unique_ptr<Program> prog_b) {
  Stack a;
  Stack b;
  CpuParams batched;
  batched.batched_touch = true;
  CpuParams scalar;
  scalar.batched_touch = false;
  Cpu cpu_a(a.sim, a.vmm, batched);
  Cpu cpu_b(b.sim, b.vmm, scalar);

  const Pid pid_a = a.vmm.create_process(400);
  const Pid pid_b = b.vmm.create_process(400);
  Process proc_a("a", pid_a, std::move(prog_a));
  Process proc_b("b", pid_b, std::move(prog_b));
  cpu_a.attach(proc_a);
  cpu_b.attach(proc_b);
  cpu_a.cont_process(proc_a);
  cpu_b.cont_process(proc_b);
  a.sim.run();
  b.sim.run();

  ASSERT_EQ(proc_a.state(), ProcState::kFinished);
  ASSERT_EQ(proc_b.state(), ProcState::kFinished);
  // Full observable equality: virtual time, scheduling, accounting, memory.
  EXPECT_EQ(a.sim.now(), b.sim.now());
  EXPECT_EQ(a.sim.events_dispatched(), b.sim.events_dispatched());
  EXPECT_EQ(proc_a.stats().cpu_time, proc_b.stats().cpu_time);
  EXPECT_EQ(proc_a.stats().fault_wait, proc_b.stats().fault_wait);
  EXPECT_EQ(proc_a.stats().finished_at, proc_b.stats().finished_at);
  EXPECT_EQ(proc_a.stats().slices, proc_b.stats().slices);
  EXPECT_EQ(proc_a.stats().faults_taken, proc_b.stats().faults_taken);
  expect_equal_spaces(a.vmm.space(pid_a), b.vmm.space(pid_b));
  EXPECT_EQ(a.disk.stats().blocks_written, b.disk.stats().blocks_written);
}

TEST(CpuBatchedVsScalar, SweepUnderMemoryPressure) {
  // 400-page footprint on 128 frames: the run faults, evicts and re-faults
  // throughout — both engines must produce the identical execution.
  SweepOptions options;
  options.pages = 400;
  options.iterations = 3;
  options.compute_per_touch = 10 * kMicrosecond;
  run_program_pair(make_sweep_program(options), make_sweep_program(options));
}

TEST(CpuBatchedVsScalar, HotColdUnderMemoryPressure) {
  HotColdOptions options;
  options.pages = 400;
  options.iterations = 4;
  options.touches_per_iteration = 1500;
  options.seed = 77;
  run_program_pair(make_hot_cold_program(options),
                   make_hot_cold_program(options));
}

TEST(CpuBatchedVsScalar, ZipfUnderMemoryPressure) {
  // Zipf chunks at theta 1.0 (writing) and 0.8 (reading) over a 400-page
  // footprint on 128 frames, after a zero-fill sweep: the batched side draws
  // ranks from the zipf table, the scalar side from zipf_rank through
  // AccessChunk::page_at, with faults, evictions and swap-ins throughout.
  const auto make = [] {
    AccessChunk init;
    init.pattern = AccessChunk::Pattern::kSequential;
    init.region_pages = 400;
    init.touches = 400;
    init.write = true;
    init.compute_per_touch = 10 * kMicrosecond;
    std::vector<Op> cycle;
    for (const double theta : {1.0, 0.8}) {
      AccessChunk chunk;
      chunk.pattern = AccessChunk::Pattern::kZipf;
      chunk.region_pages = 400;
      chunk.touches = 1500;
      chunk.write = theta == 1.0;
      chunk.compute_per_touch = 10 * kMicrosecond;
      chunk.theta = theta;
      cycle.push_back(Op::access_op(chunk));
    }
    return std::make_unique<IterativeProgram>(
        std::vector<Op>{Op::access_op(init)}, std::move(cycle), 4, 31);
  };
  run_program_pair(make(), make());
}

TEST(CpuBatchedVsScalar, RandomUnderMemoryPressure) {
  RandomOptions options;
  options.pages = 400;
  options.iterations = 4;
  options.touches_per_iteration = 1500;
  options.seed = 5;
  run_program_pair(make_random_program(options), make_random_program(options));
}

// ---------------------------------------------------------------------------
// touch_run after residency transitions
//
// Each case drives one transition on both twins and then checks a touch_run
// over the region against the scalar loop.

struct ResidencyFixture : ::testing::Test {
  Twin t;

  void populate(VPage begin, VPage end) {
    t.both([&](Stack& s, Pid pid) { s.populate(pid, begin, end); });
  }
  void force_free(std::int64_t target) {
    t.both([&](Stack& s, Pid) { s.force_free(target); });
  }
  /// A sequential run over [start, start + pages) on both twins.
  Vmm::TouchRun run(VPage start, std::int64_t pages, bool write = false) {
    return t.check_run(sequential_plan(start, pages, write), 0, pages);
  }
};

TEST_F(ResidencyFixture, EvictionInvalidatesAndRefaultRestores) {
  populate(0, 100);
  EXPECT_FALSE(run(0, 100).faulted);
  force_free(64);  // evicts part of the region
  EXPECT_TRUE(run(0, 100).faulted);
  populate(0, 100);  // fault everything back in
  EXPECT_EQ(run(0, 100).consumed, 100);
}

TEST_F(ResidencyFixture, WritebackKeepsPagesResident) {
  populate(0, 100);
  EXPECT_FALSE(run(0, 100).faulted);
  std::int64_t started = -1;
  t.both([&](Stack& s, Pid pid) {
    s.vmm.writeback_dirty(pid, 50, IoPriority::kBackground,
                          [&](std::int64_t n) { started = n; });
    s.sim.run();
  });
  EXPECT_GT(started, 0);
  // Background writing does not unmap: a write run touches the whole region
  // and frees the swap copies it made stale.
  const std::size_t freed_before = t.a.freed.size();
  EXPECT_FALSE(run(0, 100, true).faulted);
  EXPECT_EQ(t.a.freed.size(), freed_before + static_cast<std::size_t>(started));
  // ... and a later eviction does unmap.
  force_free(64);
  EXPECT_TRUE(run(0, 100).faulted);
}

TEST_F(ResidencyFixture, PrefetchRemapsAndRevalidates) {
  populate(0, 100);
  force_free(64);
  ASSERT_TRUE(run(0, 100).faulted);
  bool done = false;
  t.both([&](Stack& s, Pid pid) {
    done = false;
    s.vmm.prefetch(pid, {{0, 100}}, [&] { done = true; });
    s.sim.run();
    ASSERT_TRUE(done);
  });
  EXPECT_FALSE(run(0, 100).faulted);
}

TEST_F(ResidencyFixture, EpochAndWsAccountingUnaffectedByProbes) {
  Stack& s = t.a;
  const Pid pid = t.pid_a;
  s.populate(pid, 0, 50);
  s.vmm.begin_ws_epoch(pid);
  EXPECT_EQ(s.vmm.space(pid).ws_pages(), 0);
  const auto run =
      s.vmm.touch_run(s.vmm.space(pid), sequential_plan(0, 50, false), 0, 50);
  EXPECT_EQ(run.consumed, 50);
  EXPECT_EQ(s.vmm.space(pid).ws_pages(), 50);
}

TEST(ResidencyTier, TierEvictionInvalidates) {
  // With the compressed tier interposed, evictions route through the pool.
  Twin t;
  TierParams tp;
  tp.pool_mb = 1.0;
  tp.ratio_model = TierRatioModel::kText;
  TierManager tier_a(t.a.sim, t.a.swap, tp);
  TierManager tier_b(t.b.sim, t.b.swap, tp);
  t.a.vmm.set_tier(&tier_a);
  t.b.vmm.set_tier(&tier_b);
  const TouchPlan plan = sequential_plan(0, 100, false);
  t.both([](Stack& s, Pid pid) { s.populate(pid, 0, 100); });
  EXPECT_FALSE(t.check_run(plan, 0, 100).faulted);
  t.both([](Stack& s, Pid) { s.force_free(64); });
  EXPECT_TRUE(t.check_run(plan, 0, 100).faulted);
  t.both([](Stack& s, Pid pid) { s.populate(pid, 0, 100); });
  EXPECT_FALSE(t.check_run(plan, 0, 100).faulted);
  EXPECT_EQ(tier_a.stats().pool_hits, tier_b.stats().pool_hits);
}

TEST(ResidencyFault, InjectedDiskFaultsKeepCacheExact) {
  // Transient disk failures make eviction writes and swap reads fail and
  // retry; after each round of them a run must still match the scalar loop.
  Twin t;
  FaultPlan plan;
  plan.add(FaultSpec::parse("disk_transient node=0 start_s=0 end_s=3600 p=0.1"));
  FaultInjector injector_a(t.a.sim, plan);
  FaultInjector injector_b(t.b.sim, plan);
  t.a.disk.set_fault_injector(&injector_a, 0);
  t.b.disk.set_fault_injector(&injector_b, 0);

  const TouchPlan region = sequential_plan(0, 100, true);
  t.both([](Stack& s, Pid pid) { s.populate(pid, 0, 100); });
  EXPECT_FALSE(t.check_run(region, 0, 100).faulted);
  for (int round = 0; round < 5; ++round) {
    t.both([](Stack& s, Pid) { s.force_free(64); });
    (void)t.check_run(region, 0, 100);
    t.both([](Stack& s, Pid pid) { s.populate(pid, 0, 100); });
    EXPECT_FALSE(t.check_run(region, 0, 100).faulted);
  }
}

TEST(ResidencyRelease, ReleaseDropsWatchesSafely) {
  // A process released with resident pages gives its frames to a second
  // process, whose runs must match the scalar loop.
  Twin t(128);
  t.both([](Stack& s, Pid pid) {
    s.populate(pid, 0, 100);
    s.vmm.release_process(pid);
    s.sim.run();
  });
  t.pid_a = t.a.vmm.create_process(128);
  t.pid_b = t.b.vmm.create_process(128);
  const TouchPlan plan = sequential_plan(0, 100, false);
  EXPECT_TRUE(t.check_run(plan, 0, 100).faulted);
  t.both([](Stack& s, Pid pid) { s.populate(pid, 0, 100); });
  EXPECT_FALSE(t.check_run(plan, 0, 100).faulted);
}

}  // namespace
}  // namespace apsim
