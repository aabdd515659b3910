// Unit tests for physical-frame accounting (incl. the mlock-style wiring
// used by the experiments) and the page table / PTE invariants, plus a fuzz
// section pitting the SoA bitmap view against a plain struct-per-page shadow
// across the transition patterns of the VMM (fault-in, eviction, writeback,
// prefetch, tiering, WS epochs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/frame_table.hpp"
#include "mem/page_table.hpp"
#include "sim/rng.hpp"

namespace apsim {
namespace {

TEST(FrameTable, AllocAndFreeConserveCounts) {
  FrameTable frames(100);
  EXPECT_EQ(frames.total_frames(), 100);
  EXPECT_EQ(frames.free_frames(), 100);
  auto f = frames.alloc(1, 42);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(frames.free_frames(), 99);
  EXPECT_EQ(frames.used_frames(), 1);
  EXPECT_EQ(frames.frame(*f).owner, 1);
  EXPECT_EQ(frames.frame(*f).vpage, 42);
  frames.free(*f);
  EXPECT_EQ(frames.free_frames(), 100);
  EXPECT_EQ(frames.frame(*f).owner, kNoPid);
}

TEST(FrameTable, ExhaustionReturnsNullopt) {
  FrameTable frames(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(frames.alloc(1, i).has_value());
  }
  EXPECT_FALSE(frames.alloc(1, 3).has_value());
}

TEST(FrameTable, WireDownRemovesFromCirculation) {
  FrameTable frames(100);
  EXPECT_EQ(frames.wire_down(30), 30);
  EXPECT_EQ(frames.wired_frames(), 30);
  EXPECT_EQ(frames.usable_frames(), 70);
  EXPECT_EQ(frames.free_frames(), 70);
  int allocated = 0;
  while (frames.alloc(1, allocated).has_value()) ++allocated;
  EXPECT_EQ(allocated, 70);
}

TEST(FrameTable, WireDownClampsToFreePool) {
  FrameTable frames(10);
  (void)frames.alloc(1, 0);
  EXPECT_EQ(frames.wire_down(100), 9);
  EXPECT_EQ(frames.usable_frames(), 1);
}

TEST(FrameTable, HandsOutFramesLikeAFullFreeList) {
  // Shadow: the free list as one vector holding every free frame, highest
  // first, so pop_back hands out the lowest (the table stores only frames
  // that were handed out). Random alloc/free/wire sequences, before and
  // after the first allocation, must agree frame for frame.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::int64_t n = 40 + static_cast<std::int64_t>(seed);
    FrameTable frames(n);
    std::vector<FrameNum> shadow_free;
    for (FrameNum f = n - 1; f >= 0; --f) shadow_free.push_back(f);
    std::vector<FrameNum> owned;
    std::int64_t wired = 0;
    const auto wire = [&](std::int64_t k) {
      const std::int64_t want =
          std::min<std::int64_t>(k, std::ssize(shadow_free));
      ASSERT_EQ(frames.wire_down(k), want);
      shadow_free.resize(shadow_free.size() - static_cast<std::size_t>(want));
      wired += want;
    };
    if (seed % 2 == 0) {
      // Before any use, twice, as a node wires its slack and then its tier.
      wire(static_cast<std::int64_t>(seed));
      wire(3);
    }
    for (int step = 0; step < 400; ++step) {
      const double r = rng.uniform();
      if (r < 0.55) {
        const auto f = frames.alloc(1, step);
        if (shadow_free.empty()) {
          ASSERT_FALSE(f.has_value());
          continue;
        }
        ASSERT_TRUE(f.has_value());
        ASSERT_EQ(*f, shadow_free.back());
        shadow_free.pop_back();
        owned.push_back(*f);
        EXPECT_EQ(frames.frame(*f).owner, 1);
        EXPECT_EQ(frames.frame(*f).vpage, step);
      } else if (r < 0.97 && !owned.empty()) {
        const auto i = static_cast<std::size_t>(rng.next_below(owned.size()));
        const FrameNum f = owned[i];
        owned.erase(owned.begin() + static_cast<std::ptrdiff_t>(i));
        frames.free(f);
        shadow_free.push_back(f);
        EXPECT_EQ(frames.frame(f).owner, kNoPid);
      } else {
        wire(rng.uniform_int(1, 3));
      }
      ASSERT_EQ(frames.free_frames(), std::ssize(shadow_free));
      ASSERT_EQ(frames.wired_frames(), wired);
      ASSERT_EQ(frames.used_frames(), std::ssize(owned));
    }
  }
}

TEST(FrameTable, MbToPagesRoundTrip) {
  EXPECT_EQ(mb_to_pages(1.0), 256);       // 1 MB = 256 x 4 KiB
  EXPECT_EQ(mb_to_pages(1024.0), 262144); // 1 GB
  EXPECT_DOUBLE_EQ(pages_to_mb(256), 1.0);
}

TEST(PageTable, DefaultPteIsEmpty) {
  PageTable pt(16);
  const auto pte = pt.at(0);
  EXPECT_FALSE(pte.present());
  EXPECT_FALSE(pte.referenced());
  EXPECT_FALSE(pte.dirty());
  EXPECT_FALSE(pte.io_busy());
  EXPECT_EQ(pte.frame(), kNoFrame);
  EXPECT_EQ(pte.slot(), kNoSwapSlot);
  EXPECT_FALSE(pte.ever_touched());
  EXPECT_FALSE(pte.ws_seen());
  EXPECT_FALSE(pte.evicted_this_epoch());
}

TEST(PageTable, ValidBounds) {
  PageTable pt(16);
  EXPECT_TRUE(pt.valid(0));
  EXPECT_TRUE(pt.valid(15));
  EXPECT_FALSE(pt.valid(16));
  EXPECT_FALSE(pt.valid(-1));
}

TEST(PageTable, ClockHandWraps) {
  PageTable pt(4);
  EXPECT_EQ(pt.clock_hand(), 0);
  for (int i = 0; i < 4; ++i) pt.advance_clock_hand();
  EXPECT_EQ(pt.clock_hand(), 0);
  pt.set_clock_hand(7);
  EXPECT_EQ(pt.clock_hand(), 3);
}

TEST(Pte, CleanDropSemantics) {
  PageTable pt(8);
  Pte pte = pt.at(3);
  EXPECT_FALSE(pte.clean_drop_ok());  // not present
  pte.set_present(true);
  EXPECT_FALSE(pte.clean_drop_ok());  // no swap copy
  pte.set_slot(5);
  EXPECT_TRUE(pte.clean_drop_ok());
  pte.set_dirty(true);
  EXPECT_FALSE(pte.clean_drop_ok());  // dirty needs a write
}

// ---------------------------------------------------------------------------
// Fuzz: bitmap view vs a plain struct-per-page reference shadow

/// The pre-migration layout, field for field: the ground truth the bitmap
/// rows and the Pte accessor view must reproduce exactly.
struct RefPte {
  bool present = false;
  bool referenced = false;
  bool dirty = false;
  bool io_busy = false;
  bool ever_touched = false;
  bool ws_seen = false;
  bool evicted = false;
  FrameNum frame = kNoFrame;
  SwapSlot slot = kNoSwapSlot;
  SimTime last_ref = 0;
  std::uint8_t age = 0;
};

void expect_matches_shadow(const PageTable& pt,
                           const std::vector<RefPte>& shadow) {
  ASSERT_EQ(pt.num_pages(), std::ssize(shadow));
  for (VPage v = 0; v < pt.num_pages(); ++v) {
    const auto pte = pt.at(v);
    const RefPte& ref = shadow[static_cast<std::size_t>(v)];
    ASSERT_EQ(pte.present(), ref.present) << "page " << v;
    ASSERT_EQ(pte.referenced(), ref.referenced) << "page " << v;
    ASSERT_EQ(pte.dirty(), ref.dirty) << "page " << v;
    ASSERT_EQ(pte.io_busy(), ref.io_busy) << "page " << v;
    ASSERT_EQ(pte.ever_touched(), ref.ever_touched) << "page " << v;
    ASSERT_EQ(pte.ws_seen(), ref.ws_seen) << "page " << v;
    ASSERT_EQ(pte.evicted_this_epoch(), ref.evicted) << "page " << v;
    ASSERT_EQ(pte.frame(), ref.frame) << "page " << v;
    ASSERT_EQ(pte.slot(), ref.slot) << "page " << v;
    ASSERT_EQ(pte.last_ref(), ref.last_ref) << "page " << v;
    ASSERT_EQ(pte.age(), ref.age) << "page " << v;
    ASSERT_EQ(pte.clean_drop_ok(),
              ref.present && !ref.dirty && ref.slot != kNoSwapSlot)
        << "page " << v;
  }
}

/// Brute-force twin of the word scans, over the shadow.
VPage ref_scan(const std::vector<RefPte>& shadow, VPage from,
               bool (*want)(const RefPte&)) {
  const auto n = static_cast<VPage>(shadow.size());
  for (VPage v = std::max<VPage>(from, 0); v < n; ++v) {
    if (want(shadow[static_cast<std::size_t>(v)])) return v;
  }
  return n;
}

void expect_scans_match(const PageTable& pt, const std::vector<RefPte>& shadow,
                        Rng& rng) {
  const std::int64_t n = pt.num_pages();
  for (int probe = 0; probe < 16; ++probe) {
    const VPage from = static_cast<VPage>(rng.next_below(
        static_cast<std::uint64_t>(n) + 2));  // includes n and n+1
    ASSERT_EQ(pt.next_present(from),
              ref_scan(shadow, from, [](const RefPte& p) { return p.present; }))
        << "from " << from;
    ASSERT_EQ(pt.next_live(from),
              ref_scan(shadow, from,
                       [](const RefPte& p) {
                         return p.present || p.slot != kNoSwapSlot;
                       }))
        << "from " << from;
    ASSERT_EQ(pt.next_dirty_candidate(from),
              ref_scan(shadow, from,
                       [](const RefPte& p) {
                         return p.present && p.dirty && !p.io_busy;
                       }))
        << "from " << from;
    const VPage start = static_cast<VPage>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    const auto count = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n - start) + 1));
    std::int64_t expected = 0;
    for (VPage v = start; v < start + count; ++v) {
      expected += shadow[static_cast<std::size_t>(v)].present ? 1 : 0;
    }
    ASSERT_EQ(pt.count_present(start, count), expected)
        << "start " << start << " count " << count;
  }
}

/// Bits past num_pages() in the last word of every row must stay zero —
/// the invariant all word scans rely on.
void expect_tail_bits_zero(const PageTable& pt) {
  const std::int64_t n = pt.num_pages();
  if ((n & 63) == 0) return;
  const std::uint64_t tail_mask = ~std::uint64_t{0} << (n & 63);
  const PageTable::Meta& m = pt.ro();
  for (const auto* row : {&m.present, &m.referenced, &m.dirty, &m.io_busy,
                          &m.ever_touched, &m.has_slot, &m.ws_seen,
                          &m.evicted}) {
    ASSERT_EQ(row->back() & tail_mask, 0u);
  }
}

TEST(PageTableFuzz, BitmapViewMatchesReferenceShadow) {
  Rng rng(20240808);
  for (const std::int64_t npages : {1, 63, 64, 65, 192, 517}) {
    PageTable pt(npages);
    std::vector<RefPte> shadow(static_cast<std::size_t>(npages));
    SimTime now = 0;
    for (int op = 0; op < 2000; ++op) {
      const VPage v = static_cast<VPage>(
          rng.next_below(static_cast<std::uint64_t>(npages)));
      Pte pte = pt.at(v);
      RefPte& ref = shadow[static_cast<std::size_t>(v)];
      ++now;
      // Composite transitions modelled on the VMM's fault / touch / evict /
      // writeback / prefetch / tier paths, plus epoch resets.
      switch (rng.next_below(10)) {
        case 0: {  // fault-in (minor or major completion)
          pte.set_present(true);
          pte.set_frame(static_cast<FrameNum>(v));
          pte.set_referenced(true);
          pte.set_ever_touched(true);
          pte.set_last_ref(now);
          pte.set_age(3);
          ref.present = true;
          ref.frame = static_cast<FrameNum>(v);
          ref.referenced = true;
          ref.ever_touched = true;
          ref.last_ref = now;
          ref.age = 3;
          break;
        }
        case 1: {  // write touch: dirty + drop the stale swap copy
          if (!ref.present) break;
          pte.set_referenced(true);
          pte.set_dirty(true);
          pte.set_last_ref(now);
          pte.set_ws_seen();
          ref.referenced = true;
          ref.dirty = true;
          ref.last_ref = now;
          ref.ws_seen = true;
          if (!ref.io_busy && ref.slot != kNoSwapSlot) {
            pte.set_slot(kNoSwapSlot);
            ref.slot = kNoSwapSlot;
          }
          break;
        }
        case 2: {  // eviction write-out start
          if (!ref.present || ref.io_busy) break;
          pte.set_io_busy(true);
          pte.set_slot(static_cast<SwapSlot>(v) + 7);
          ref.io_busy = true;
          ref.slot = static_cast<SwapSlot>(v) + 7;
          break;
        }
        case 3: {  // write-out completion: unmap, keep the swap copy
          if (!ref.io_busy) break;
          pte.set_io_busy(false);
          pte.set_dirty(false);
          pte.set_present(false);
          pte.set_frame(kNoFrame);
          pte.set_evicted_this_epoch();
          ref.io_busy = false;
          ref.dirty = false;
          ref.present = false;
          ref.frame = kNoFrame;
          ref.evicted = true;
          break;
        }
        case 4: {  // clean drop (swap copy already valid)
          if (!(ref.present && !ref.dirty && ref.slot != kNoSwapSlot) ||
              ref.io_busy) {
            break;
          }
          pte.set_present(false);
          pte.set_frame(kNoFrame);
          pte.set_evicted_this_epoch();
          ref.present = false;
          ref.frame = kNoFrame;
          ref.evicted = true;
          break;
        }
        case 5: {  // prefetch / major-fault swap read landing
          if (ref.present || ref.slot == kNoSwapSlot) break;
          pte.set_present(true);
          pte.set_frame(static_cast<FrameNum>(v) + 1);
          pte.set_last_ref(now);
          ref.present = true;
          ref.frame = static_cast<FrameNum>(v) + 1;
          ref.last_ref = now;
          break;
        }
        case 6: {  // tier writeback probe: transient io_busy toggle
          if (!ref.present) break;
          pte.set_io_busy(!ref.io_busy);
          ref.io_busy = !ref.io_busy;
          break;
        }
        case 7: {  // clock sweep: clear the reference bit, age down
          pte.set_referenced(false);
          if (ref.age > 0) pte.set_age(ref.age - 1);
          ref.referenced = false;
          if (ref.age > 0) --ref.age;
          break;
        }
        case 8: {  // new WS epoch
          pt.clear_epoch_tags();
          for (RefPte& r : shadow) {
            r.ws_seen = false;
            r.evicted = false;
          }
          break;
        }
        case 9: {  // ws tag on a touch
          if (!ref.present) break;
          pte.set_ws_seen();
          pte.set_last_ref(now);
          ref.ws_seen = true;
          ref.last_ref = now;
          break;
        }
      }
      if (op % 100 == 99) {
        expect_matches_shadow(pt, shadow);
        expect_scans_match(pt, shadow, rng);
        expect_tail_bits_zero(pt);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace apsim
