// Unit tests for the VMM: fault paths, read-ahead, watermark reclaim, swap
// cache semantics, prefetch, background writeback, working-set accounting,
// and the eviction observer — the substrate the adaptive mechanisms drive.
// The second half injects disk errors and tears processes down mid-transfer
// to pin how each page-I/O path ends when a transfer fails or its owner dies.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "mem/vmm.hpp"

namespace apsim {
namespace {

struct VmmFixture : ::testing::Test {
  static VmmParams small_params() {
    VmmParams p;
    p.total_frames = 128;
    p.freepages_min = 8;
    p.freepages_low = 12;
    p.freepages_high = 16;
    p.page_cluster = 8;
    return p;
  }

  Simulator sim;
  Disk disk{sim, DiskParams{.num_blocks = 1 << 16}};
  SwapDevice swap{disk, 0, 1 << 16};
  Vmm vmm{sim, swap, small_params()};

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

  /// Force eviction of everything evictable down to `target` free frames.
  void force_free(std::int64_t target) {
    bool done = false;
    vmm.request_free_frames(target, [&] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }
};

TEST_F(VmmFixture, MinorFaultPopulatesPage) {
  const Pid pid = vmm.create_process(64);
  ASSERT_TRUE(sync_fault(pid, 5, false));
  const auto& as = vmm.space(pid);
  const auto pte = as.page_table().at(5);
  EXPECT_TRUE(pte.present());
  EXPECT_TRUE(pte.dirty());  // anonymous pages are born dirty
  EXPECT_TRUE(pte.ever_touched());
  EXPECT_EQ(as.resident_pages(), 1);
  EXPECT_EQ(as.dirty_pages(), 1);
  EXPECT_EQ(as.stats().minor_faults, 1u);
  EXPECT_EQ(as.stats().major_faults, 0u);
}

TEST_F(VmmFixture, TouchMissesWhenNotPresent) {
  const Pid pid = vmm.create_process(64);
  EXPECT_FALSE(vmm.touch(pid, 0, false));
}

TEST_F(VmmFixture, TouchHitUpdatesBits) {
  const Pid pid = vmm.create_process(64);
  ASSERT_TRUE(sync_fault(pid, 0, false));
  EXPECT_TRUE(vmm.touch(pid, 0, false));
  const auto pte = vmm.space(pid).page_table().at(0);
  EXPECT_TRUE(pte.referenced());
}

TEST_F(VmmFixture, EvictionWritesDirtyPagesAndUnmaps) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 120);
  const auto before = vmm.space(pid).resident_pages();
  force_free(64);
  EXPECT_LT(vmm.space(pid).resident_pages(), before);
  EXPECT_GE(vmm.free_frames(), 64);
  EXPECT_GT(vmm.space(pid).stats().pages_swapped_out, 0u);
  EXPECT_GT(disk.stats().blocks_written, 0u);
}

TEST_F(VmmFixture, MajorFaultRestoresEvictedPage) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 120);
  force_free(64);
  // Find an evicted page.
  VPage victim = -1;
  for (VPage v = 0; v < 120; ++v) {
    const auto pte = vmm.space(pid).page_table().at(v);
    if (!pte.present() && pte.slot() != kNoSwapSlot) {
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  ASSERT_TRUE(sync_fault(pid, victim, false));
  const auto pte = vmm.space(pid).page_table().at(victim);
  EXPECT_TRUE(pte.present());
  EXPECT_FALSE(pte.dirty());                 // clean copy from swap
  EXPECT_NE(pte.slot(), kNoSwapSlot);        // swap-cache copy retained
  EXPECT_GT(vmm.space(pid).stats().major_faults, 0u);
  EXPECT_GT(vmm.space(pid).stats().pages_swapped_in, 0u);
}

TEST_F(VmmFixture, ReadAheadBringsNeighbours) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 64);
  force_free(128);  // evict everything (slots stay sequential)
  const auto& as = vmm.space(pid);
  ASSERT_EQ(as.resident_pages(), 0);
  const auto in_before = as.stats().pages_swapped_in;
  ASSERT_TRUE(sync_fault(pid, 30, false));
  // One fault must have pulled a cluster (8), not a single page.
  EXPECT_GE(as.stats().pages_swapped_in - in_before, 4u);
  EXPECT_GT(as.resident_pages(), 1);
  // Only the faulting page is referenced.
  EXPECT_TRUE(as.page_table().at(30).referenced());
}

TEST_F(VmmFixture, ReadAheadStopsAtTheBottomOfTheSwapArea) {
  // Page 5 holds slot 0, and page 4 below it was never touched. The
  // backward read-ahead from slot 0 asks for slot -1, which is also the
  // "no slot" value of a never-swapped page: page 4 must not be read from
  // below the swap area and mapped without its zero-fill fault.
  const Pid pid = vmm.create_process(64);
  populate(pid, 5, 6);
  populate(pid, 40, 42);
  force_free(128);
  const auto& as = vmm.space(pid);
  ASSERT_EQ(as.resident_pages(), 0);
  ASSERT_EQ(as.page_table().at(5).slot(), 0);
  ASSERT_EQ(as.page_table().at(4).slot(), kNoSwapSlot);
  ASSERT_EQ(as.stats().minor_faults, 3u);

  ASSERT_TRUE(sync_fault(pid, 5, false));
  EXPECT_TRUE(as.page_table().at(5).present());
  EXPECT_FALSE(as.page_table().at(4).present());
  EXPECT_EQ(as.resident_pages(), 1);
  EXPECT_EQ(as.stats().pages_swapped_in, 1u);

  // Page 4's first touch is a zero-fill minor fault.
  EXPECT_FALSE(vmm.touch(pid, 4, false));
  ASSERT_TRUE(sync_fault(pid, 4, false));
  EXPECT_EQ(as.stats().minor_faults, 4u);
  EXPECT_TRUE(as.page_table().at(4).ever_touched());
}

TEST_F(VmmFixture, WriteTouchInvalidatesSwapCopy) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 100);
  force_free(64);
  VPage victim = -1;
  for (VPage v = 0; v < 100; ++v) {
    if (!vmm.space(pid).page_table().at(v).present()) {
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  ASSERT_TRUE(sync_fault(pid, victim, false));
  const SwapSlot slot = vmm.space(pid).page_table().at(victim).slot();
  ASSERT_NE(slot, kNoSwapSlot);
  ASSERT_TRUE(swap.is_allocated(slot));
  EXPECT_TRUE(vmm.touch(pid, victim, true));  // dirty it
  const auto pte = vmm.space(pid).page_table().at(victim);
  EXPECT_TRUE(pte.dirty());
  EXPECT_EQ(pte.slot(), kNoSwapSlot);
  EXPECT_FALSE(swap.is_allocated(slot));  // slot was released
}

TEST_F(VmmFixture, CleanPagesDropWithoutDiskWrites) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 100);
  force_free(128);  // evict everything: all pages now clean copies in swap
  ASSERT_EQ(vmm.space(pid).resident_pages(), 0);
  // Fault half of them back in, read-only: resident but clean.
  for (VPage v = 0; v < 50; ++v) {
    if (!vmm.space(pid).page_table().at(v).present()) {
      ASSERT_TRUE(sync_fault(pid, v, false));
    }
  }
  ASSERT_EQ(vmm.space(pid).dirty_pages(), 0);
  const auto writes_before = disk.stats().blocks_written;
  const auto drops_before = vmm.space(pid).stats().pages_clean_dropped;
  force_free(128);  // evict them again
  EXPECT_GT(vmm.space(pid).stats().pages_clean_dropped, drops_before);
  // Every page had a valid swap copy: no disk writes needed.
  EXPECT_EQ(disk.stats().blocks_written, writes_before);
}

TEST_F(VmmFixture, PrefetchMapsRecordedRuns) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 100);
  force_free(128);  // evict everything
  ASSERT_EQ(vmm.space(pid).resident_pages(), 0);
  bool done = false;
  vmm.prefetch(pid, {PageRun{0, 50}}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(vmm.space(pid).resident_pages(), 50);
  for (VPage v = 0; v < 50; ++v) {
    EXPECT_TRUE(vmm.space(pid).page_table().at(v).present()) << v;
  }
}

TEST_F(VmmFixture, PrefetchSkipsResidentAndUnswappedPages) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 10);  // resident, never swapped
  bool done = false;
  const auto reads_before = disk.stats().blocks_read;
  vmm.prefetch(pid, {PageRun{0, 20}}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(disk.stats().blocks_read, reads_before);  // nothing to read
}

TEST_F(VmmFixture, PrefetchUsesLargeBlockReads) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 100);
  force_free(128);
  const auto services_before = disk.stats().services;
  bool done = false;
  vmm.prefetch(pid, {PageRun{0, 100}}, [&] { done = true; });
  sim.run();
  ASSERT_TRUE(done);
  const auto services = disk.stats().services - services_before;
  // 100 pages must arrive in a handful of transfers, not 100.
  EXPECT_LE(services, 12u);
}

TEST_F(VmmFixture, WritebackCleansWithoutUnmapping) {
  const Pid pid = vmm.create_process(64);
  populate(pid, 0, 40);
  ASSERT_EQ(vmm.space(pid).dirty_pages(), 40);
  std::int64_t started = -1;
  vmm.writeback_dirty(pid, 16, IoPriority::kBackground,
                      [&](std::int64_t n) { started = n; });
  sim.run();
  EXPECT_EQ(started, 16);
  const auto& as = vmm.space(pid);
  EXPECT_EQ(as.resident_pages(), 40);   // still mapped
  EXPECT_EQ(as.dirty_pages(), 24);      // 16 cleaned
  EXPECT_EQ(as.stats().pages_swapped_out, 16u);
  std::int64_t with_slots = 0;
  for (VPage v = 0; v < 40; ++v) {
    const auto pte = as.page_table().at(v);
    if (pte.present() && !pte.dirty() && pte.slot() != kNoSwapSlot) ++with_slots;
  }
  EXPECT_EQ(with_slots, 16);
}

TEST_F(VmmFixture, RedirtyDuringWritebackInvalidatesCopy) {
  const Pid pid = vmm.create_process(64);
  populate(pid, 0, 8);
  vmm.writeback_dirty(pid, 8, IoPriority::kForeground, nullptr);
  // The writes are now in flight; re-dirty page 3 before they complete.
  EXPECT_TRUE(vmm.touch(pid, 3, true));
  sim.run();
  const auto pte = vmm.space(pid).page_table().at(3);
  EXPECT_TRUE(pte.present());
  EXPECT_TRUE(pte.dirty());
  EXPECT_EQ(pte.slot(), kNoSwapSlot);  // stale copy released
  // Its neighbours were cleaned normally.
  EXPECT_FALSE(vmm.space(pid).page_table().at(4).dirty());
  EXPECT_NE(vmm.space(pid).page_table().at(4).slot(), kNoSwapSlot);
}

TEST_F(VmmFixture, WsEpochCountsDistinctPages) {
  const Pid pid = vmm.create_process(64);
  populate(pid, 0, 20);
  vmm.begin_ws_epoch(pid);
  EXPECT_EQ(vmm.space(pid).ws_pages(), 0);
  for (VPage v = 0; v < 10; ++v) EXPECT_TRUE(vmm.touch(pid, v, false));
  for (VPage v = 0; v < 10; ++v) EXPECT_TRUE(vmm.touch(pid, v, true));
  EXPECT_EQ(vmm.space(pid).ws_pages(), 10);  // distinct, not total
  vmm.begin_ws_epoch(pid);
  EXPECT_EQ(vmm.space(pid).ws_pages(), 0);
}

TEST_F(VmmFixture, EvictObserverSeesEvictions) {
  const Pid pid = vmm.create_process(256);
  std::set<VPage> seen;
  vmm.set_evict_observer([&](Pid p, VPage v) {
    EXPECT_EQ(p, pid);
    seen.insert(v);
  });
  populate(pid, 0, 120);
  force_free(64);
  EXPECT_GE(std::ssize(seen), 40);
}

TEST_F(VmmFixture, FalseEvictionDetectedWithinEpoch) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 120);
  force_free(64);  // evicts within the current epoch
  VPage victim = -1;
  for (VPage v = 0; v < 120; ++v) {
    if (!vmm.space(pid).page_table().at(v).present()) {
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  ASSERT_TRUE(sync_fault(pid, victim, false));
  EXPECT_GE(vmm.space(pid).stats().false_evictions, 1u);
  // After an epoch boundary, refaults are not false evictions.
  force_free(64);
  vmm.begin_ws_epoch(pid);
  VPage victim2 = -1;
  for (VPage v = 0; v < 120; ++v) {
    if (!vmm.space(pid).page_table().at(v).present() &&
        vmm.space(pid).page_table().at(v).slot() != kNoSwapSlot) {
      victim2 = v;
      break;
    }
  }
  ASSERT_GE(victim2, 0);
  const auto fe_before = vmm.space(pid).stats().false_evictions;
  ASSERT_TRUE(sync_fault(pid, victim2, false));
  EXPECT_EQ(vmm.space(pid).stats().false_evictions, fe_before);
}

TEST_F(VmmFixture, ReleaseProcessFreesFramesAndSlots) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 100);
  force_free(64);
  const auto used_slots_before = swap.used_slots();
  EXPECT_GT(used_slots_before, 0);
  vmm.release_process(pid);
  sim.run();
  EXPECT_EQ(swap.used_slots(), 0);
  EXPECT_EQ(vmm.free_frames(), vmm.frames().usable_frames());
  EXPECT_FALSE(vmm.space(pid).alive());
}

TEST_F(VmmFixture, RequestFreeFramesImmediateWhenSatisfied) {
  (void)vmm.create_process(16);
  bool done = false;
  vmm.request_free_frames(16, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST_F(VmmFixture, ConcurrentFaultsOnSamePagePiggyback) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 64);
  force_free(128);
  ASSERT_FALSE(vmm.space(pid).page_table().at(10).present());
  int resumed = 0;
  const auto reads_before = disk.stats().blocks_read;
  vmm.fault(pid, 10, false, [&] { ++resumed; });
  vmm.fault(pid, 10, true, [&] { ++resumed; });
  sim.run();
  EXPECT_EQ(resumed, 2);
  // The second fault must not have issued a second read of page 10: at most
  // one cluster's worth of blocks.
  EXPECT_LE(disk.stats().blocks_read - reads_before,
            static_cast<std::uint64_t>(small_params().page_cluster));
}

TEST_F(VmmFixture, PrefetchUnderMemoryPressureReclaimsAsItGoes) {
  // Two processes: evict A fully, let B occupy nearly all memory, then
  // prefetch A's recorded set — the pump must interleave reclaim (of B)
  // with its reads instead of giving up.
  const Pid a = vmm.create_process(256);
  populate(a, 0, 100);
  force_free(128);
  ASSERT_EQ(vmm.space(a).resident_pages(), 0);
  const Pid b = vmm.create_process(256);
  populate(b, 0, 110);  // nearly fills the 128 frames
  bool done = false;
  vmm.prefetch(a, {PageRun{0, 100}}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(vmm.space(a).resident_pages(), 50);
  EXPECT_LT(vmm.space(b).resident_pages(), 110);  // B was reclaimed
}

TEST_F(VmmFixture, ReadAheadDoesNotCrossNonContiguousSlots) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 40);
  force_free(128);
  // Punch a hole in the swap contiguity: re-fault page 20 alone, dirty it
  // (frees its slot), evict again — it gets a fresh, distant-ish slot.
  ASSERT_TRUE(sync_fault(pid, 20, true));
  force_free(128);
  const auto p19 = vmm.space(pid).page_table().at(19);
  const auto p20 = vmm.space(pid).page_table().at(20);
  ASSERT_NE(p19.slot(), kNoSwapSlot);
  ASSERT_NE(p20.slot(), kNoSwapSlot);
  ASSERT_NE(p20.slot(), p19.slot() + 1);
  // Fault page 16: the read-ahead cluster must stop before page 20.
  ASSERT_TRUE(sync_fault(pid, 16, false));
  EXPECT_FALSE(vmm.space(pid).page_table().at(20).present());
}

TEST_F(VmmFixture, WatermarkKeepsMinimumFreePool) {
  const Pid pid = vmm.create_process(512);
  populate(pid, 0, 400);  // far beyond physical memory
  EXPECT_GE(vmm.free_frames(), small_params().freepages_min);
  EXPECT_GT(vmm.space(pid).stats().pages_swapped_out, 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint capture

/// The page-at-a-time capture snapshot_image used before its word walk: one
/// next_live call per live page, extending the last run when contiguous.
std::pair<std::vector<PageRun>, std::int64_t> live_runs_by_page(
    const PageTable& pt) {
  std::vector<PageRun> runs;
  std::int64_t live = 0;
  for (VPage v = pt.next_live(0); v < pt.num_pages(); v = pt.next_live(v + 1)) {
    ++live;
    if (!runs.empty() && runs.back().start + runs.back().count == v) {
      ++runs.back().count;
    } else {
      runs.push_back({v, 1});
    }
  }
  return {runs, live};
}

TEST_F(VmmFixture, SnapshotImageMatchesAPageLoopOnRandomBitmaps) {
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const std::int64_t npages : {1, 63, 64, 65, 4097}) {
    const Pid pid = vmm.create_process(npages);
    PageTable& pt = vmm.space(pid).page_table();
    PageTable::Meta& m = pt.rw();
    for (const double density : {0.0, 0.01, 0.5, 0.99, 1.0}) {
      for (int shape = 0; shape < 12; ++shape) {
        SCOPED_TRACE(testing::Message() << npages << " pages, density "
                                        << density << ", shape " << shape);
        std::fill(m.present.begin(), m.present.end(), 0);
        std::fill(m.has_slot.begin(), m.has_slot.end(), 0);
        // A live page is resident, holds a swap copy, or both; bits past
        // num_pages() stay zero, as the table guarantees.
        auto set_live = [&](VPage v) {
          const auto kind = rng() % 3;
          if (kind != 1) m.present[page_word(v)] |= page_bit(v);
          if (kind != 0) m.has_slot[page_word(v)] |= page_bit(v);
        };
        for (VPage v = 0; v < npages; ++v) {
          if (unit(rng) < density) set_live(v);
        }
        if (shape % 2 == 1) {
          set_live(0);
          set_live(npages - 1);
        }
        if (shape % 3 == 2) {
          // A run across every word boundary, and whole live words.
          for (VPage b = 64; b < npages; b += 64) {
            for (VPage v = b - 3; v < std::min(npages, b + 3); ++v) set_live(v);
          }
          for (VPage v = 128; v < std::min<VPage>(npages, 256); ++v) set_live(v);
        }
        const auto [runs, live] = live_runs_by_page(pt);
        const Vmm::ImageSnapshot snap = vmm.snapshot_image(pid);
        EXPECT_EQ(snap.live_pages, live);
        EXPECT_EQ(snap.live, runs);
        EXPECT_EQ(snap.dirty_pages, 0);
      }
    }
    std::fill(m.present.begin(), m.present.end(), 0);
    std::fill(m.has_slot.begin(), m.has_slot.end(), 0);
  }
}

// ---------------------------------------------------------------------------
// Failed transfers and teardown with I/O in flight

struct FaultyVmmFixture : VmmFixture {
  FaultyVmmFixture() { vmm.log().set_level(LogLevel::kOff); }

  /// Every disk service that starts in [start, end) completes with an error.
  void fail_disk(SimTime start, SimTime end) {
    FaultSpec spec = FaultSpec::parse("disk_transient p=1");
    spec.start = start;
    spec.end = end;
    FaultPlan plan;
    plan.add(spec);
    injector = std::make_unique<FaultInjector>(sim, plan);
    disk.set_fault_injector(injector.get(), /*node=*/0);
  }

  /// Fail only the services that start at the current instant.
  void fail_disk_now() { fail_disk(sim.now(), sim.now() + 1); }

  /// A process whose pages [0, 64) were written once and then all evicted,
  /// to consecutive swap slots.
  Pid swapped_out_process() {
    const Pid pid = vmm.create_process(256);
    populate(pid, 0, 64);
    force_free(128);
    const auto& pt = vmm.space(pid).page_table();
    EXPECT_EQ(vmm.space(pid).resident_pages(), 0);
    for (VPage v = 1; v < 64; ++v) {
      EXPECT_EQ(pt.at(v).slot(), pt.at(0).slot() + v) << v;
    }
    return pid;
  }

  /// Ask the reclaimer for one more free frame, and stop asking once
  /// \p enough holds (a failed write keeps the frame in use, so an
  /// unconditional request would retry forever).
  void reclaim_one(std::function<bool()> enough) {
    vmm.request_free_frames(vmm.free_frames() + 1, [] {},
                            /*best_effort=*/true, std::move(enough));
  }

  [[nodiscard]] ConstPte pte(Pid pid, VPage v) const {
    return vmm.space(pid).page_table().at(v);
  }

  /// Release every live process, let in-flight I/O land, and check that
  /// every frame, swap slot and piggybacked-fault list came back.
  void expect_clean_teardown() {
    for (Pid pid : vmm.pids()) {
      if (vmm.space(pid).alive()) vmm.release_process(pid);
    }
    sim.run();
    EXPECT_EQ(vmm.free_frames(), vmm.frames().usable_frames());
    EXPECT_EQ(swap.used_slots(), 0);
    EXPECT_EQ(vmm.pages_with_io_waiters(), 0u);
  }

  std::unique_ptr<FaultInjector> injector;
};

TEST_F(FaultyVmmFixture, DemandReadRetriesATransientError) {
  const Pid pid = swapped_out_process();
  fail_disk_now();
  ASSERT_TRUE(sync_fault(pid, 10));
  EXPECT_EQ(vmm.stats().io_read_failures, 1u);
  EXPECT_EQ(vmm.stats().io_retries, 1u);
  EXPECT_EQ(vmm.stats().pages_unrecoverable, 0u);
  EXPECT_TRUE(pte(pid, 10).present());
  EXPECT_FALSE(pte(pid, 10).io_busy());
  EXPECT_EQ(vmm.space(pid).stats().major_faults, 1u);
  expect_clean_teardown();
}

TEST_F(FaultyVmmFixture, DemandReadRetryExhaustionIsUnrecoverable) {
  const Pid pid = swapped_out_process();
  int failures = 0;
  vmm.set_failure_handler([&](Pid p, VPage v, Vmm::PageFailure why) {
    ++failures;
    EXPECT_EQ(p, pid);
    EXPECT_EQ(v, 10);
    EXPECT_EQ(why, Vmm::PageFailure::kIoError);
  });
  const auto free_before = vmm.free_frames();
  const auto slots_before = swap.used_slots();
  fail_disk(sim.now(), sim.now() + kMinute);
  EXPECT_FALSE(sync_fault(pid, 10));  // the faulting process never resumes
  EXPECT_EQ(vmm.stats().pages_unrecoverable, 1u);
  EXPECT_EQ(vmm.stats().io_retries,
            static_cast<std::uint64_t>(small_params().io_retry_limit));
  EXPECT_EQ(failures, 1);
  // The reserved frames came back; the live owner keeps every swap copy.
  EXPECT_EQ(vmm.free_frames(), free_before);
  EXPECT_EQ(swap.used_slots(), slots_before);
  for (VPage v = 0; v < 64; ++v) {
    EXPECT_FALSE(pte(pid, v).present()) << v;
    EXPECT_FALSE(pte(pid, v).io_busy()) << v;
    EXPECT_TRUE(swap.is_allocated(pte(pid, v).slot())) << v;
  }
  expect_clean_teardown();
}

TEST_F(FaultyVmmFixture, FailedPrefetchEscalatesPiggybackedFaultAndAborts) {
  const Pid pid = swapped_out_process();
  fail_disk_now();
  int done = 0;
  vmm.prefetch(pid, {PageRun{0, 32}}, [&] { ++done; });
  ASSERT_TRUE(pte(pid, 5).io_busy());  // one 32-page read is in flight
  bool resumed = false;
  vmm.fault(pid, 5, false, [&] { resumed = true; });  // piggybacks on it
  sim.run();
  EXPECT_EQ(vmm.stats().prefetch_aborts, 1u);
  EXPECT_EQ(done, 1);
  // The piggybacked page was re-read in the foreground and mapped.
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(pte(pid, 5).present());
  // The other pages gave their frames back and kept their swap copies.
  for (VPage v = 0; v < 32; ++v) {
    if (v == 5) continue;
    EXPECT_FALSE(pte(pid, v).present()) << v;
    EXPECT_FALSE(pte(pid, v).io_busy()) << v;
    EXPECT_TRUE(swap.is_allocated(pte(pid, v).slot())) << v;
  }
  EXPECT_EQ(vmm.space(pid).resident_pages(), 1);
  EXPECT_EQ(vmm.free_frames(), vmm.frames().usable_frames() - 1);
  expect_clean_teardown();
}

TEST_F(FaultyVmmFixture, FailedEvictionWriteKeepsThePageDirty) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 100);
  VPage victim = -1;
  vmm.set_evict_observer([&](Pid, VPage v) { victim = v; });
  fail_disk(sim.now(), sim.now() + 60 * kMinute);
  reclaim_one([&] { return vmm.stats().io_write_failures >= 1; });
  sim.run();
  ASSERT_GE(victim, 0);
  EXPECT_EQ(vmm.stats().io_write_failures, 1u);
  EXPECT_TRUE(pte(pid, victim).present());
  EXPECT_TRUE(pte(pid, victim).dirty());
  EXPECT_FALSE(pte(pid, victim).io_busy());
  EXPECT_EQ(pte(pid, victim).slot(), kNoSwapSlot);
  EXPECT_EQ(swap.used_slots(), 0);  // the never-written slot was freed
  EXPECT_EQ(vmm.space(pid).resident_pages(), 100);
  EXPECT_EQ(vmm.space(pid).dirty_pages(), 100);
  EXPECT_EQ(vmm.space(pid).stats().pages_swapped_out, 0u);
  expect_clean_teardown();
}

TEST_F(FaultyVmmFixture, EvictionWriteFailureStreakStallsReclaimUntilAGoodWrite) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 100);
  fail_disk(sim.now(), sim.now() + 60 * kMinute);
  const int limit = small_params().write_failure_streak_limit;
  for (int i = 1; i <= limit; ++i) {
    EXPECT_FALSE(vmm.reclaim_stalled()) << i;
    reclaim_one([&, i] {
      return vmm.stats().io_write_failures >= static_cast<std::uint64_t>(i);
    });
    sim.run();
    EXPECT_EQ(vmm.stats().io_write_failures, static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(vmm.reclaim_stalled());
  disk.set_fault_injector(nullptr, 0);
  const auto free_before = vmm.free_frames();
  reclaim_one([] { return false; });
  sim.run();
  EXPECT_FALSE(vmm.reclaim_stalled());
  EXPECT_EQ(vmm.free_frames(), free_before + 1);
  EXPECT_EQ(vmm.space(pid).stats().pages_swapped_out, 1u);
  expect_clean_teardown();
}

TEST_F(FaultyVmmFixture, FailedWritebackKeepsPagesMappedAndDirty) {
  const Pid pid = vmm.create_process(64);
  populate(pid, 0, 40);
  fail_disk_now();
  std::int64_t started = -1;
  vmm.writeback_dirty(pid, 8, IoPriority::kForeground,
                      [&](std::int64_t n) { started = n; });
  sim.run();
  EXPECT_EQ(started, 8);
  EXPECT_EQ(vmm.stats().io_write_failures, 1u);
  for (VPage v = 0; v < 8; ++v) {
    EXPECT_TRUE(pte(pid, v).present()) << v;
    EXPECT_TRUE(pte(pid, v).dirty()) << v;
    EXPECT_FALSE(pte(pid, v).io_busy()) << v;
    EXPECT_EQ(pte(pid, v).slot(), kNoSwapSlot) << v;
  }
  EXPECT_EQ(swap.used_slots(), 0);
  EXPECT_EQ(vmm.space(pid).resident_pages(), 40);
  EXPECT_EQ(vmm.space(pid).dirty_pages(), 40);
  EXPECT_EQ(vmm.space(pid).stats().pages_swapped_out, 0u);
  EXPECT_FALSE(vmm.reclaim_stalled());  // background writes do not stall reclaim
  expect_clean_teardown();
}

TEST_F(FaultyVmmFixture, RedirtyDuringEvictionWriteCancelsTheEviction) {
  const Pid pid = vmm.create_process(256);
  populate(pid, 0, 100);
  VPage victim = -1;
  vmm.set_evict_observer([&](Pid, VPage v) { victim = v; });
  reclaim_one([&] { return victim >= 0; });
  (void)sim.run(sim.now());  // the write is issued, not yet landed
  ASSERT_GE(victim, 0);
  ASSERT_TRUE(pte(pid, victim).io_busy());
  const SwapSlot slot = pte(pid, victim).slot();
  ASSERT_NE(slot, kNoSwapSlot);
  EXPECT_TRUE(vmm.touch(pid, victim, true));  // re-dirty mid-write
  sim.run();
  EXPECT_TRUE(pte(pid, victim).present());
  EXPECT_TRUE(pte(pid, victim).dirty());
  EXPECT_FALSE(pte(pid, victim).io_busy());
  EXPECT_EQ(pte(pid, victim).slot(), kNoSwapSlot);
  EXPECT_FALSE(swap.is_allocated(slot));  // the stale copy was freed
  EXPECT_EQ(vmm.space(pid).resident_pages(), 100);
  expect_clean_teardown();
}

TEST_F(FaultyVmmFixture, ReleaseWithDemandAndPrefetchReadsInFlight) {
  const Pid pid = swapped_out_process();
  int done = 0;
  vmm.prefetch(pid, {PageRun{32, 16}}, [&] { ++done; });
  bool resumed = false;
  vmm.fault(pid, 5, false, [&] { resumed = true; });
  ASSERT_TRUE(pte(pid, 5).io_busy());
  ASSERT_TRUE(pte(pid, 32).io_busy());
  vmm.release_process(pid);
  expect_clean_teardown();
  EXPECT_FALSE(resumed);
  EXPECT_EQ(done, 1);
}

TEST_F(FaultyVmmFixture, ReleaseDropsFaultsPiggybackedOnAnInFlightRead) {
  const Pid pid = swapped_out_process();
  int resumed = 0;
  vmm.fault(pid, 10, false, [&] { ++resumed; });  // issues the read
  vmm.fault(pid, 10, true, [&] { ++resumed; });   // piggybacks on it
  ASSERT_EQ(vmm.pages_with_io_waiters(), 1u);
  vmm.release_process(pid);
  expect_clean_teardown();  // the landing drops the piggybacked fault too
  EXPECT_EQ(resumed, 0);
}

}  // namespace
}  // namespace apsim
