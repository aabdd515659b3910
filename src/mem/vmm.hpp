#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "disk/swap_device.hpp"
#include "mem/frame_table.hpp"
#include "mem/page_table.hpp"
#include "mem/reclaim.hpp"
#include "mem/touch_plan.hpp"
#include "metrics/tracer.hpp"
#include "sim/log.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

/// \file vmm.hpp
/// Per-node virtual-memory manager modelling the Linux 2.2 paging machinery
/// the paper modifies: demand paging with zero-fill minor faults, swap-backed
/// major faults with cluster read-ahead, watermark-driven reclaim
/// (freepages.min / low / high), a kswapd-style background reclaimer, and a
/// swap cache (a clean page may keep a valid swap copy, making its eviction
/// free). The adaptive mechanisms in src/core drive this class exclusively
/// through its public hooks: pluggable reclaim policy, explicit reclaim
/// requests, prefetch (artificial faults), dirty-page writeback and the
/// eviction observer.

namespace apsim {

class TierManager;

struct VmmParams {
  /// Physical frames on the node (before wiring).
  std::int64_t total_frames = mb_to_pages(1024.0);

  /// Watermarks, in frames (Linux 2.2 freepages.min/low/high analogues).
  std::int64_t freepages_min = 256;
  std::int64_t freepages_low = 512;
  std::int64_t freepages_high = 768;

  /// Swap read-ahead: pages fetched per major fault (Linux 2.2 default 16).
  std::int64_t page_cluster = 16;

  /// Victims requested from the policy per reclaim step.
  std::int64_t reclaim_batch = 32;

  /// Longest contiguous run a single prefetch read may use.
  std::int64_t max_prefetch_run = 512;

  /// Longest contiguous swap-slot run sought when writing out a batch.
  std::int64_t max_writeout_run = 512;

  /// Page aging (Linux 2.2's PG_age): when enabled, the clock sweep ages
  /// pages down by age_decline per encounter and up by age_advance per
  /// observed reference, evicting only at age 0 — giving recently-used (and
  /// freshly mapped) pages several sweeps of protection instead of the
  /// one-bit second chance. Default off: the shipped calibration models the
  /// plain referenced-bit clock.
  bool page_aging = false;
  std::uint8_t age_initial = 3;
  std::uint8_t age_advance = 3;
  std::uint8_t age_max = 20;
  std::uint8_t age_decline = 1;

  /// CPU cost of a zero-fill (minor) fault.
  SimDuration minor_fault_cost = 3 * kMicrosecond;

  /// Kernel CPU overhead of a major fault, excluding disk time.
  SimDuration major_fault_cpu = 8 * kMicrosecond;

  /// Transient-I/O recovery: a failed demand/read-ahead swap read is retried
  /// with capped exponential backoff (base, base*2, base*4, ... up to cap)
  /// at most io_retry_limit times before the page is declared unrecoverable.
  int io_retry_limit = 4;
  SimDuration io_retry_base = 5 * kMillisecond;
  SimDuration io_retry_cap = 80 * kMillisecond;

  /// Faults that keep retrying while reclaim is stalled (swap exhausted or
  /// the device persistently failing) are abandoned after this many 1 ms
  /// retries instead of looping forever.
  int stalled_fault_retry_limit = 200;

  /// Consecutive failed eviction write-outs before the reclaimer reports
  /// itself stalled (stops the kswapd goal; demand waiters still probe).
  int write_failure_streak_limit = 3;
};

/// Per-process memory state owned by the VMM.
class AddressSpace {
 public:
  AddressSpace(Pid pid, std::int64_t num_pages)
      : pid_(pid), pt_(num_pages) {}

  [[nodiscard]] Pid pid() const { return pid_; }
  [[nodiscard]] PageTable& page_table() { return pt_; }
  [[nodiscard]] const PageTable& page_table() const { return pt_; }
  [[nodiscard]] std::int64_t num_pages() const { return pt_.num_pages(); }
  [[nodiscard]] std::int64_t resident_pages() const { return resident_; }
  [[nodiscard]] std::int64_t dirty_pages() const { return dirty_resident_; }
  [[nodiscard]] bool alive() const { return alive_; }

  /// Distinct pages touched since the last begin_ws_epoch() call; this is
  /// the kernel-side working-set estimate the paper's API consumes.
  [[nodiscard]] std::int64_t ws_pages() const { return ws_pages_; }

  struct Stats {
    std::uint64_t minor_faults = 0;
    std::uint64_t major_faults = 0;
    std::uint64_t pages_swapped_in = 0;   ///< pages read from swap
    std::uint64_t pages_swapped_out = 0;  ///< pages written to swap (evict)
    std::uint64_t pages_clean_dropped = 0;
    std::uint64_t false_evictions = 0;    ///< evicted then re-faulted within one quantum
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  friend class Vmm;

  Pid pid_;
  PageTable pt_;
  std::int64_t resident_ = 0;
  std::int64_t dirty_resident_ = 0;
  std::int64_t ws_pages_ = 0;
  VPage writeback_hand_ = 0;  ///< background-writer sweep position
  bool alive_ = true;
  Stats stats_;
};

/// A contiguous run of virtual pages [start, start + count).
struct PageRun {
  VPage start = 0;
  std::int64_t count = 0;

  friend bool operator==(const PageRun&, const PageRun&) = default;
};

class Vmm {
 public:
  Vmm(Simulator& sim, SwapDevice& swap, VmmParams params);

  Vmm(const Vmm&) = delete;
  Vmm& operator=(const Vmm&) = delete;

  // ---- process lifecycle ----

  /// Register a process with an anonymous address space of \p num_pages.
  Pid create_process(std::int64_t num_pages);

  /// Tear down a process: unmap resident pages and release swap slots.
  /// Pages with in-flight I/O are reaped when that I/O lands, and faults
  /// piggybacked on an in-flight read are dropped then.
  void release_process(Pid pid);

  [[nodiscard]] AddressSpace& space(Pid pid);
  [[nodiscard]] const AddressSpace& space(Pid pid) const;
  [[nodiscard]] const std::vector<Pid>& pids() const { return pids_; }

  // ---- the hot path used by the CPU executor ----

  /// Reference a page. Returns true and updates referenced/dirty/age bits if
  /// the page is resident; returns false (caller must fault()) otherwise.
  [[nodiscard]] bool touch(Pid pid, VPage vpage, bool write);

  /// Hot-path overload for callers that cache the AddressSpace pointer.
  [[nodiscard]] bool touch(AddressSpace& as, VPage vpage, bool write);

  /// Result of a batched touch run.
  struct TouchRun {
    std::int64_t consumed = 0;  ///< touches applied before stopping
    VPage fault_page = -1;      ///< first non-resident page (when faulted)
    bool faulted = false;
  };

  /// Batched touch engine: apply touches [begin, begin + budget) of \p plan
  /// in one call. Stops at the first non-resident page (consumed = touches
  /// applied before it, fault_page = the page the caller must fault()).
  /// Observable state after the call — referenced/dirty/age bits, last_ref,
  /// ws-epoch counts, dirty accounting, swap-slot frees and their order — is
  /// bit-identical to calling the scalar touch() once per touch: all touches
  /// in a run happen at one instant of simulated time, so per-page effects
  /// are idempotent and the engine may apply them once per distinct page in
  /// first-touch order. Sequential and strided plans walk one period of
  /// their orbit and stop at its first absent page; a step-1 orbit does so
  /// a bitmap word (64 pages) at a time.
  [[nodiscard]] TouchRun touch_run(AddressSpace& as, const TouchPlan& plan,
                                   std::int64_t begin, std::int64_t budget);

  /// Handle a fault on a non-resident page. \p resume runs (via an event)
  /// once the page is mapped; the caller keeps the process blocked until
  /// then. Covers minor (zero-fill) and major (swap read + read-ahead)
  /// faults, and piggybacks on in-flight I/O for the same page.
  void fault(Pid pid, VPage vpage, bool write, std::function<void()> resume);

  // ---- hooks used by the adaptive mechanisms (src/core) ----

  /// Replace the victim-selection policy (selective page-out plugs in here).
  void set_reclaim_policy(std::unique_ptr<ReclaimPolicy> policy);
  [[nodiscard]] ReclaimPolicy& reclaim_policy() { return *policy_; }

  /// Ask the reclaimer to bring free_frames() up to \p target_free, then run
  /// \p done (immediately if already satisfied). This is the engine behind
  /// both the watermark path and aggressive page-out. Best-effort requests
  /// are released silently when the target becomes unreachable (aggressive
  /// page-out races the incoming process for the freed frames, so its
  /// target is advisory); strict requests warn in that case.
  void request_free_frames(std::int64_t target_free, std::function<void()> done,
                           bool best_effort = false,
                           std::function<bool()> give_up = {});

  /// Artificially fault in the given page runs (adaptive page-in replay).
  /// Pages already resident or with I/O in flight are skipped. \p done runs
  /// when every started read has landed.
  void prefetch(Pid pid, std::vector<PageRun> runs, std::function<void()> done);

  /// Write up to \p max_pages dirty resident pages of \p pid to swap without
  /// unmapping them (background writing). \p done receives the number of
  /// pages whose writes were started.
  void writeback_dirty(Pid pid, std::int64_t max_pages, IoPriority priority,
                       std::function<void(std::int64_t)> done);

  /// Observer invoked for every page evicted from memory (clean drop or
  /// write-out start); the adaptive page-in recorder attaches here.
  using EvictObserver = std::function<void(Pid, VPage)>;
  void set_evict_observer(EvictObserver observer) {
    evict_observer_ = std::move(observer);
  }

  /// Start a new working-set accounting epoch for \p pid (call at quantum
  /// start); ws_pages() then counts distinct pages touched in the new epoch.
  void begin_ws_epoch(Pid pid);

  // ---- checkpoint/restart support ----

  /// Everything a checkpoint image needs about one address space, taken at
  /// a single instant: the runs of live pages (resident or with a valid
  /// swap copy — pages that would survive to the next touch) and the live
  /// and dirty counts used for incremental checkpoint sizing.
  struct ImageSnapshot {
    std::vector<PageRun> live;
    std::int64_t live_pages = 0;
    std::int64_t dirty_pages = 0;
  };
  [[nodiscard]] ImageSnapshot snapshot_image(Pid pid) const;

  /// Stage a checkpoint image into a freshly created address space: bind
  /// the image's live page runs to the given swap-slot runs (same total
  /// length), so subsequent demand faults read them back as real major
  /// faults. The caller owns writing the image data to those slots through
  /// the disk model; the slots become pte-owned here and are released with
  /// the process as usual.
  void bind_swap_image(Pid pid, const std::vector<PageRun>& pages,
                       const std::vector<SlotRun>& slots);

  // ---- failure reporting ----

  /// Why a page became unrecoverable.
  enum class PageFailure : std::uint8_t {
    kIoError,    ///< swap read kept failing after capped-backoff retries
    kOutOfSwap,  ///< reclaim stalled (swap exhausted / unwritable) past the cap
  };

  /// Invoked (via an event) when a fault on (pid, vpage) is abandoned: the
  /// faulting process stays blocked, so the handler should kill the job.
  /// Without a handler the process simply never resumes — the queue still
  /// quiesces and the stats below make the outcome diagnosable.
  using FailureHandler = std::function<void(Pid, VPage, PageFailure)>;
  void set_failure_handler(FailureHandler handler) {
    failure_handler_ = std::move(handler);
  }

  /// Interpose the compressed swap tier on every swap read/write this VMM
  /// issues (nullptr = talk to the SwapDevice directly, the pre-tier path).
  void set_tier(TierManager* tier) { tier_ = tier; }
  [[nodiscard]] TierManager* tier() { return tier_; }

  /// Attach the run's tracer (nullptr = untraced). Fault kinds, reclaim
  /// batches and retry-ladder attempts become instants on \p track;
  /// request_free_frames waiters become async spans ending at release.
  void set_tracer(Tracer* tracer, int track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  // ---- introspection ----

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] SwapDevice& swap() { return swap_; }
  [[nodiscard]] FrameTable& frames() { return frames_; }
  [[nodiscard]] const FrameTable& frames() const { return frames_; }
  [[nodiscard]] const VmmParams& params() const { return params_; }
  [[nodiscard]] std::int64_t free_frames() const { return frames_.free_frames(); }

  /// Wire down \p n frames (mlock emulation for the experiments).
  std::int64_t wire_down(std::int64_t n) { return frames_.wire_down(n); }

  // ---- runtime actuators (adaptive control plane) ----
  //
  // Bounded re-tuning of the paging knobs while the run is live. Each
  // setter clamps to a sane range and preserves the watermark invariant
  // freepages_min <= low <= high; all take effect on the next reclaim
  // step / prefetch pump / watermark check, so the effects are
  // deterministic functions of when the controller fires them.

  void set_reclaim_batch(std::int64_t pages) {
    params_.reclaim_batch = std::max<std::int64_t>(1, pages);
  }
  void set_max_prefetch_run(std::int64_t pages) {
    params_.max_prefetch_run = std::max<std::int64_t>(1, pages);
  }
  void set_freepages_low(std::int64_t frames) {
    params_.freepages_low =
        std::clamp(frames, params_.freepages_min, params_.freepages_high);
    // Raising the watermark above the current free level means kswapd has
    // new work; kick it rather than waiting for the next fault.
    if (free_frames() < params_.freepages_low) kick_reclaim();
  }
  void set_freepages_high(std::int64_t frames) {
    params_.freepages_high = std::max(frames, params_.freepages_low);
  }

  struct Stats {
    std::uint64_t reclaim_steps = 0;
    std::uint64_t pages_scanned = 0;  ///< PTEs reclaim examined one at a time
    std::uint64_t pages_mapped = 0;   ///< present-bit sets (on_map calls)
    std::uint64_t oom_waiter_releases = 0;  ///< waiters released unsatisfied
    std::uint64_t alloc_retries = 0;        ///< frame allocation retried after delay
    std::uint64_t io_read_failures = 0;     ///< failed swap read transfers
    std::uint64_t io_write_failures = 0;    ///< failed swap write transfers
    std::uint64_t io_retries = 0;           ///< read retries after transient errors
    std::uint64_t pages_unrecoverable = 0;  ///< faults abandoned: I/O retry exhaustion
    std::uint64_t out_of_swap_faults = 0;   ///< faults abandoned: stalled reclaim
    std::uint64_t prefetch_aborts = 0;      ///< prefetch replays abandoned on error
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Reclaim policies report the page-table entries they examined here.
  void note_pages_scanned(std::uint64_t pages) {
    stats_.pages_scanned += pages;
  }

  /// True while the reclaimer cannot make progress (swap exhausted or its
  /// writes persistently failing); the adaptive pager uses this to degrade.
  [[nodiscard]] bool reclaim_stalled() const { return reclaim_stalled_; }

  /// Pages that have faults piggybacked on an in-flight read (each such
  /// page has exactly one read in flight).
  [[nodiscard]] std::size_t pages_with_io_waiters() const {
    return io_waiters_.size();
  }

  /// Pages read from swap per second (trace for Figure 6).
  [[nodiscard]] TimeSeries& pagein_series() { return pagein_series_; }
  /// Pages written to swap per second (trace for Figure 6).
  [[nodiscard]] TimeSeries& pageout_series() { return pageout_series_; }

  [[nodiscard]] Logger& log() { return log_; }

 private:
  struct Waiter {
    std::int64_t target = 0;
    std::function<void()> done;
    bool best_effort = false;
    std::function<bool()> give_up;  ///< release (satisfied-enough) when true
    TraceSpan span;  ///< ends when the waiter is released (destroyed)
  };

  // The touch rule for resident pages (see vmm.cpp). Both forms return how
  // many of the pages were first seen in this working-set epoch and leave
  // ws_pages_ to the caller.

  /// Page form: touch page \p v. Inline (defined in vmm.cpp, its only
  /// user) so the scalar touch() compiles down to bit operations.
  inline std::int64_t touch_page(AddressSpace& as,
                                 const PageTable::HotRows& rows, VPage v,
                                 SimTime now, bool write);
  /// Word form: touch the pages of \p mask in bitmap word \p w, freeing
  /// stale swap slots in ascending page order. last_ref is the caller's.
  std::int64_t touch_word(AddressSpace& as, const PageTable::HotRows& rows,
                          std::size_t w, std::uint64_t mask, bool write);

  // Fault machinery.
  void fault_impl(Pid pid, VPage vpage, bool write,
                  std::function<void()> resume, bool skip_watermark);
  void retry_fault_later(Pid pid, VPage vpage, bool write,
                         std::function<void()> resume);
  void start_major_fault(Pid pid, VPage vpage, bool write,
                         std::function<void()> resume);
  /// Issue (or re-issue, attempt > 0) the swap read for a major fault whose
  /// frames are already reserved over [lo, lo + count).
  void issue_major_read(Pid pid, VPage lo, std::int64_t count, VPage vpage,
                        bool write, std::function<void()> resume, int attempt);
  void finish_minor_fault(Pid pid, VPage vpage, bool write,
                          std::function<void()> resume);
  void add_io_waiter(Pid pid, VPage vpage, std::function<void()> resume);
  void fire_io_waiters(Pid pid, VPage vpage);
  [[nodiscard]] bool has_io_waiters(Pid pid, VPage vpage) const {
    return !io_waiters_.empty() && io_waiters_.contains({pid, vpage});
  }
  void drop_io_waiters(Pid pid, VPage vpage);
  /// Return a fired waiter list's capacity to the spare pool for reuse.
  void recycle_waiter_list(std::vector<std::function<void()>>&& list);
  /// Abandon the fault on (pid, vpage) and notify the failure handler.
  void declare_unrecoverable(Pid pid, VPage vpage, PageFailure failure);

  /// Every present-bit set goes through here: the map count and the reclaim
  /// policy's on_map hook.
  void note_mapped(AddressSpace& as, VPage vpage) {
    ++stats_.pages_mapped;
    policy_->on_map(as.pid(), vpage);
  }

  // Page-I/O lifecycle. Demand reads (with read-ahead), prefetch reads,
  // eviction writes and background writes all reserve their pages (io_busy)
  // and end them through these steps; each caller keeps its own retries,
  // counters, referenced bits and reclaim kicks.

  /// Reserve a frame for reading page \p v from swap slot \p slot and mark
  /// the page in flight. False, changing nothing, unless \p slot is a real
  /// slot (not kNoSwapSlot), \p v is a valid page that is neither resident
  /// nor in flight, holds exactly \p slot, and a frame is free.
  bool reserve_for_read(AddressSpace& as, VPage v, SwapSlot slot);
  /// A read of [lo, lo + count) landed: map the pages, fire the faults
  /// piggybacked on them and count the page-ins. Only \p hot is marked
  /// referenced (every page when empty). A dead owner's read is released
  /// instead; returns false then.
  bool land_read(AddressSpace& as, VPage lo, std::int64_t count,
                 std::optional<VPage> hot);
  /// A read of [lo, lo + count) will not land: free the reserved frames and
  /// drop the piggybacked faults. A live owner keeps the swap slots (the
  /// data is still on disk); a dead owner gives them back.
  void release_read(AddressSpace& as, VPage lo, std::int64_t count);
  /// Give up to \p count resident pages from \p v one fresh swap-slot run,
  /// dropping stale swap copies, and mark them clean and in flight. Returns
  /// the run, or nothing when the swap device is full.
  std::optional<SlotRun> write_out(AddressSpace& as, VPage v,
                                   std::int64_t count);
  /// A write of [lo, lo + count) landed. A failed write frees the slots and
  /// re-dirties the pages; a page re-dirtied in flight drops its stale copy;
  /// a dead owner's pages are reaped. With \p unmap (eviction) the pages
  /// written cleanly are unmapped; otherwise they stay mapped.
  void land_write(AddressSpace& as, VPage lo, std::int64_t count, bool ok,
                  bool unmap);
  /// Reap a dead owner's page: unmap it if resident, free its swap slot.
  void drop_page(AddressSpace& as, VPage v);
  /// Unmap a resident page and free its frame; its swap slot stays.
  void unmap_page(AddressSpace& as, VPage v);
  /// Free the page's swap slot, if it holds one.
  void drop_slot(Pte pte);

  // Reclaim machinery.
  void kick_reclaim();
  void reclaim_step();
  void warn_release_rate_limited(const char* reason);
  /// Begin eviction of the given victims; returns frames freed instantly
  /// (clean drops) with write-backed frees counted in evictions_in_flight_.
  std::int64_t evict_batch(std::span<const Victim> victims, IoPriority priority);
  void note_evicted(Pid pid, VPage vpage);
  void check_waiters();

  // Prefetch driver.
  struct PrefetchJob {
    Pid pid = kNoPid;
    std::vector<PageRun> runs;
    std::size_t run_idx = 0;
    std::int64_t page_idx = 0;
    std::int64_t reads_in_flight = 0;
    std::function<void()> done;

    /// Run `done` (once) when every run is issued and every read landed.
    void finish_if_drained() {
      if (run_idx < runs.size() || reads_in_flight > 0 || !done) return;
      auto fn = std::move(done);
      fn();
    }
  };
  void prefetch_pump(const std::shared_ptr<PrefetchJob>& job);

  void account_pagein(std::int64_t pages, AddressSpace& as);
  void account_pageout(std::int64_t pages, AddressSpace& as);

  /// Swap I/O entry points: route via the tier when one is attached,
  /// straight to the device otherwise.
  void swap_read(SlotRun run, IoPriority priority, IoCallback on_complete);
  void swap_write(SlotRun run, IoPriority priority, IoCallback on_complete);

  static SimTime clock_thunk(const void* ctx) {
    return static_cast<const Simulator*>(ctx)->now();
  }

  Simulator& sim_;
  SwapDevice& swap_;
  TierManager* tier_ = nullptr;
  Tracer* tracer_ = nullptr;
  int trace_track_ = 0;
  VmmParams params_;
  FrameTable frames_;
  Logger log_;

  std::map<Pid, std::unique_ptr<AddressSpace>> spaces_;
  std::vector<Pid> pids_;
  Pid next_pid_ = 1;

  std::unique_ptr<ReclaimPolicy> policy_;
  std::vector<Waiter> waiters_;
  std::int64_t evictions_in_flight_ = 0;  ///< frames that will free on write completion
  bool reclaim_scheduled_ = false;
  std::uint64_t release_warnings_ = 0;

  /// Reclaim cannot currently make progress (swap exhausted or its writes
  /// keep failing). Suppresses the background kswapd goal — demand waiters
  /// still probe — and starts the stalled-fault abandonment countdown.
  /// Cleared by any successful eviction or freed memory.
  bool reclaim_stalled_ = false;
  int write_failure_streak_ = 0;
  std::map<std::pair<Pid, VPage>, int> stalled_retry_counts_;

  FailureHandler failure_handler_;

  std::map<std::pair<Pid, VPage>, std::vector<std::function<void()>>> io_waiters_;
  /// Capacity recycling for fired/dropped io-waiter lists (allocation diet:
  /// piggybacked faults are common under gang switches, and each list would
  /// otherwise re-grow from zero).
  static constexpr std::size_t kMaxSpareWaiterLists = 16;
  std::vector<std::vector<std::function<void()>>> spare_waiter_lists_;
  /// Reusable pass-2 buffer for evict_batch (allocation diet: reclaim runs
  /// every step of a fault storm and must not allocate per invocation).
  std::vector<Victim> write_scratch_;

  EvictObserver evict_observer_;

  TimeSeries pagein_series_{kSecond};
  TimeSeries pageout_series_{kSecond};
  Stats stats_;
};

}  // namespace apsim
