#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "disk/disk.hpp"
#include "disk/swap_device.hpp"
#include "metrics/tracer.hpp"
#include "sim/log.hpp"
#include "sim/simulator.hpp"
#include "tier/compressed_pool.hpp"

/// \file tier_manager.hpp
/// Interposes a compressed RAM tier (CompressedPool) on the Vmm<->SwapDevice
/// path, the way zswap fronts a disk swap device:
///
///   * swap-out: pages land in the pool when they fit (microsecond-scale
///     compress), the remainder of the run goes to disk;
///   * swap-in: pool-resident slots decompress in microseconds, only the
///     disk-resident remainder of a run is issued as block reads;
///   * writeback: when occupancy crosses a high watermark, a background
///     pass on the bg-daemon cadence streams LRU-cold entries to their own
///     disk slots (the slot was reserved at allocation, exactly like
///     zswap's backing-store convention) until a low watermark is reached.
///
/// Slot identity stays with the SwapDevice: the tier registers its slot
/// release hook so every free_slot() — eviction aborts, process teardown,
/// re-dirtied pages — invalidates the compressed copy and keeps the pool
/// leak-free. With no TierManager constructed the Vmm talks to the
/// SwapDevice directly and behaves bit-identically to the pre-tier tree.

namespace apsim {

class FaultInjector;

struct TierParams {
  /// Pool RAM budget, MB; 0 disables the tier entirely (no TierManager is
  /// constructed). The node wires down this many frames, so enabling the
  /// tier trades usable RAM for cheap switch-time paging.
  double pool_mb = 0.0;

  TierRatioModel ratio_model = TierRatioModel::kMixed;

  /// Pages compressing worse than this are sent to disk (zswap's
  /// incompressible-page rejection).
  double max_admit_ratio = 0.9;

  /// Background writeback: enabled flag, batch per tick, tick cadence (the
  /// same 50 ms rhythm as the adaptive pager's bg daemon), and the
  /// occupancy watermarks that start/stop the drain.
  bool writeback = true;
  std::int64_t writeback_batch = 64;
  SimDuration writeback_interval = 50 * kMillisecond;
  double writeback_high_frac = 0.85;
  double writeback_low_frac = 0.60;

  /// CPU cost per page for the simulated compressor (zswap's lzo/zstd runs
  /// in single-digit microseconds per 4 KB page).
  SimDuration compress_cost = 3 * kMicrosecond;
  SimDuration decompress_cost = 2 * kMicrosecond;
};

class TierManager {
 public:
  /// Registers the slot release hook on \p swap; the pool's compressibility
  /// seed is drawn from the Simulator's root RNG (construction-time, like
  /// every other component stream).
  TierManager(Simulator& sim, SwapDevice& swap, TierParams params);
  ~TierManager();

  TierManager(const TierManager&) = delete;
  TierManager& operator=(const TierManager&) = delete;

  /// Attach the cluster's fault injector (nullptr = fault-free). \p node is
  /// the owning node index, used to match FaultSpec targets.
  void set_fault_injector(FaultInjector* injector, int node) {
    injector_ = injector;
    node_index_ = node;
  }

  /// Attach the run's tracer (nullptr = untraced). Admissions, loads and
  /// writeback batches become instant events on \p track.
  void set_tracer(Tracer* tracer, int track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  /// Swap-out a slot run. Pages the pool admits complete after the
  /// compress cost; the rest is written to disk. \p on_complete fires once
  /// with the aggregate result when every part has landed.
  void write(SlotRun run, IoPriority priority, IoCallback on_complete);

  /// Swap-in a slot run: pool-resident segments decompress in microseconds,
  /// disk-resident segments are issued as block reads. \p on_complete fires
  /// once with the aggregate result.
  void read(SlotRun run, IoPriority priority, IoCallback on_complete);

  [[nodiscard]] CompressedPool& pool() { return pool_; }
  [[nodiscard]] const CompressedPool& pool() const { return pool_; }

  /// Runtime actuator (adaptive control plane): retarget the pool budget,
  /// clamped to (0, boot budget] — the frame carve happened at boot, so the
  /// budget can only shrink (and later return). Shrinking under the current
  /// occupancy kicks the background writeback to drain the excess.
  void set_pool_budget_bytes(std::int64_t bytes);
  [[nodiscard]] SwapDevice& swap() { return swap_; }
  [[nodiscard]] const TierParams& params() const { return params_; }

  struct Stats {
    std::uint64_t pool_hits = 0;        ///< pages swapped in from the pool
    std::uint64_t pool_misses = 0;      ///< pages swapped in from disk
    std::uint64_t stores_rejected = 0;  ///< pages the pool refused (to disk)
    std::uint64_t stores_faulted = 0;   ///< pages rejected by injected faults
    std::uint64_t writeback_pages = 0;  ///< pool entries drained to disk
    std::uint64_t writeback_failures = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// One aggregate completion spanning the pool and disk parts of a run.
  struct PendingIo {
    int remaining = 0;
    bool ok = true;
    IoCallback on_complete;
  };
  void finish_part(const std::shared_ptr<PendingIo>& pending, IoResult result);

  using DiskTransfer = void (SwapDevice::*)(SlotRun, IoPriority, IoCallback);
  /// Submit a run's parts: \p pool_pages pool pages that complete together
  /// after \p page_cost each, and \p disk_runs through \p transfer.
  /// \p on_complete fires once, after the last part; a single part is
  /// handed it directly.
  void submit_parts(std::int64_t pool_pages, SimDuration page_cost,
                    const std::vector<SlotRun>& disk_runs,
                    DiskTransfer transfer, IoPriority priority,
                    IoCallback on_complete);

  void on_slot_released(SwapSlot slot);
  /// True when the injector says pool admissions fail right now.
  [[nodiscard]] bool pool_faulted();

  void maybe_start_writeback();
  void writeback_tick();

  static SimTime clock_thunk(const void* ctx) {
    return static_cast<const Simulator*>(ctx)->now();
  }

  Simulator& sim_;
  SwapDevice& swap_;
  TierParams params_;
  CompressedPool pool_;
  Logger log_;
  FaultInjector* injector_ = nullptr;
  int node_index_ = 0;
  Tracer* tracer_ = nullptr;
  int trace_track_ = 0;
  bool writeback_ticking_ = false;
  std::int64_t writebacks_in_flight_ = 0;
  Stats stats_;
};

}  // namespace apsim
