#include "tier/tier_manager.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "mem/page.hpp"

namespace apsim {

namespace {

/// Extend the last run with \p slot when it directly follows it, else start
/// a new run.
void append_slot(std::vector<SlotRun>& runs, SwapSlot slot) {
  if (!runs.empty() && runs.back().start + runs.back().count == slot) {
    ++runs.back().count;
  } else {
    runs.push_back(SlotRun{slot, 1});
  }
}

/// Sort slots and merge adjacent ones into contiguous runs, so a pool
/// writeback batch, which arrives in LRU order, streams as few transfers as
/// the slot layout allows.
std::vector<SlotRun> coalesce(std::vector<SwapSlot> slots) {
  std::sort(slots.begin(), slots.end());
  std::vector<SlotRun> runs;
  for (const SwapSlot slot : slots) append_slot(runs, slot);
  return runs;
}

}  // namespace

TierManager::TierManager(Simulator& sim, SwapDevice& swap, TierParams params)
    : sim_(sim), swap_(swap), params_(params),
      pool_(CompressedPoolParams{
          .budget_bytes = static_cast<std::int64_t>(params.pool_mb *
                                                    1024.0 * 1024.0),
          .model = params.ratio_model,
          .max_admit_ratio = params.max_admit_ratio,
          .seed = sim.rng()(),
      }),
      log_("tier", &sim, &clock_thunk) {
  assert(params_.pool_mb > 0.0);
  assert(params_.writeback_batch > 0);
  assert(params_.writeback_interval > 0);
  assert(params_.writeback_low_frac >= 0.0 &&
         params_.writeback_low_frac <= params_.writeback_high_frac);
  swap_.set_slot_release_hook(
      [this](SwapSlot slot) { on_slot_released(slot); });
}

TierManager::~TierManager() { swap_.set_slot_release_hook(nullptr); }

void TierManager::set_pool_budget_bytes(std::int64_t bytes) {
  const auto boot_budget =
      static_cast<std::int64_t>(params_.pool_mb * 1024.0 * 1024.0);
  pool_.set_budget_bytes(std::clamp<std::int64_t>(bytes, 1, boot_budget));
  maybe_start_writeback();
}

void TierManager::finish_part(const std::shared_ptr<PendingIo>& pending,
                              IoResult result) {
  pending->ok = pending->ok && result.ok;
  assert(pending->remaining > 0);
  if (--pending->remaining == 0) {
    auto cb = std::move(pending->on_complete);
    if (cb) cb(pending->ok ? IoResult::success() : IoResult::error());
  }
}

bool TierManager::pool_faulted() {
  return injector_ != nullptr && injector_->on_tier_store(node_index_);
}

void TierManager::write(SlotRun run, IoPriority priority,
                        IoCallback on_complete) {
  assert(run.count > 0);
  // Slots are visited in order, so the pages the pool refuses extend the
  // last disk run or start the next one.
  std::int64_t pooled = 0;
  std::vector<SlotRun> disk_runs;
  for (std::int64_t i = 0; i < run.count; ++i) {
    const SwapSlot slot = run.start + i;
    if (pool_faulted()) {
      ++stats_.stores_faulted;
    } else if (pool_.store(slot)) {
      ++pooled;
      continue;
    } else {
      ++stats_.stores_rejected;
    }
    append_slot(disk_runs, slot);
  }

  submit_parts(pooled, params_.compress_cost, disk_runs, &SwapDevice::write,
               priority, std::move(on_complete));
  log_.trace("write [%lld,+%lld): %lld pooled, %zu disk runs",
             static_cast<long long>(run.start),
             static_cast<long long>(run.count),
             static_cast<long long>(pooled), disk_runs.size());
  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_, "tier", "store",
                     {{"pooled", static_cast<double>(pooled)},
                      {"to_disk", static_cast<double>(run.count - pooled)},
                      {"occupancy", pool_.occupancy()}});
  }
  maybe_start_writeback();
}

void TierManager::read(SlotRun run, IoPriority priority,
                       IoCallback on_complete) {
  assert(run.count > 0);
  // Split the run into maximal pool-resident and disk-resident segments.
  // Pool segments cost only the decompressor; disk segments become block
  // reads. A slot under writeback still reads from the pool — the entry
  // stays until the write lands.
  std::int64_t pool_pages = 0;
  std::vector<SlotRun> disk_segs;
  for (std::int64_t i = 0; i < run.count; ++i) {
    const SwapSlot slot = run.start + i;
    if (pool_.touch(slot)) {
      ++pool_pages;
    } else {
      append_slot(disk_segs, slot);
    }
  }
  stats_.pool_hits += static_cast<std::uint64_t>(pool_pages);
  for (const SlotRun& seg : disk_segs) {
    stats_.pool_misses += static_cast<std::uint64_t>(seg.count);
  }

  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_, "tier", "load",
                     {{"pool_pages", static_cast<double>(pool_pages)},
                      {"disk_pages", static_cast<double>(run.count - pool_pages)},
                      {"disk_segs", static_cast<double>(disk_segs.size())}});
  }
  submit_parts(pool_pages, params_.decompress_cost, disk_segs,
               &SwapDevice::read, priority, std::move(on_complete));
}

void TierManager::submit_parts(std::int64_t pool_pages, SimDuration page_cost,
                               const std::vector<SlotRun>& disk_runs,
                               DiskTransfer transfer, IoPriority priority,
                               IoCallback on_complete) {
  const SimDuration pool_cost = page_cost * pool_pages;
  // A run that resolves to one part needs no join: that part completes
  // with the caller's callback.
  if (disk_runs.empty()) {
    sim_.after(pool_cost, [cb = std::move(on_complete)] {
      if (cb) cb(IoResult::success());
    });
    return;
  }
  if (pool_pages == 0 && disk_runs.size() == 1) {
    (swap_.*transfer)(disk_runs.front(), priority, std::move(on_complete));
    return;
  }

  auto pending = std::make_shared<PendingIo>();
  pending->on_complete = std::move(on_complete);
  pending->remaining = (pool_pages > 0 ? 1 : 0) +
                       static_cast<int>(disk_runs.size());
  if (pool_pages > 0) {
    sim_.after(pool_cost,
               [this, pending] { finish_part(pending, IoResult::success()); });
  }
  for (const SlotRun& r : disk_runs) {
    (swap_.*transfer)(r, priority, [this, pending](IoResult result) {
      finish_part(pending, result);
    });
  }
}

void TierManager::on_slot_released(SwapSlot slot) { pool_.drop(slot); }

void TierManager::maybe_start_writeback() {
  if (!params_.writeback || writeback_ticking_) return;
  if (pool_.occupancy() < params_.writeback_high_frac) return;
  if (swap_.disk().failed()) return;
  writeback_ticking_ = true;
  sim_.after(params_.writeback_interval, [this] { writeback_tick(); });
}

void TierManager::writeback_tick() {
  // Stop conditions keep the event queue quiescent: no re-arm when the
  // drain target is met, the disk is gone, or a whole batch failed (a
  // future store above the high watermark re-arms the daemon).
  if (swap_.disk().failed() ||
      pool_.occupancy() <= params_.writeback_low_frac) {
    writeback_ticking_ = false;
    return;
  }
  const auto batch = pool_.begin_writeback(params_.writeback_batch);
  if (batch.empty()) {
    writeback_ticking_ = false;
    return;
  }
  const auto runs = coalesce(batch);
  // One shared completion for the whole batch decides whether to re-arm.
  struct BatchState {
    std::size_t remaining = 0;
    std::int64_t failed_pages = 0;
    std::int64_t total_pages = 0;
  };
  auto state = std::make_shared<BatchState>();
  state->remaining = runs.size();
  for (const SlotRun& r : runs) state->total_pages += r.count;
  writebacks_in_flight_ += state->total_pages;

  for (const SlotRun& r : runs) {
    swap_.write(r, IoPriority::kBackground,
                [this, r, state](IoResult result) {
      for (std::int64_t i = 0; i < r.count; ++i) {
        pool_.finish_writeback(r.start + i, result.ok);
      }
      writebacks_in_flight_ -= r.count;
      if (result.ok) {
        stats_.writeback_pages += static_cast<std::uint64_t>(r.count);
      } else {
        stats_.writeback_failures += static_cast<std::uint64_t>(r.count);
        state->failed_pages += r.count;
      }
      if (--state->remaining > 0) return;
      // Batch done: keep draining unless nothing landed or the target is met.
      if (swap_.disk().failed() ||
          state->failed_pages == state->total_pages ||
          pool_.occupancy() <= params_.writeback_low_frac) {
        writeback_ticking_ = false;
        return;
      }
      sim_.after(params_.writeback_interval, [this] { writeback_tick(); });
    });
  }
  log_.trace("writeback tick: %lld pages in %zu runs, occupancy %.2f",
             static_cast<long long>(state->total_pages), runs.size(),
             pool_.occupancy());
  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_, "tier", "writeback",
                     {{"pages", static_cast<double>(state->total_pages)},
                      {"runs", static_cast<double>(runs.size())},
                      {"occupancy", pool_.occupancy()}});
  }
}

}  // namespace apsim
