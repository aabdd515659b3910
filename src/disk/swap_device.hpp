#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "disk/disk.hpp"

/// \file swap_device.hpp
/// Swap area on top of a Disk: page-sized slots with a bitmap allocator that
/// prefers contiguous runs. Contiguity is what lets the adaptive mechanisms
/// turn a job switch into a handful of streaming transfers, so the allocator
/// exposes run-granular allocation rather than slot-at-a-time only.

namespace apsim {

/// Index of a page slot within the swap area.
using SwapSlot = std::int64_t;
inline constexpr SwapSlot kNoSwapSlot = -1;

/// A contiguous run of swap slots [start, start + count).
struct SlotRun {
  SwapSlot start = 0;
  std::int64_t count = 0;

  friend bool operator==(const SlotRun&, const SlotRun&) = default;
};

class SwapDevice {
 public:
  /// Swap area occupying slots [0, num_slots) mapped onto disk blocks
  /// [base_block, base_block + num_slots).
  SwapDevice(Disk& disk, BlockNum base_block, std::int64_t num_slots);

  SwapDevice(const SwapDevice&) = delete;
  SwapDevice& operator=(const SwapDevice&) = delete;

  [[nodiscard]] std::int64_t num_slots() const { return static_cast<std::int64_t>(used_.size()); }
  [[nodiscard]] std::int64_t free_slots() const { return free_count_; }
  [[nodiscard]] std::int64_t used_slots() const { return num_slots() - free_count_; }

  /// Allocate one slot (next-fit). Returns std::nullopt when full.
  [[nodiscard]] std::optional<SwapSlot> alloc_one();

  /// Allocate a single contiguous run of up to \p max_len slots (>= 1 on
  /// success). Returns the run actually obtained, which may be shorter than
  /// requested when free space is fragmented; std::nullopt when full.
  [[nodiscard]] std::optional<SlotRun> alloc_run(std::int64_t max_len);

  /// Allocate \p n slots as few runs as the free map allows, each run at
  /// most \p max_run long. May return fewer than n slots in total when the
  /// device fills up.
  [[nodiscard]] std::vector<SlotRun> alloc_pages(std::int64_t n,
                                                 std::int64_t max_run);

  /// Release one slot. Freeing an unallocated slot is a programming error.
  void free_slot(SwapSlot slot);

  /// Observer invoked for every free_slot() just before the slot is
  /// released. The compressed tier registers here so any slot the VMM frees
  /// — eviction aborts, process teardown, re-dirtied pages — also drops the
  /// pool's compressed copy. Pass nullptr to unregister.
  void set_slot_release_hook(std::function<void(SwapSlot)> hook) {
    release_hook_ = std::move(hook);
  }

  /// True if \p slot is currently allocated.
  [[nodiscard]] bool is_allocated(SwapSlot slot) const;

  /// Read-only copy of the allocator's state: the slot bitmap, the free
  /// count and the next-fit cursor. Two devices that agree on it allocate
  /// the same runs from here on.
  struct AllocImage {
    std::vector<bool> used;
    std::int64_t free_count = 0;
    SwapSlot hint = 0;
  };
  [[nodiscard]] AllocImage capture_alloc() const {
    return AllocImage{used_, free_count_, hint_};
  }

  /// Submit a read/write of a slot run; \p on_complete fires when the
  /// transfer finishes, receiving its IoResult (errors come from the fault
  /// injector or a failed device).
  void read(SlotRun run, IoPriority priority, IoCallback on_complete);
  void write(SlotRun run, IoPriority priority, IoCallback on_complete);

  [[nodiscard]] Disk& disk() { return disk_; }
  [[nodiscard]] const Disk& disk() const { return disk_; }

  /// Disk block backing a slot.
  [[nodiscard]] BlockNum block_of(SwapSlot slot) const { return base_ + slot; }

 private:
  void submit(SlotRun run, bool is_write, IoPriority priority,
              IoCallback on_complete);

  Disk& disk_;
  BlockNum base_;
  std::vector<bool> used_;
  std::int64_t free_count_;
  SwapSlot hint_ = 0;  // next-fit scan start
  std::function<void(SwapSlot)> release_hook_;
};

}  // namespace apsim
