#include "disk/swap_device.hpp"

#include <algorithm>
#include <cassert>

namespace apsim {

SwapDevice::SwapDevice(Disk& disk, BlockNum base_block, std::int64_t num_slots)
    : disk_(disk), base_(base_block),
      used_(static_cast<std::size_t>(num_slots), false),
      free_count_(num_slots) {
  assert(num_slots > 0);
  assert(base_block >= 0);
  assert(base_block + num_slots <= disk.model().params().num_blocks);
}

std::optional<SwapSlot> SwapDevice::alloc_one() {
  auto run = alloc_run(1);
  if (!run) return std::nullopt;
  return run->start;
}

std::optional<SlotRun> SwapDevice::alloc_run(std::int64_t max_len) {
  assert(max_len >= 1);
  if (free_count_ == 0) return std::nullopt;
  const auto n = num_slots();
  // Next-fit: scan from the hint, wrapping once.
  for (std::int64_t scanned = 0; scanned < n; ++scanned) {
    const SwapSlot s = (hint_ + scanned) % n;
    if (used_[static_cast<std::size_t>(s)]) continue;
    // Found a free slot; extend the run as far as possible.
    std::int64_t len = 0;
    while (s + len < n && len < max_len &&
           !used_[static_cast<std::size_t>(s + len)]) {
      ++len;
    }
    for (std::int64_t i = 0; i < len; ++i) {
      used_[static_cast<std::size_t>(s + i)] = true;
    }
    free_count_ -= len;
    hint_ = (s + len) % n;
    return SlotRun{s, len};
  }
  return std::nullopt;
}

std::vector<SlotRun> SwapDevice::alloc_pages(std::int64_t n,
                                             std::int64_t max_run) {
  assert(max_run >= 1);
  std::vector<SlotRun> runs;
  std::int64_t remaining = n;
  while (remaining > 0) {
    auto run = alloc_run(std::min(remaining, max_run));
    if (!run) break;
    remaining -= run->count;
    // Merge with the previous run if the allocator happened to continue it.
    if (!runs.empty() && runs.back().start + runs.back().count == run->start) {
      runs.back().count += run->count;
    } else {
      runs.push_back(*run);
    }
  }
  return runs;
}

void SwapDevice::free_slot(SwapSlot slot) {
  assert(slot >= 0 && slot < num_slots());
  auto ref = used_[static_cast<std::size_t>(slot)];
  assert(ref && "double free of swap slot");
  if (ref) {
    if (release_hook_) release_hook_(slot);
    used_[static_cast<std::size_t>(slot)] = false;
    ++free_count_;
  }
}

bool SwapDevice::is_allocated(SwapSlot slot) const {
  assert(slot >= 0 && slot < num_slots());
  return used_[static_cast<std::size_t>(slot)];
}

void SwapDevice::submit(SlotRun run, bool is_write, IoPriority priority,
                        IoCallback on_complete) {
  assert(run.count > 0);
  assert(run.start >= 0 && run.start + run.count <= num_slots());
  DiskRequest req;
  req.start = block_of(run.start);
  req.nblocks = run.count;
  req.write = is_write;
  req.priority = priority;
  req.on_complete = std::move(on_complete);
  disk_.submit(std::move(req));
}

void SwapDevice::read(SlotRun run, IoPriority priority,
                      IoCallback on_complete) {
  submit(run, /*is_write=*/false, priority, std::move(on_complete));
}

void SwapDevice::write(SlotRun run, IoPriority priority,
                       IoCallback on_complete) {
  submit(run, /*is_write=*/true, priority, std::move(on_complete));
}

}  // namespace apsim
