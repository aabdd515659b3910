#include "disk_oracle.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace apsim::oracle {

void Disk::submit(DiskRequest req) {
  assert(req.nblocks > 0);
  assert(req.start >= 0 && req.start + req.nblocks <= model_.params().num_blocks);
  ++stats_.requests;
  if (failed_) {
    ++stats_.io_errors;
    if (req.on_complete) {
      sim_.after(0, [fn = std::move(req.on_complete)] { fn(IoResult::error()); });
    }
    return;
  }
  auto& queue =
      req.priority == IoPriority::kForeground ? foreground_ : background_;
  queue.push_back(std::move(req));
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
  if (!busy_) start_next();
}

std::size_t Disk::pick_clook(const std::deque<DiskRequest>& queue) const {
  // C-LOOK: serve the closest request at or beyond the head; if none, wrap
  // to the lowest-addressed request.
  std::size_t best_forward = queue.size();
  BlockNum best_forward_start = std::numeric_limits<BlockNum>::max();
  std::size_t best_wrap = queue.size();
  BlockNum best_wrap_start = std::numeric_limits<BlockNum>::max();
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const BlockNum s = queue[i].start;
    if (s >= head_) {
      if (s < best_forward_start) {
        best_forward_start = s;
        best_forward = i;
      }
    } else if (s < best_wrap_start) {
      best_wrap_start = s;
      best_wrap = i;
    }
  }
  return best_forward != queue.size() ? best_forward : best_wrap;
}

void Disk::start_next() {
  assert(!busy_);
  auto* queue = &foreground_;
  if (queue->empty()) queue = &background_;
  if (queue->empty()) return;

  const std::size_t idx = pick_clook(*queue);
  assert(idx < queue->size());
  DiskRequest first = std::move((*queue)[idx]);
  queue->erase(queue->begin() + static_cast<std::ptrdiff_t>(idx));

  // Coalesce exactly-contiguous same-direction requests into one transfer
  // (block-layer request merging). Completion callbacks fire together at the
  // end of the merged transfer and share its outcome.
  std::vector<IoCallback> completions;
  completions.push_back(std::move(first.on_complete));
  BlockNum start = first.start;
  BlockNum nblocks = first.nblocks;
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::size_t i = 0; i < queue->size(); ++i) {
      auto& candidate = (*queue)[i];
      if (candidate.write == first.write &&
          candidate.start == start + nblocks) {
        nblocks += candidate.nblocks;
        completions.push_back(std::move(candidate.on_complete));
        queue->erase(queue->begin() + static_cast<std::ptrdiff_t>(i));
        merged = true;
        break;
      }
    }
  }

  SimDuration service = model_.service_time(head_, start, nblocks);
  bool inject_error = false;
  if (injector_ != nullptr) {
    const auto outcome = injector_->on_disk_request(node_index_, first.write);
    inject_error = outcome.fail;
    if (outcome.slow_factor != 1.0) {
      service = static_cast<SimDuration>(static_cast<double>(service) *
                                         outcome.slow_factor);
    }
  }
  busy_ = true;
  ++stats_.services;
  stats_.busy_time += service;
  if (first.write) {
    stats_.blocks_written += static_cast<std::uint64_t>(nblocks);
  } else {
    stats_.blocks_read += static_cast<std::uint64_t>(nblocks);
  }

  sim_.after(service, [this, start, nblocks, inject_error,
                       completions = std::move(completions)]() mutable {
    head_ = start + nblocks;
    busy_ = false;
    // The device may have failed while the transfer was in flight.
    const IoResult result{!(inject_error || failed_)};
    if (!result.ok) stats_.io_errors += completions.size();
    for (auto& fn : completions) {
      if (fn) fn(result);
    }
    if (!busy_ && !failed_) start_next();  // a completion may have restarted the device
  });
}

void Disk::fail_device() {
  if (failed_) return;
  failed_ = true;
  // Drain both queues with error completions; anything in flight errors in
  // its own completion event. New submits error immediately.
  auto drain = [this](std::deque<DiskRequest>& queue) {
    for (auto& req : queue) {
      ++stats_.io_errors;
      if (req.on_complete) {
        sim_.after(0,
                   [fn = std::move(req.on_complete)] { fn(IoResult::error()); });
      }
    }
    queue.clear();
  };
  drain(foreground_);
  drain(background_);
}

}  // namespace apsim::oracle
