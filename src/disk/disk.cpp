#include "disk/disk.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace apsim {

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
  const std::pair key{req.start, next_seq_++};
  queue.emplace(key, std::move(req));
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
  if (!busy_) start_next();
}

void Disk::start_next() {
  assert(!busy_ && completions_.empty());
  auto* queue = &foreground_;
  if (queue->empty()) queue = &background_;
  if (queue->empty()) return;

  // C-LOOK: serve the closest request at or beyond the head; if none, wrap
  // to the lowest-addressed request. Same-start requests go in arrival
  // order.
  auto first = queue->lower_bound({head_, 0});
  if (first == queue->end()) first = queue->begin();
  const BlockNum start = first->first.first;
  const bool write = first->second.write;
  BlockNum nblocks = first->second.nblocks;
  completions_.push_back(std::move(first->second.on_complete));
  queue->erase(first);

  // Coalesce exactly-contiguous same-direction requests into one transfer
  // (block-layer request merging): each step takes the earliest-arrived
  // request of the same direction that starts where the transfer ends.
  // Completion callbacks fire together at the end of the merged transfer,
  // in merge order, and share its outcome.
  for (;;) {
    const BlockNum end = start + nblocks;
    auto next = queue->lower_bound({end, 0});
    while (next != queue->end() && next->first.first == end &&
           next->second.write != write) {
      ++next;
    }
    if (next == queue->end() || next->first.first != end) break;
    nblocks += next->second.nblocks;
    completions_.push_back(std::move(next->second.on_complete));
    queue->erase(next);
  }

  SimDuration service = model_.service_time(head_, start, nblocks);
  bool inject_error = false;
  if (injector_ != nullptr) {
    const auto outcome = injector_->on_disk_request(node_index_, write);
    inject_error = outcome.fail;
    if (outcome.slow_factor != 1.0) {
      service = static_cast<SimDuration>(static_cast<double>(service) *
                                         outcome.slow_factor);
    }
  }
  busy_ = true;
  ++stats_.services;
  stats_.busy_time += service;
  if (write) {
    stats_.blocks_written += static_cast<std::uint64_t>(nblocks);
  } else {
    stats_.blocks_read += static_cast<std::uint64_t>(nblocks);
  }

  // Spans outlive this call, and std::function needs copyable captures, so a
  // traced service carries its span in a shared_ptr; untraced runs carry a
  // null pointer and allocate nothing.
  std::shared_ptr<TraceSpan> service_span;
  if (tracer_ != nullptr) {
    tracer_->counter(trace_track_, "disk", "queue_depth",
                     static_cast<double>(queue_depth()));
    service_span = std::make_shared<TraceSpan>(tracer_->span(
        trace_track_, "disk", write ? "service_write" : "service_read",
        {{"blocks", static_cast<double>(nblocks)},
         {"start", static_cast<double>(start)},
         {"queued", static_cast<double>(queue_depth())}}));
  }

  sim_.after(service, [this, start, nblocks, inject_error, service_span] {
    head_ = start + nblocks;
    busy_ = false;
    // End before running completions: one of them may submit and start the
    // next service, whose begin must come after this span's end.
    if (service_span) service_span->end();
    // The device may have failed while the transfer was in flight.
    const IoResult result{!(inject_error || failed_)};
    if (!result.ok) stats_.io_errors += completions_.size();
    // A completion that submits starts the next service, which collects its
    // own completions in completions_.
    landing_.swap(completions_);
    for (auto& fn : landing_) {
      if (fn) fn(result);
    }
    landing_.clear();
    if (!busy_ && !failed_) start_next();  // a completion may have restarted the device
  });
}

void Disk::fail_device() {
  if (failed_) return;
  failed_ = true;
  // Drain both queues with error completions in arrival order, foreground
  // first; anything in flight errors in its own completion event. New
  // submits error immediately.
  auto drain = [this](Queue& queue) {
    std::vector<Queue::iterator> by_arrival;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      by_arrival.push_back(it);
    }
    std::ranges::sort(by_arrival, {}, [](auto it) { return it->first.second; });
    for (auto it : by_arrival) {
      ++stats_.io_errors;
      if (it->second.on_complete) {
        sim_.after(0, [fn = std::move(it->second.on_complete)] {
          fn(IoResult::error());
        });
      }
    }
    queue.clear();
  };
  drain(foreground_);
  drain(background_);
}

double Disk::utilization() const {
  const SimTime now = sim_.now();
  if (now <= 0) return 0.0;
  return static_cast<double>(stats_.busy_time) / static_cast<double>(now);
}

}  // namespace apsim
