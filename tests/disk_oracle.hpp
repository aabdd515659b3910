#pragma once

// The disk elevator exactly as it was before its queues were indexed: two
// std::deque<DiskRequest> in arrival order, a C-LOOK pick that scans the
// whole queue, merges that erase from the middle and restart the scan at
// index 0, and a per-service vector of completions. Copied verbatim into
// namespace apsim::oracle, minus the tracer hooks; the differential test
// drives it side by side with the indexed Disk and requires the same
// services, completion order, head and counters.

#include <cstdint>
#include <deque>

#include "disk/disk.hpp"

namespace apsim::oracle {

class Disk {
 public:
  Disk(Simulator& sim, DiskParams params) : sim_(sim), model_(params) {}

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  void submit(DiskRequest req);

  void set_fault_injector(FaultInjector* injector, int node) {
    injector_ = injector;
    node_index_ = node;
  }

  void fail_device();
  [[nodiscard]] bool failed() const { return failed_; }

  [[nodiscard]] const DiskModel& model() const { return model_; }
  [[nodiscard]] BlockNum head() const { return head_; }
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_depth() const {
    return foreground_.size() + background_.size();
  }

  [[nodiscard]] const apsim::Disk::Stats& stats() const { return stats_; }

 private:
  void start_next();
  /// Pick the next request index from \p queue using C-LOOK order relative
  /// to the current head position. Returns queue.size() if empty.
  [[nodiscard]] std::size_t pick_clook(const std::deque<DiskRequest>& queue) const;

  Simulator& sim_;
  DiskModel model_;
  std::deque<DiskRequest> foreground_;
  std::deque<DiskRequest> background_;
  BlockNum head_ = 0;
  bool busy_ = false;
  bool failed_ = false;
  FaultInjector* injector_ = nullptr;
  int node_index_ = 0;
  apsim::Disk::Stats stats_;
};

}  // namespace apsim::oracle
