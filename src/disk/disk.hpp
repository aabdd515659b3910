#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "disk/disk_model.hpp"
#include "fault/fault_injector.hpp"
#include "metrics/tracer.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

/// \file disk.hpp
/// Queued disk device: accepts block requests, schedules them with a C-LOOK
/// elevator, coalesces contiguous requests into single transfers, and
/// services background-priority requests only when no foreground work is
/// queued. The latter is how the paper's background dirty-page writer avoids
/// competing with demand paging. Each priority class is indexed by (start
/// block, arrival order), so picking and merging a request is a lookup, not
/// a scan of the queue.

namespace apsim {

enum class IoPriority : std::uint8_t { kForeground = 0, kBackground = 1 };

/// Completion status of one disk transfer. Errors come from the fault
/// injector (transient/persistent media errors) or a failed device; coalesced
/// requests share the outcome of their merged transfer.
struct IoResult {
  bool ok = true;

  [[nodiscard]] static IoResult success() { return IoResult{true}; }
  [[nodiscard]] static IoResult error() { return IoResult{false}; }
};

using IoCallback = std::function<void(IoResult)>;

struct DiskRequest {
  BlockNum start = 0;
  BlockNum nblocks = 1;
  bool write = false;
  IoPriority priority = IoPriority::kForeground;
  /// Invoked exactly once when the transfer finishes (or errors out).
  IoCallback on_complete;
};

class Disk {
 public:
  Disk(Simulator& sim, DiskParams params)
      : sim_(sim), model_(params) {}

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Enqueue a request. Service begins immediately if the device is idle.
  /// On a failed device the request completes with an error instead.
  void submit(DiskRequest req);

  /// Attach the cluster's fault injector (nullptr = fault-free). \p node is
  /// this disk's owning node index, used to match FaultSpec targets.
  void set_fault_injector(FaultInjector* injector, int node) {
    injector_ = injector;
    node_index_ = node;
  }

  /// Attach the run's tracer (nullptr = untraced; the default costs nothing).
  /// Each physical service becomes a span on \p track with a queue-depth
  /// counter sampled at service start.
  void set_tracer(Tracer* tracer, int track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  /// Permanently fail the device (node crash): queued requests complete with
  /// errors, in-flight transfers error on landing, and every future submit
  /// errors immediately. Idempotent.
  void fail_device();
  [[nodiscard]] bool failed() const { return failed_; }

  [[nodiscard]] const DiskModel& model() const { return model_; }
  [[nodiscard]] BlockNum head() const { return head_; }
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_depth() const {
    return foreground_.size() + background_.size();
  }

  /// Cumulative statistics.
  struct Stats {
    std::uint64_t requests = 0;          ///< requests submitted
    std::uint64_t services = 0;          ///< physical I/Os after coalescing
    std::uint64_t blocks_read = 0;
    std::uint64_t blocks_written = 0;
    SimDuration busy_time = 0;           ///< time spent servicing
    std::size_t max_queue_depth = 0;
    std::uint64_t io_errors = 0;         ///< requests completed with an error
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Fraction of [0, now] the device spent busy.
  [[nodiscard]] double utilization() const;

 private:
  /// Queued requests of one priority class keyed by (start block, arrival
  /// seq): same-start requests sit in arrival order.
  using Queue = std::map<std::pair<BlockNum, std::uint64_t>, DiskRequest>;

  void start_next();

  Simulator& sim_;
  DiskModel model_;
  Queue foreground_;
  Queue background_;
  std::uint64_t next_seq_ = 0;
  /// Completions of the service in flight, in merge order. Its landing swaps
  /// them into landing_ before running them, because a completion may
  /// submit and start the next service. Both buffers keep their capacity.
  std::vector<IoCallback> completions_;
  std::vector<IoCallback> landing_;
  BlockNum head_ = 0;
  bool busy_ = false;
  bool failed_ = false;
  FaultInjector* injector_ = nullptr;
  int node_index_ = 0;
  Tracer* tracer_ = nullptr;
  int trace_track_ = 0;
  Stats stats_;
};

}  // namespace apsim
