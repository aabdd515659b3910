// Differential test for the disk elevator's indexed queues. Seeded request
// streams run through Disk and through the deque elevator kept verbatim in
// tests/disk_oracle.* on twin simulators. Every delivery of completions (one
// landed service, or one error completion) must match: its time, the tags
// of its completions in order, their outcome, the service's start, length
// and direction, the head after it, the queue depth and every counter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <tuple>
#include <vector>

#include "disk/disk.hpp"
#include "disk_oracle.hpp"
#include "fault/fault_injector.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace apsim {
namespace {

DiskParams small_disk() {
  DiskParams p;
  p.num_blocks = 100000;
  return p;
}

struct Stream {
  const char* name;
  int bursts;             ///< submission bursts, spaced by up to max_gap
  int min_burst;          ///< each burst submits min_burst..max_burst
  int max_burst;          ///< requests
  SimDuration max_gap;
  int clusters;           ///< starts fall near this many cluster bases ...
  int offsets;            ///< ... at one of this many 4-block offsets
  int resubmits;          ///< completions that submit a follow-up request
  SimTime fail_at = -1;   ///< fail_device() at this time; -1 = never
  std::vector<const char*> faults = {};
};

auto counters(const Disk::Stats& s) {
  return std::make_tuple(s.requests, s.services, s.blocks_read,
                         s.blocks_written, s.busy_time, s.max_queue_depth,
                         s.io_errors);
}
using Counters = decltype(counters(Disk::Stats{}));

/// Completions that ran in one simulator event: one landed service, or one
/// error completion of a failed device.
struct Delivery {
  SimTime time = 0;
  bool ok = true;
  std::vector<int> tags;
  BlockNum start = 0;    ///< start of the first request, total length and
  BlockNum nblocks = 0;  ///< direction: for a landing, the transfer the
  bool write = false;    ///< service made
  BlockNum head = 0;
  bool busy = false;
  std::size_t queue_depth = 0;
  Counters stats;

  bool operator==(const Delivery&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Delivery& d) {
  os << "t=" << d.time << (d.ok ? " ok" : " error") << " [" << d.start << "+"
     << d.nblocks << (d.write ? " w" : " r") << "] head=" << d.head
     << " busy=" << d.busy << " queued=" << d.queue_depth << " tags";
  for (int t : d.tags) os << ' ' << t;
  const auto& [req, svc, br, bw, busy_time, maxq, err] = d.stats;
  return os << " stats " << req << '/' << svc << '/' << br << '/' << bw << '/'
            << busy_time << '/' << maxq << '/' << err;
}

/// One side of the twin: a simulator, an optional fault injector and a disk
/// of type D (the indexed Disk or the oracle), fed by the same seeded stream.
template <class D>
class Side {
 public:
  Side(const Stream& stream, std::uint64_t seed)
      : stream_(stream), sim_(seed), gen_(seed * 0x9E3779B97F4A7C15ULL + 17),
        disk_(sim_, small_disk()) {
    if (!stream.faults.empty()) {
      FaultPlan plan;
      for (const char* spec : stream.faults) plan.add(FaultSpec::parse(spec));
      injector_ = std::make_unique<FaultInjector>(sim_, plan);
      disk_.set_fault_injector(injector_.get(), 0);
    }
    bases_.reserve(static_cast<std::size_t>(stream.clusters));
    const auto span = static_cast<std::uint64_t>(
        small_disk().num_blocks - 4 * stream.offsets - 8);
    for (int c = 0; c < stream.clusters; ++c) {
      bases_.push_back(static_cast<BlockNum>(gen_.next_below(span)));
    }
    resubmits_left_ = stream.resubmits;
  }

  void run() {
    SimTime t = 0;
    for (int b = 0; b < stream_.bursts; ++b) {
      const auto n =
          stream_.min_burst +
          static_cast<int>(gen_.next_below(static_cast<std::uint64_t>(
              stream_.max_burst - stream_.min_burst + 1)));
      (void)sim_.at(t, [this, n] {
        for (int i = 0; i < n; ++i) submit_next();
      });
      t += static_cast<SimTime>(
          gen_.next_below(static_cast<std::uint64_t>(stream_.max_gap) + 1));
    }
    if (stream_.fail_at >= 0) {
      (void)sim_.at(stream_.fail_at, [this] { disk_.fail_device(); });
    }
    sim_.run();
  }

  [[nodiscard]] const D& disk() const { return disk_; }
  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return deliveries_;
  }

 private:
  struct Request {
    BlockNum start;
    BlockNum nblocks;
    bool write;
  };

  void submit_next() {
    const int tag = static_cast<int>(requests_.size());
    // Mostly 4-block requests on a 4-block grid, so exactly contiguous
    // chains and same-start ties are common; the odd lengths break chains.
    const BlockNum base = bases_[gen_.next_below(bases_.size())];
    const BlockNum start =
        base + 4 * static_cast<BlockNum>(gen_.next_below(
                       static_cast<std::uint64_t>(stream_.offsets)));
    const BlockNum nblocks =
        gen_.next_below(4) != 0 ? 4 : 1 + static_cast<BlockNum>(gen_.next_below(8));
    const bool write = gen_.next_below(2) == 0;
    const IoPriority priority = gen_.next_below(10) < 3
                                    ? IoPriority::kBackground
                                    : IoPriority::kForeground;
    requests_.push_back({start, nblocks, write});
    disk_.submit({.start = start, .nblocks = nblocks, .write = write,
                  .priority = priority,
                  .on_complete = [this, tag](IoResult r) { complete(tag, r); }});
  }

  void complete(int tag, IoResult result) {
    const std::uint64_t event = sim_.events_dispatched();
    if (deliveries_.empty() || event != last_event_) {
      const Request& first = requests_[static_cast<std::size_t>(tag)];
      Delivery& d = deliveries_.emplace_back();
      d.time = sim_.now();
      d.ok = result.ok;
      d.start = first.start;
      d.write = first.write;
      d.head = disk_.head();
      last_event_ = event;
    }
    Delivery& d = deliveries_.back();
    EXPECT_EQ(d.ok, result.ok) << "a merged transfer shares one outcome";
    d.tags.push_back(tag);
    d.nblocks += requests_[static_cast<std::size_t>(tag)].nblocks;
    // Some completions submit a follow-up request, which may start the next
    // service from inside this delivery. The state is sampled after each
    // completion, so a delivery keeps the state after its last one.
    if (resubmits_left_ > 0 && gen_.next_below(3) == 0) {
      --resubmits_left_;
      submit_next();
    }
    d.busy = disk_.busy();
    d.queue_depth = disk_.queue_depth();
    d.stats = counters(disk_.stats());
  }

  const Stream& stream_;
  Simulator sim_;
  Rng gen_;
  std::unique_ptr<FaultInjector> injector_;
  D disk_;
  std::vector<BlockNum> bases_;
  std::vector<Request> requests_;
  int resubmits_left_ = 0;
  std::vector<Delivery> deliveries_;
  std::uint64_t last_event_ = 0;
};

/// Runs \p stream through both elevators and returns the indexed one's
/// counters.
Disk::Stats run_twins(const Stream& stream, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << stream.name << ", seed " << seed);
  Side<Disk> got(stream, seed);
  Side<oracle::Disk> want(stream, seed);
  got.run();
  want.run();

  const auto& a = got.deliveries();
  const auto& b = want.deliveries();
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) {
      ADD_FAILURE() << "delivery " << i << "\n  indexed: " << a[i]
                    << "\n  deque:   " << b[i];
      return got.disk().stats();
    }
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(counters(got.disk().stats()), counters(want.disk().stats()));
  EXPECT_EQ(got.disk().head(), want.disk().head());
  EXPECT_EQ(got.disk().failed(), want.disk().failed());
  EXPECT_EQ(got.disk().queue_depth(), 0u);
  EXPECT_EQ(want.disk().queue_depth(), 0u);
  return got.disk().stats();
}

TEST(DiskDifferential, DeepQueuePastSerialPagingsPeak) {
  // 13,000 requests at once: the queue grows past the 12,735 requests
  // serial_paging's disk reaches, and drains through long merge chains.
  const Stream stream{.name = "deep", .bursts = 1, .min_burst = 13000,
                      .max_burst = 13000, .max_gap = 0, .clusters = 12,
                      .offsets = 128, .resubmits = 500};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    EXPECT_GT(run_twins(stream, seed).max_queue_depth, 12735u);
  }
}

TEST(DiskDifferential, RandomStreamsMatchTheDequeElevator) {
  const Stream streams[] = {
      // The queue stays under about 15 requests: picks from a near-empty
      // queue, and few merges.
      {.name = "trickle", .bursts = 600, .min_burst = 1, .max_burst = 2,
       .max_gap = 80 * kMillisecond, .clusters = 4, .offsets = 16,
       .resubmits = 50},
      // Dense ties: few distinct starts, so most picks and merges choose
      // among several requests with the same start.
      {.name = "ties", .bursts = 80, .min_burst = 1, .max_burst = 60,
       .max_gap = 60 * kMillisecond, .clusters = 2, .offsets = 6,
       .resubmits = 200},
      {.name = "bursts", .bursts = 60, .min_burst = 1, .max_burst = 400,
       .max_gap = 500 * kMillisecond, .clusters = 8, .offsets = 64,
       .resubmits = 300},
      // Transient errors and a fail-slow window draw from the injector once
      // per service, so its draws line up only if the services do.
      {.name = "faulty", .bursts = 60, .min_burst = 1, .max_burst = 120,
       .max_gap = 200 * kMillisecond, .clusters = 6, .offsets = 32,
       .resubmits = 200,
       .faults = {"disk_transient p=0.2",
                  "disk_slow start_s=1 end_s=4 slow=3"}},
      // The device dies mid-stream: queued requests error in arrival order,
      // the in-flight one on landing, and later submits at once.
      {.name = "fail mid-stream", .bursts = 60, .min_burst = 1,
       .max_burst = 150,
       .max_gap = 100 * kMillisecond, .clusters = 6, .offsets = 32,
       .resubmits = 100, .fail_at = 2 * kSecond,
       .faults = {"disk_transient p=0.1"}},
  };
  for (const Stream& stream : streams) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      (void)run_twins(stream, seed);
    }
  }
}

}  // namespace
}  // namespace apsim
