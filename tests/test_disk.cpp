// Unit tests for the disk cost model, the C-LOOK scheduler, request
// coalescing, and priority handling — the physics behind block paging.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "disk/disk.hpp"
#include "sim/simulator.hpp"

namespace apsim {
namespace {

DiskParams small_disk() {
  DiskParams p;
  p.num_blocks = 100000;
  return p;
}

TEST(DiskModel, SeekTimeMonotonicInDistance) {
  DiskModel model(small_disk());
  EXPECT_EQ(model.seek_time(0, 0), 0);
  const auto near = model.seek_time(0, 10);
  const auto mid = model.seek_time(0, 10000);
  const auto far = model.seek_time(0, 99999);
  EXPECT_GT(near, 0);
  EXPECT_LT(near, mid);
  EXPECT_LT(mid, far);
  EXPECT_LE(far, model.params().full_stroke_seek);
}

TEST(DiskModel, SeekSymmetric) {
  DiskModel model(small_disk());
  EXPECT_EQ(model.seek_time(100, 5000), model.seek_time(5000, 100));
}

TEST(DiskModel, TransferTimeLinear) {
  DiskModel model(small_disk());
  const auto one = model.transfer_time(1);
  const auto hundred = model.transfer_time(100);
  EXPECT_NEAR(static_cast<double>(hundred),
              100.0 * static_cast<double>(one), 100.0);
}

TEST(DiskModel, SequentialAccessSkipsSeekAndRotation) {
  DiskModel model(small_disk());
  const auto sequential = model.service_time(500, 500, 8);
  const auto random = model.service_time(0, 500, 8);
  EXPECT_EQ(sequential,
            model.params().per_request_overhead + model.transfer_time(8));
  EXPECT_GT(random, sequential + model.params().rotation_half());
}

TEST(DiskModel, BlockTransferBeatsScattered) {
  // The core economics of block paging: one 64-block transfer must be far
  // cheaper than 64 scattered single-block transfers.
  DiskModel model(small_disk());
  const auto block = model.service_time(0, 50000, 64);
  SimDuration scattered = 0;
  for (int i = 0; i < 64; ++i) {
    scattered += model.service_time(i * 1000, (i + 1) * 1000, 1);
  }
  EXPECT_GT(scattered, 8 * block);
}

TEST(Disk, CompletesRequestAndMovesHead) {
  Simulator sim;
  Disk disk(sim, small_disk());
  bool done = false;
  disk.submit({.start = 100, .nblocks = 4, .write = false,
               .priority = IoPriority::kForeground,
               .on_complete = [&](IoResult result) {
                 EXPECT_TRUE(result.ok);
                 done = true;
               }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(disk.head(), 104);
  EXPECT_EQ(disk.stats().blocks_read, 4u);
  EXPECT_EQ(disk.stats().services, 1u);
}

TEST(Disk, ClookOrdersService) {
  Simulator sim;
  Disk disk(sim, small_disk());
  std::vector<int> order;
  // Busy the head with a request at 0, then queue out-of-order requests.
  disk.submit({.start = 0, .nblocks = 1, .write = false,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  auto submit = [&](int tag, BlockNum start) {
    disk.submit({.start = start, .nblocks = 1, .write = false,
                 .priority = IoPriority::kForeground,
                 .on_complete =
                     [&order, tag](IoResult) { order.push_back(tag); }});
  };
  submit(3, 9000);
  submit(1, 100);
  submit(2, 5000);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Disk, CoalescesContiguousRequests) {
  Simulator sim;
  Disk disk(sim, small_disk());
  int completions = 0;
  // First request makes the device busy so the rest sit in the queue and
  // can merge.
  disk.submit({.start = 0, .nblocks = 1, .write = true,
               .priority = IoPriority::kForeground,
               .on_complete = [&](IoResult) { ++completions; }});
  for (int i = 0; i < 8; ++i) {
    disk.submit({.start = 1000 + i * 4, .nblocks = 4, .write = true,
                 .priority = IoPriority::kForeground,
                 .on_complete = [&](IoResult) { ++completions; }});
  }
  sim.run();
  EXPECT_EQ(completions, 9);
  // 1 head request + 1 merged transfer.
  EXPECT_EQ(disk.stats().services, 2u);
  EXPECT_EQ(disk.stats().blocks_written, 33u);
}

TEST(Disk, DoesNotMergeReadsIntoWrites) {
  Simulator sim;
  Disk disk(sim, small_disk());
  disk.submit({.start = 0, .nblocks = 1, .write = false,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  disk.submit({.start = 100, .nblocks = 4, .write = true,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  disk.submit({.start = 104, .nblocks = 4, .write = false,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  sim.run();
  EXPECT_EQ(disk.stats().services, 3u);
}

TEST(Disk, BackgroundYieldsToForeground) {
  Simulator sim;
  Disk disk(sim, small_disk());
  std::vector<char> order;
  disk.submit({.start = 0, .nblocks = 1, .write = false,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  disk.submit({.start = 10, .nblocks = 1, .write = true,
               .priority = IoPriority::kBackground,
               .on_complete = [&](IoResult) { order.push_back('b'); }});
  disk.submit({.start = 20, .nblocks = 1, .write = false,
               .priority = IoPriority::kForeground,
               .on_complete = [&](IoResult) { order.push_back('f'); }});
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'f', 'b'}));
}

TEST(Disk, ClookWrapsToLowestAfterEnd) {
  Simulator sim;
  Disk disk(sim, small_disk());
  std::vector<int> order;
  // Busy the head at a high position, then queue requests below it plus one
  // above: C-LOOK serves the one ahead first, then wraps to the lowest.
  disk.submit({.start = 50000, .nblocks = 1, .write = false,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  auto submit = [&](int tag, BlockNum start) {
    disk.submit({.start = start, .nblocks = 1, .write = false,
                 .priority = IoPriority::kForeground,
                 .on_complete =
                     [&order, tag](IoResult) { order.push_back(tag); }});
  };
  submit(3, 20000);  // behind the head: served after the wrap
  submit(1, 60000);  // ahead: served first
  submit(2, 100);    // lowest: first after the wrap
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Disk, MergeStopsAtGaps) {
  Simulator sim;
  Disk disk(sim, small_disk());
  disk.submit({.start = 0, .nblocks = 1, .write = true,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  // Two contiguous requests, then a gap, then another pair.
  for (BlockNum start : {1000, 1004, 2000, 2004}) {
    disk.submit({.start = start, .nblocks = 4, .write = true,
                 .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  }
  sim.run();
  // head request + two merged groups.
  EXPECT_EQ(disk.stats().services, 3u);
}

TEST(Disk, UtilizationBetweenZeroAndOne) {
  Simulator sim;
  Disk disk(sim, small_disk());
  disk.submit({.start = 1000, .nblocks = 64, .write = true,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  sim.run();
  EXPECT_GT(disk.utilization(), 0.0);
  EXPECT_LE(disk.utilization(), 1.0);
}

TEST(Disk, ClookTiesGoToEarliestArrival) {
  Simulator sim;
  Disk disk(sim, small_disk());
  std::vector<int> order;
  disk.submit({.start = 50000, .nblocks = 1, .write = false,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  auto submit = [&](int tag, BlockNum start) {
    disk.submit({.start = start, .nblocks = 1, .write = false,
                 .priority = IoPriority::kForeground,
                 .on_complete =
                     [&order, tag](IoResult) { order.push_back(tag); }});
  };
  // Three requests share a start ahead of the head and three share a start
  // behind it. Serving one at 60000 leaves the head past its twins, so the
  // elevator alternates between the two starts, taking each start's
  // requests in submit order.
  submit(1, 60000);
  submit(2, 100);
  submit(3, 60000);
  submit(4, 100);
  submit(5, 60000);
  submit(6, 100);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Disk, MergeTakesEarliestSameDirectionRequest) {
  Simulator sim;
  Disk disk(sim, small_disk());
  std::vector<std::pair<char, SimTime>> done;
  auto submit = [&](char tag, BlockNum start, bool write) {
    disk.submit({.start = start, .nblocks = 4, .write = write,
                 .priority = IoPriority::kForeground,
                 .on_complete = [&done, &sim, tag](IoResult) {
                   done.emplace_back(tag, sim.now());
                 }});
  };
  disk.submit({.start = 0, .nblocks = 1, .write = false,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  submit('a', 1000, true);
  // Three candidates at 1004, the block after 'a': a read, then two writes.
  submit('r', 1004, false);
  submit('b', 1004, true);
  submit('c', 1004, true);
  sim.run();
  // 'a' absorbs only 'b'; then the head wraps to 1004 for 'r' and 'c'.
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0].first, 'a');
  EXPECT_EQ(done[1].first, 'b');
  EXPECT_EQ(done[0].second, done[1].second);
  EXPECT_EQ(done[2].first, 'r');
  EXPECT_EQ(done[3].first, 'c');
  EXPECT_LT(done[1].second, done[2].second);
  EXPECT_LT(done[2].second, done[3].second);
  EXPECT_EQ(disk.stats().services, 4u);
  EXPECT_EQ(disk.stats().blocks_written, 12u);
  EXPECT_EQ(disk.stats().blocks_read, 5u);
}

TEST(Disk, FailDeviceErrorsQueuedRequestsInArrivalOrder) {
  Simulator sim;
  Disk disk(sim, small_disk());
  std::vector<int> errors;
  auto submit = [&](int tag, BlockNum start, IoPriority priority) {
    disk.submit({.start = start, .nblocks = 1, .write = tag % 2 == 0,
                 .priority = priority, .on_complete = [&errors, tag](IoResult r) {
                   EXPECT_FALSE(r.ok);
                   errors.push_back(tag);
                 }});
  };
  submit(0, 30000, IoPriority::kForeground);  // in flight when the device dies
  submit(11, 9000, IoPriority::kForeground);
  submit(21, 500, IoPriority::kBackground);
  submit(12, 100, IoPriority::kForeground);
  submit(22, 7000, IoPriority::kBackground);
  submit(13, 5000, IoPriority::kForeground);
  submit(23, 20, IoPriority::kBackground);
  disk.fail_device();
  EXPECT_EQ(disk.queue_depth(), 0u);
  sim.run();
  // Queued requests error first, foreground then background, each in
  // arrival order; the in-flight transfer errors when it lands.
  EXPECT_EQ(errors, (std::vector<int>{11, 12, 13, 21, 22, 23, 0}));
  EXPECT_EQ(disk.stats().io_errors, 7u);
  EXPECT_EQ(disk.stats().services, 1u);
}

TEST(Disk, CompletionThatResubmitsStartsTheNextService) {
  Simulator sim;
  Disk disk(sim, small_disk());
  std::vector<char> order;
  SimTime landed = -1;
  SimTime resubmitted_done = -1;
  disk.submit({.start = 0, .nblocks = 1, .write = true,
               .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  // a, b and c merge into one transfer over [1000, 1012); a's completion,
  // the first of the three, submits a read elsewhere.
  disk.submit({.start = 1000, .nblocks = 4, .write = true,
               .priority = IoPriority::kForeground,
               .on_complete = [&](IoResult r) {
                 EXPECT_TRUE(r.ok);
                 order.push_back('a');
                 landed = sim.now();
                 EXPECT_FALSE(disk.busy());
                 disk.submit({.start = 5000, .nblocks = 1, .write = false,
                              .priority = IoPriority::kForeground,
                              .on_complete = [&](IoResult r2) {
                                EXPECT_TRUE(r2.ok);
                                order.push_back('d');
                                resubmitted_done = sim.now();
                              }});
                 EXPECT_TRUE(disk.busy());
               }});
  for (char tag : {'b', 'c'}) {
    disk.submit({.start = tag == 'b' ? 1004 : 1008, .nblocks = 4, .write = true,
                 .priority = IoPriority::kForeground,
                 .on_complete = [&, tag](IoResult r) {
                   EXPECT_TRUE(r.ok);
                   EXPECT_EQ(sim.now(), landed);
                   EXPECT_TRUE(disk.busy());
                   order.push_back(tag);
                 }});
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
  EXPECT_EQ(resubmitted_done,
            landed + disk.model().service_time(1012, 5000, 1));
  EXPECT_EQ(disk.head(), 5001);
  EXPECT_EQ(disk.stats().services, 3u);
  EXPECT_EQ(disk.stats().requests, 5u);
}

TEST(Disk, QueueDepthTracked) {
  Simulator sim;
  Disk disk(sim, small_disk());
  for (int i = 0; i < 5; ++i) {
    disk.submit({.start = i * 500, .nblocks = 1, .write = false,
                 .priority = IoPriority::kForeground, .on_complete = [](IoResult) {}});
  }
  EXPECT_GE(disk.stats().max_queue_depth, 4u);
  sim.run();
  EXPECT_EQ(disk.queue_depth(), 0u);
}

}  // namespace
}  // namespace apsim
