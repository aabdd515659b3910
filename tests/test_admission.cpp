// Tests for the memory-aware admission-control extension and the extra
// replacement-policy baselines (exact LRU, FIFO).

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "gang/gang_scheduler.hpp"
#include "mem/reclaim_extra.hpp"
#include "workloads/generator.hpp"

namespace apsim {
namespace {

struct AdmissionFixture : ::testing::Test {
  static NodeParams node_params() {
    NodeParams n;
    n.vmm.total_frames = 1000;
    n.vmm.freepages_min = 8;
    n.vmm.freepages_low = 12;
    n.vmm.freepages_high = 16;
    n.disk.num_blocks = 1 << 15;
    return n;
  }

  AdmissionFixture() : cluster(1, node_params()) {}

  Job& add_job(GangScheduler& scheduler, const std::string& name,
               std::int64_t ws_pages, std::int64_t iterations) {
    Job& job = scheduler.create_job(name);
    SweepOptions options;
    options.pages = ws_pages;
    options.iterations = iterations;
    options.compute_per_touch = 20 * kMicrosecond;
    const Pid pid = cluster.node(0).vmm().create_process(ws_pages);
    procs.push_back(std::make_unique<Process>(name, pid,
                                              make_sweep_program(options)));
    cluster.node(0).cpu().attach(*procs.back());
    job.add_process(0, *procs.back());
    job.declared_ws_pages = ws_pages;
    return job;
  }

  Cluster cluster;
  std::vector<std::unique_ptr<Process>> procs;
};

TEST_F(AdmissionFixture, OvercommittingJobWaitsUntilMemoryFrees) {
  GangParams params;
  params.quantum = kSecond;
  params.sched_policy = "admission";
  GangScheduler scheduler(cluster, params);
  Job& big = add_job(scheduler, "big", 600, 200);
  Job& other = add_job(scheduler, "other", 600, 200);  // 1200 > 900 budget
  scheduler.start();
  EXPECT_TRUE(scheduler.admitted(big));
  EXPECT_FALSE(scheduler.admitted(other));
  EXPECT_EQ(procs[1]->state(), ProcState::kStopped);

  ASSERT_TRUE(cluster.sim().run_until(
      [&] { return scheduler.all_finished(); }, 30 * kMinute));
  EXPECT_TRUE(scheduler.admitted(other));  // admitted after big exited
  // Strictly serialized: the waiting job started only after the first done.
  EXPECT_GT(other.finished_at(), 2 * big.finished_at() - kSecond);
  // And no switch paging happened at all.
  EXPECT_EQ(cluster.node(0).vmm().space(procs[1]->pid()).stats().major_faults,
            0u);
}

TEST_F(AdmissionFixture, FittingJobsTimeshareNormally) {
  GangParams params;
  params.quantum = kSecond;
  params.sched_policy = "admission";
  GangScheduler scheduler(cluster, params);
  Job& a = add_job(scheduler, "a", 300, 400);
  Job& b = add_job(scheduler, "b", 300, 400);  // 600 <= 900 budget
  scheduler.start();
  EXPECT_TRUE(scheduler.admitted(a));
  EXPECT_TRUE(scheduler.admitted(b));
  ASSERT_TRUE(cluster.sim().run_until(
      [&] { return scheduler.all_finished(); }, 30 * kMinute));
  // Timeshared: completions are interleaved, not back to back.
  EXPECT_LT(b.finished_at(), 2 * a.finished_at());
  EXPECT_GT(scheduler.switches(), 0);
}

TEST_F(AdmissionFixture, DisabledAdmissionAdmitsEverything) {
  GangParams params;
  params.quantum = kSecond;
  params.sched_policy = "matrix";
  GangScheduler scheduler(cluster, params);
  Job& big = add_job(scheduler, "big", 600, 50);
  Job& other = add_job(scheduler, "other", 600, 50);
  scheduler.start();
  EXPECT_TRUE(scheduler.admitted(big));
  EXPECT_TRUE(scheduler.admitted(other));
}

struct PolicyBaselineFixture : ::testing::Test {
  Simulator sim;
  Disk disk{sim, DiskParams{.num_blocks = 1 << 14}};
  SwapDevice swap{disk, 0, 1 << 14};
  Vmm vmm{sim, swap, VmmParams{.total_frames = 256,
                               .freepages_min = 8,
                               .freepages_low = 12,
                               .freepages_high = 16}};

  Pid populated(std::int64_t pages) {
    const Pid pid = vmm.create_process(pages);
    for (VPage v = 0; v < pages; ++v) {
      if (!vmm.touch(pid, v, true)) {
        bool done = false;
        vmm.fault(pid, v, true, [&] { done = true; });
        sim.run();
        EXPECT_TRUE(done);
      }
    }
    return pid;
  }
};

TEST_F(PolicyBaselineFixture, ExactLruEvictsGloballyOldest) {
  const Pid a = populated(60);
  const Pid b = populated(60);
  // Age a's pages: advance time and re-touch b only.
  (void)sim.at(sim.now() + kSecond, [&] {
    for (VPage v = 0; v < 60; ++v) {
      EXPECT_TRUE(vmm.touch(b, v, false));
    }
  });
  sim.run();
  ExactLruPolicy policy;
  auto victims = policy.select_victims(vmm, 40);
  ASSERT_EQ(victims.size(), 40u);
  for (const auto& victim : victims) {
    EXPECT_EQ(victim.pid, a) << "LRU must pick the untouched process first";
  }
}

TEST_F(PolicyBaselineFixture, ExactLruIgnoresReferencedBitSecondChance) {
  // Unlike the clock, exact LRU evicts a just-referenced page if it is
  // globally oldest by timestamp ordering of everything else.
  const Pid a = populated(20);
  ExactLruPolicy policy;
  auto victims = policy.select_victims(vmm, 5);
  ASSERT_EQ(victims.size(), 5u);
  for (const auto& victim : victims) {
    EXPECT_EQ(victim.pid, a);
  }
}

TEST_F(PolicyBaselineFixture, FifoCyclesThroughResidentSet) {
  const Pid a = populated(50);
  (void)a;
  FifoPolicy policy;
  auto first = policy.select_victims(vmm, 20);
  ASSERT_EQ(first.size(), 20u);
  auto second = policy.select_victims(vmm, 20);
  ASSERT_EQ(second.size(), 20u);
  // No overlap: the cursor advances.
  for (const auto& v1 : first) {
    for (const auto& v2 : second) {
      EXPECT_FALSE(v1 == v2);
    }
  }
}

TEST_F(PolicyBaselineFixture, BaselinesDriveRealEvictions) {
  for (int which = 0; which < 2; ++which) {
    if (which == 0) {
      vmm.set_reclaim_policy(std::make_unique<ExactLruPolicy>());
    } else {
      vmm.set_reclaim_policy(std::make_unique<FifoPolicy>());
    }
    const Pid pid = populated(100);
    bool done = false;
    vmm.request_free_frames(vmm.free_frames() + 50, [&] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
    EXPECT_LE(vmm.space(pid).resident_pages(), 100 - 40);
    vmm.release_process(pid);
    sim.run();
  }
}

}  // namespace
}  // namespace apsim
