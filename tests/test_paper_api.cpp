// Integration tests that exercise the paper's kernel API exactly as its
// Figure 5 architecture describes: a user-level scheduler issuing
// stop/cont signals around adaptive_page_out / adaptive_page_in /
// start_bgwrite / stop_bgwrite, across full switch cycles — and the paper's
// headline claims at miniature scale (false-eviction elimination, switch
// compaction, switch-time reduction).

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "core/adaptive_pager.hpp"
#include "gang/gang_scheduler.hpp"
#include "workloads/generator.hpp"

namespace apsim {
namespace {

struct PaperApiFixture : ::testing::Test {
  static NodeParams node_params() {
    NodeParams n;
    n.vmm.total_frames = mb_to_pages(20.0);  // 5120 frames
    n.vmm.freepages_min = 32;
    n.vmm.freepages_low = 64;
    n.vmm.freepages_high = 96;
    n.disk.num_blocks = mb_to_pages(256.0);
    return n;
  }

  PaperApiFixture() : cluster(1, node_params()) {}

  std::unique_ptr<Process> make_job(const std::string& name,
                                    std::int64_t iterations) {
    SweepOptions options;
    options.pages = mb_to_pages(14.0);  // two of these overcommit 20 MB
    options.iterations = iterations;
    options.compute_per_touch = 15 * kMicrosecond;
    const Pid pid = cluster.node(0).vmm().create_process(options.pages);
    auto proc =
        std::make_unique<Process>(name, pid, make_sweep_program(options));
    cluster.node(0).cpu().attach(*proc);
    return proc;
  }

  Cluster cluster;
};

TEST_F(PaperApiFixture, FullSwitchCycleThroughTheApi) {
  AdaptivePagerParams pparams;
  pparams.policy = PolicySet::all();
  AdaptivePager pager(cluster.node(0), pparams);
  auto& cpu = cluster.node(0).cpu();
  auto& vmm = cluster.node(0).vmm();
  auto& sim = cluster.sim();

  auto a = make_job("A", 2000);
  auto b = make_job("B", 2000);
  pager.register_process(a->pid());
  pager.register_process(b->pid());

  // Quantum 1: A runs; B stopped. (scheduler: SIGCONT A)
  pager.on_quantum_start(a->pid());
  cpu.cont_process(*a);
  sim.run(3 * kSecond);
  ASSERT_EQ(a->state(), ProcState::kRunning);
  const auto a_resident = vmm.space(a->pid()).resident_pages();
  EXPECT_GT(a_resident, mb_to_pages(12.0));

  // Near quantum end: start background writing for the running job.
  pager.start_bgwrite(a->pid());
  sim.run(sim.now() + kSecond);
  pager.stop_bgwrite();
  EXPECT_GT(pager.stats().bg_pages_written, 0u);

  // Switch A -> B: the paper's exact sequence.
  pager.on_quantum_end(a->pid());
  cpu.stop_process(*a);
  pager.adaptive_page_out(a->pid(), b->pid());
  pager.on_quantum_start(b->pid());
  pager.adaptive_page_in(b->pid());  // no record yet: no-op
  cpu.cont_process(*b);
  sim.run(sim.now() + 5 * kSecond);
  EXPECT_EQ(a->state(), ProcState::kStopped);
  EXPECT_EQ(b->state(), ProcState::kRunning);
  // B's working set displaced most of A.
  EXPECT_GT(vmm.space(b->pid()).resident_pages(), mb_to_pages(12.0));
  EXPECT_LT(vmm.space(a->pid()).resident_pages(), a_resident);
  // A's flushed pages were recorded for replay.
  EXPECT_GT(pager.recorder(a->pid()).pages(), 0);

  // Switch B -> A: the recorded set is replayed.
  const auto recorded = pager.recorder(a->pid()).pages();
  pager.on_quantum_end(b->pid());
  cpu.stop_process(*b);
  pager.adaptive_page_out(b->pid(), a->pid());
  pager.on_quantum_start(a->pid());
  pager.adaptive_page_in(a->pid());
  cpu.cont_process(*a);
  sim.run(sim.now() + 5 * kSecond);
  EXPECT_TRUE(pager.recorder(a->pid()).empty());
  EXPECT_EQ(pager.stats().pages_replayed,
            static_cast<std::uint64_t>(recorded));
  EXPECT_EQ(a->state(), ProcState::kRunning);
}

TEST_F(PaperApiFixture, SelectivePageOutEliminatesFalseEvictions) {
  // The paper's core pathology claim, at miniature scale: run the same
  // two-job rotation under orig and under `so`, and compare per-space
  // false-eviction counters.
  auto run = [this](PolicySet policy) {
    Cluster local(1, node_params());
    GangParams params;
    params.quantum = 2 * kSecond;
    params.pager.policy = policy;
    GangScheduler scheduler(local, params);
    std::vector<std::unique_ptr<Process>> procs;
    for (int j = 0; j < 2; ++j) {
      Job& job = scheduler.create_job(std::to_string(j).insert(0, 1, 'j'));
      SweepOptions options;
      options.pages = mb_to_pages(14.0);
      options.iterations = 1200;
      options.compute_per_touch = 15 * kMicrosecond;
      const Pid pid = local.node(0).vmm().create_process(options.pages);
      procs.push_back(std::make_unique<Process>(
          std::to_string(j).insert(0, 1, 'j'), pid,
          make_sweep_program(options)));
      local.node(0).cpu().attach(*procs.back());
      job.add_process(0, *procs.back());
    }
    scheduler.start();
    EXPECT_TRUE(local.sim().run_until(
        [&] { return scheduler.all_finished(); }, 4 * 3600 * kSecond));
    std::uint64_t false_evictions = 0;
    for (Pid pid : local.node(0).vmm().pids()) {
      false_evictions += local.node(0).vmm().space(pid).stats().false_evictions;
    }
    return false_evictions;
  };
  const auto orig = run(PolicySet::original());
  const auto selective = run(PolicySet::parse("so"));
  EXPECT_GT(orig, 0u);
  EXPECT_LT(selective, orig / 4) << "selective page-out must eliminate most "
                                    "false evictions";
}

TEST_F(PaperApiFixture, AdaptiveSwitchIsFasterEndToEnd) {
  // Headline: job switching time drops sharply. Proxy: incoming job's
  // fault-wait accumulated across the run.
  auto run = [this](PolicySet policy) {
    Cluster local(1, node_params());
    GangParams params;
    params.quantum = 2 * kSecond;
    params.pager.policy = policy;
    GangScheduler scheduler(local, params);
    std::vector<std::unique_ptr<Process>> procs;
    for (int j = 0; j < 2; ++j) {
      Job& job = scheduler.create_job(std::to_string(j).insert(0, 1, 'j'));
      SweepOptions options;
      options.pages = mb_to_pages(14.0);
      options.iterations = 1200;
      options.compute_per_touch = 15 * kMicrosecond;
      const Pid pid = local.node(0).vmm().create_process(options.pages);
      procs.push_back(std::make_unique<Process>(
          std::to_string(j).insert(0, 1, 'j'), pid,
          make_sweep_program(options)));
      local.node(0).cpu().attach(*procs.back());
      job.add_process(0, *procs.back());
    }
    scheduler.start();
    EXPECT_TRUE(local.sim().run_until(
        [&] { return scheduler.all_finished(); }, 4 * 3600 * kSecond));
    SimDuration fault_wait = 0;
    for (const auto& p : procs) fault_wait += p->stats().fault_wait;
    return fault_wait;
  };
  const auto orig = run(PolicySet::original());
  const auto adaptive = run(PolicySet::all());
  EXPECT_LT(adaptive, orig / 2)
      << "adaptive paging must at least halve total fault-stall time";
}

}  // namespace
}  // namespace apsim
