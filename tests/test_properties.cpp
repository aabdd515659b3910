// Property-based tests: system-level invariants that must hold after any
// gang-scheduled run, swept over policy combinations and seeds with
// parameterized gtest. These catch accounting leaks (frames, swap slots,
// dirty counters) and ordering violations that unit tests can miss.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cluster/cluster.hpp"
#include "gang/gang_scheduler.hpp"
#include "net/mpi.hpp"
#include "workloads/npb.hpp"

namespace apsim {
namespace {

struct RunArtifacts {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<GangScheduler> scheduler;
  std::vector<std::unique_ptr<Process>> procs;
  bool finished = false;
};

/// Gang-schedule two small LU-class-W jobs on one memory-stressed node.
RunArtifacts run_stressed(const PolicySet& policy, std::uint64_t seed) {
  RunArtifacts artifacts;
  NodeParams node;
  node.vmm.total_frames = mb_to_pages(24.0);
  node.vmm.freepages_min = 32;
  node.vmm.freepages_low = 64;
  node.vmm.freepages_high = 96;
  node.disk.num_blocks = mb_to_pages(128.0);
  artifacts.cluster = std::make_unique<Cluster>(1, node, NetParams{}, seed);

  GangParams params;
  params.quantum = 5 * kSecond;
  params.pager.policy = policy;
  artifacts.scheduler =
      std::make_unique<GangScheduler>(*artifacts.cluster, params);

  const WorkloadSpec spec = npb_spec(NpbApp::kLU, NpbClass::kW);  // ~15 MB
  for (int j = 0; j < 2; ++j) {
    Job& job = artifacts.scheduler->create_job("job" + std::to_string(j));
    NpbBuildOptions options;
    options.seed = seed + static_cast<std::uint64_t>(j);
    options.iterations_scale = 0.15;
    const Pid pid = artifacts.cluster->node(0).vmm().create_process(
        spec.footprint_pages(1));
    artifacts.procs.push_back(std::make_unique<Process>(
        std::to_string(j).insert(0, 1, 'j'), pid,
        build_npb_program(spec, options)));
    artifacts.cluster->node(0).cpu().attach(*artifacts.procs.back());
    job.add_process(0, *artifacts.procs.back());
  }
  artifacts.scheduler->start();
  artifacts.finished = artifacts.cluster->sim().run_until(
      [&] { return artifacts.scheduler->all_finished(); }, 4 * 3600 * kSecond);
  return artifacts;
}

// The policy is a std::string, not a const char*: gtest prints a char pointer
// inside a tuple as its address, which would put a per-process address into
// every listed test name.
using PolicySeed = std::tuple<std::string, std::uint64_t>;

class InvariantTest : public ::testing::TestWithParam<PolicySeed> {};

TEST_P(InvariantTest, RunFinishesAndConservesResources) {
  const auto [policy_str, seed] = GetParam();
  auto artifacts = run_stressed(PolicySet::parse(policy_str), seed);
  ASSERT_TRUE(artifacts.finished) << "run hit the horizon";

  auto& vmm = artifacts.cluster->node(0).vmm();
  auto& swap = artifacts.cluster->node(0).swap();

  // All processes exited and were released: every frame is back in the free
  // pool and every swap slot returned.
  EXPECT_EQ(vmm.free_frames(), vmm.frames().usable_frames());
  EXPECT_EQ(swap.used_slots(), 0);

  // Per-space terminal state: nothing resident, nothing mid-I/O.
  for (Pid pid : vmm.pids()) {
    const auto& as = vmm.space(pid);
    EXPECT_FALSE(as.alive());
    EXPECT_EQ(as.resident_pages(), 0);
    EXPECT_EQ(as.dirty_pages(), 0);
    for (VPage v = 0; v < as.page_table().num_pages(); ++v) {
      const auto pte = as.page_table().at(v);
      EXPECT_FALSE(pte.present());
      EXPECT_FALSE(pte.io_busy());
      EXPECT_EQ(pte.frame(), kNoFrame);
      EXPECT_EQ(pte.slot(), kNoSwapSlot);
    }
  }

  // The disk never serviced more blocks than were submitted, and the queue
  // drained.
  EXPECT_EQ(artifacts.cluster->node(0).disk().queue_depth(), 0u);
  EXPECT_FALSE(artifacts.cluster->node(0).disk().busy());

  // Reclaim never had to release a strict waiter unsatisfied.
  EXPECT_EQ(vmm.stats().oom_waiter_releases, 0u);
}

TEST_P(InvariantTest, DeterministicReplay) {
  const auto [policy_str, seed] = GetParam();
  auto a = run_stressed(PolicySet::parse(policy_str), seed);
  auto b = run_stressed(PolicySet::parse(policy_str), seed);
  ASSERT_TRUE(a.finished);
  ASSERT_TRUE(b.finished);
  EXPECT_EQ(a.scheduler->makespan(), b.scheduler->makespan());
  EXPECT_EQ(a.scheduler->switches(), b.scheduler->switches());
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    EXPECT_EQ(a.procs[i]->stats().cpu_time, b.procs[i]->stats().cpu_time);
    EXPECT_EQ(a.procs[i]->stats().fault_wait, b.procs[i]->stats().fault_wait);
    EXPECT_EQ(a.procs[i]->stats().finished_at, b.procs[i]->stats().finished_at);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, InvariantTest,
    ::testing::Combine(::testing::Values("orig", "so", "ai", "so/ao",
                                         "so/ao/bg", "so/ao/ai/bg"),
                       ::testing::Values(1u, 7u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '/') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

/// Parallel variant: two 2-rank LU jobs with MPI collectives on a 2-node
/// memory-stressed cluster.
struct ParallelArtifacts {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<GangScheduler> scheduler;
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<std::unique_ptr<MpiComm>> comms;
  bool finished = false;
};

ParallelArtifacts run_parallel_stressed(const PolicySet& policy,
                                        std::uint64_t seed) {
  ParallelArtifacts artifacts;
  constexpr int kNodes = 2;
  NodeParams node;
  node.vmm.total_frames = mb_to_pages(13.0);
  node.vmm.freepages_min = 32;
  node.vmm.freepages_low = 64;
  node.vmm.freepages_high = 96;
  node.disk.num_blocks = mb_to_pages(128.0);
  artifacts.cluster =
      std::make_unique<Cluster>(kNodes, node, NetParams{}, seed);

  GangParams params;
  params.quantum = 5 * kSecond;
  params.pager.policy = policy;
  artifacts.scheduler =
      std::make_unique<GangScheduler>(*artifacts.cluster, params);

  const WorkloadSpec spec = npb_spec(NpbApp::kLU, NpbClass::kW);
  for (int j = 0; j < 2; ++j) {
    Job& job = artifacts.scheduler->create_job("pjob" + std::to_string(j));
    auto comm = std::make_unique<MpiComm>(artifacts.cluster->sim(),
                                          artifacts.cluster->network(), kNodes);
    for (int n = 0; n < kNodes; ++n) {
      NpbBuildOptions options;
      options.nprocs = kNodes;
      options.seed = seed + static_cast<std::uint64_t>(j);
      options.iterations_scale = 0.3;
      const Pid pid = artifacts.cluster->node(n).vmm().create_process(
          spec.footprint_pages(kNodes));
      artifacts.procs.push_back(std::make_unique<Process>(
          std::to_string(j).insert(0, 1, 'p') + ":" + std::to_string(n), pid,
          build_npb_program(spec, options)));
      artifacts.cluster->node(n).cpu().attach(*artifacts.procs.back());
      comm->bind(n, *artifacts.procs.back(), n);
      job.add_process(n, *artifacts.procs.back());
    }
    artifacts.comms.push_back(std::move(comm));
  }
  auto* comms = &artifacts.comms;
  for (int n = 0; n < kNodes; ++n) {
    artifacts.cluster->node(n).cpu().set_comm_handler(
        [comms](Process& p, const CommOp& op, std::function<void()> resume) {
          (*comms)[static_cast<std::size_t>(p.job_id)]->enter(
              p, op, std::move(resume));
        });
  }
  artifacts.scheduler->start();
  artifacts.finished = artifacts.cluster->sim().run_until(
      [&] { return artifacts.scheduler->all_finished(); },
      4 * 3600 * kSecond);
  return artifacts;
}

class ParallelInvariantTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelInvariantTest, ParallelRunConservesResourcesOnEveryNode) {
  auto artifacts = run_parallel_stressed(PolicySet::parse(GetParam()), 5);
  ASSERT_TRUE(artifacts.finished) << "run hit the horizon";
  for (int n = 0; n < artifacts.cluster->size(); ++n) {
    auto& vmm = artifacts.cluster->node(n).vmm();
    EXPECT_EQ(vmm.free_frames(), vmm.frames().usable_frames()) << "node " << n;
    EXPECT_EQ(artifacts.cluster->node(n).swap().used_slots(), 0) << "node " << n;
    EXPECT_EQ(vmm.stats().oom_waiter_releases, 0u) << "node " << n;
  }
  // Ranks of each job finish together (the final collective synchronizes
  // them up to the trailing compute of the last iteration).
  for (std::size_t j = 0; j < 2; ++j) {
    const auto& job = *artifacts.scheduler->jobs()[j];
    SimTime lo = job.finished_at();
    SimTime hi = 0;
    for (const auto& placement : job.processes()) {
      lo = std::min(lo, placement.process->stats().finished_at);
      hi = std::max(hi, placement.process->stats().finished_at);
    }
    EXPECT_LT(hi - lo, 2 * kSecond);
  }
}

TEST_P(ParallelInvariantTest, ParallelDeterministicReplay) {
  auto a = run_parallel_stressed(PolicySet::parse(GetParam()), 9);
  auto b = run_parallel_stressed(PolicySet::parse(GetParam()), 9);
  ASSERT_TRUE(a.finished);
  ASSERT_TRUE(b.finished);
  EXPECT_EQ(a.scheduler->makespan(), b.scheduler->makespan());
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    EXPECT_EQ(a.procs[i]->stats().comm_wait, b.procs[i]->stats().comm_wait);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ParallelInvariantTest,
                         ::testing::Values("orig", "so/ao", "so/ao/ai/bg"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '/') c = '_';
                           }
                           return name;
                         });

class DominanceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DominanceTest, AdaptivePolicyNeverMuchWorseThanOriginal) {
  // Under genuine memory stress every adaptive combination should beat — or
  // at the very least not meaningfully lose to — the original policy.
  auto orig = run_stressed(PolicySet::original(), 3);
  auto adaptive = run_stressed(PolicySet::parse(GetParam()), 3);
  ASSERT_TRUE(orig.finished);
  ASSERT_TRUE(adaptive.finished);
  EXPECT_LT(static_cast<double>(adaptive.scheduler->makespan()),
            1.05 * static_cast<double>(orig.scheduler->makespan()))
      << "policy " << GetParam() << " regressed vs orig";
}

INSTANTIATE_TEST_SUITE_P(Combos, DominanceTest,
                         ::testing::Values("so", "so/ao", "so/ao/bg",
                                           "so/ao/ai/bg"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '/') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace apsim
