// Policy-conformance harness: every policy registered in
// gang/policy_registry.hpp is run through the same open-arrival obstacle
// course (staggered submissions, mixed widths, a mid-run node failure) with
// the SchedulerPolicy contract checked continuously:
//   - jobs_at() never names a done job, a job without a live placement
//     claim on the node, or a job on a fenced/crashed node;
//   - no (slot, node) cell exceeds max_coscheduled();
//   - work conservation: while an admitted unfinished job exists, the
//     schedule is non-empty;
//   - every admitted job eventually runs to completion or is explicitly
//     abandoned (failed), never silently forgotten;
// plus sweep-level determinism at 1, 2 and 8 worker threads.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "gang/gang_scheduler.hpp"
#include "gang/policy_registry.hpp"
#include "harness/runner.hpp"
#include "outcome_compare.hpp"
#include "workloads/generator.hpp"

namespace apsim {
namespace {

struct PolicyConformance : ::testing::TestWithParam<std::string> {
  static NodeParams node_params() {
    NodeParams n;
    n.vmm.total_frames = 2048;
    n.vmm.freepages_min = 8;
    n.vmm.freepages_low = 12;
    n.vmm.freepages_high = 16;
    n.disk.num_blocks = 1 << 16;
    return n;
  }

  PolicyConformance() : cluster(3, node_params()) {}

  /// A job spanning `nodes`, one sweeper rank per node, with open-arrival
  /// metadata so estimate/deadline-driven policies have material.
  Job& make_job(GangScheduler& scheduler, const std::string& name,
                const std::vector<int>& nodes, std::int64_t pages,
                std::int64_t iterations, bool open) {
    Job& job = open ? scheduler.submit_job(name) : scheduler.create_job(name);
    job.declared_ws_pages = pages;
    job.estimated_runtime = iterations * pages * (20 * kMicrosecond);
    job.deadline = cluster.sim().now() + 3 * *job.estimated_runtime;
    for (std::size_t r = 0; r < nodes.size(); ++r) {
      SweepOptions options;
      options.pages = pages;
      options.iterations = iterations;
      options.compute_per_touch = 20 * kMicrosecond;
      const int node = nodes[r];
      const Pid pid = cluster.node(node).vmm().create_process(pages);
      procs.push_back(std::make_unique<Process>(
          name + ":" + std::to_string(r), pid, make_sweep_program(options)));
      cluster.node(node).cpu().attach(*procs.back());
      job.add_process(node, *procs.back());
    }
    return job;
  }

  /// The SchedulerPolicy contract, checked against the live engine state.
  void check_invariants(GangScheduler& scheduler) {
    SchedulerPolicy& policy = scheduler.policy();
    const int nslots = policy.num_slots();
    const int max_share = policy.max_coscheduled();
    ASSERT_GE(nslots, 0);
    ASSERT_GE(max_share, 1);
    std::vector<int> cell;
    for (int slot = 0; slot < nslots; ++slot) {
      for (int node = 0; node < cluster.size(); ++node) {
        cell.clear();
        policy.jobs_at(slot, node, cell);
        ASSERT_LE(static_cast<int>(cell.size()), max_share)
            << "cell (" << slot << ", " << node << ") oversubscribed";
        for (int id : cell) {
          ASSERT_GE(id, 0);
          ASSERT_LT(id, static_cast<int>(scheduler.jobs().size()));
          const Job& job = *scheduler.jobs()[static_cast<std::size_t>(id)];
          EXPECT_FALSE(job.done())
              << job.name() << " is done but still scheduled";
          EXPECT_TRUE(scheduler.node_alive(node))
              << job.name() << " scheduled on fenced node " << node;
          EXPECT_NE(job.process_on(node), nullptr)
              << job.name() << " scheduled on node " << node
              << " without a placement there";
          EXPECT_TRUE(scheduler.admitted(job));
        }
      }
    }
    // Work conservation: an admitted, unfinished, non-suspended job means
    // the schedule cannot be empty.
    for (const auto& job : scheduler.jobs()) {
      if (job->done() || !scheduler.admitted(*job)) continue;
      if (scheduler.suspended(*job)) continue;
      bool placed_alive = true;
      for (const auto& pl : job->processes()) {
        if (!scheduler.node_alive(pl.node)) placed_alive = false;
      }
      if (!placed_alive) continue;  // casualty handling is in flight
      EXPECT_GT(policy.num_slots(), 0)
          << job->name() << " is admitted and waiting on an empty schedule";
      break;
    }
  }

  Cluster cluster;
  std::vector<std::unique_ptr<Process>> procs;
};

TEST_P(PolicyConformance, ObstacleCourseKeepsTheContract) {
  GangParams params;
  params.quantum = kSecond;
  params.sched_policy = GetParam();
  GangScheduler scheduler(cluster, params);

  // Two jobs present at start().
  make_job(scheduler, "seed0", {0, 1, 2}, 256, 400, /*open=*/false);
  make_job(scheduler, "seed1", {0}, 128, 300, /*open=*/false);
  scheduler.start();

  // Open arrivals: mixed widths, staggered in time.
  struct Arrival {
    SimTime at;
    std::vector<int> nodes;
    std::int64_t pages;
    std::int64_t iterations;
  };
  const std::vector<Arrival> arrivals = {
      {500 * kMillisecond, {1, 2}, 192, 350},
      {1500 * kMillisecond, {2}, 96, 250},
      {2500 * kMillisecond, {0, 1, 2}, 160, 300},
      {4 * kSecond, {1}, 64, 200},
  };
  int arrived = 0;
  for (const Arrival& a : arrivals) {
    (void)cluster.sim().at(a.at, [&, a] {
      Job& job = make_job(scheduler,
                          "open" + std::to_string(arrived), a.nodes, a.pages,
                          a.iterations, /*open=*/true);
      scheduler.start_job(job);
      ++arrived;
    });
  }

  // Crash node 2 mid-run: jobs placed there must be explicitly failed, and
  // no cell may keep naming the node afterwards.
  (void)cluster.sim().at(3 * kSecond, [&] { cluster.fail_node(2); });

  // Continuous contract checking.
  std::function<void()> audit = [&] {
    check_invariants(scheduler);
    if (!scheduler.all_finished() || arrived < 4) {
      (void)cluster.sim().after(100 * kMillisecond, audit);
    }
  };
  (void)cluster.sim().after(50 * kMillisecond, audit);

  const bool finished = cluster.sim().run_until(
      [&] { return arrived == 4 && scheduler.all_finished(); }, 30 * kMinute);
  ASSERT_TRUE(finished) << "policy " << GetParam() << " stalled";

  // Every job reached an explicit terminal state: ran to completion, or was
  // abandoned (failed) — never silently dropped from the books.
  for (const auto& job : scheduler.jobs()) {
    EXPECT_TRUE(job->finished() || job->failed()) << job->name();
    EXPECT_TRUE(scheduler.admitted(*job) || job->failed()) << job->name();
    // Jobs placed on the fenced node can only have ended by failing or by
    // finishing before the fence dropped.
    if (job->failed()) {
      EXPECT_FALSE(job->finished()) << job->name();
    }
  }
  check_invariants(scheduler);
}

TEST_P(PolicyConformance, OpenArrivalRunIsThreadCountIndependent) {
  ExperimentConfig config;
  config.nodes = 2;
  config.instances = 6;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.quantum = kSecond / 2;
  config.sched_policy = GetParam();
  config.arrival_process = "poisson";
  config.arrival_mean_s = 0.5;
  config.open_max_width = 2;
  config.open_min_pages = 512;
  config.open_max_pages = 1024;
  config.open_min_iterations = 4;
  config.open_max_iterations = 10;
  config.auto_migrate = GetParam() == "dfrs";

  // The same four-run sweep must be bit-identical at 1, 2 and 8 worker
  // threads: each simulation is shared-nothing, and the policy registry's
  // name list is handed out by value.
  const std::vector<ExperimentConfig> configs(4, config);
  const std::function<RunOutcome(const ExperimentConfig&)> fn = run_config;
  const std::vector<RunOutcome> t1 = parallel_map<RunOutcome>(configs, fn, 1);
  const std::vector<RunOutcome> t2 = parallel_map<RunOutcome>(configs, fn, 2);
  const std::vector<RunOutcome> t8 = parallel_map<RunOutcome>(configs, fn, 8);
  ASSERT_EQ(t1.size(), configs.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    expect_same_outcome(t1[i], t2[i]);
    expect_same_outcome(t1[i], t8[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredPolicies, PolicyConformance,
                         ::testing::ValuesIn(sched_policy_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace apsim
