// Tests for the fault-injection subsystem: FaultSpec parsing, the
// FaultInjector's disk and control-plane hooks, device failure, and the
// failure-resilient behaviour of the VMM, gang scheduler, and harness
// (retry-then-recover, watchdog retransmission, node-crash fencing, clean
// out-of-swap job failure).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "gang/gang_scheduler.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "outcome_compare.hpp"
#include "workloads/generator.hpp"

namespace apsim {
namespace {

// ---------------------------------------------------------------------------
// FaultSpec parsing

TEST(FaultSpec, ParsesAllKindsAndKeys) {
  const auto transient =
      FaultSpec::parse("disk_transient node=0 start_s=10 end_s=60 p=0.05");
  EXPECT_EQ(transient.kind, FaultKind::kDiskTransient);
  EXPECT_EQ(transient.node, 0);
  EXPECT_EQ(transient.start, 10 * kSecond);
  EXPECT_EQ(transient.end, 60 * kSecond);
  EXPECT_DOUBLE_EQ(transient.probability, 0.05);

  const auto slow = FaultSpec::parse("disk_slow start_s=30 end_s=90 slow=4");
  EXPECT_EQ(slow.kind, FaultKind::kDiskSlow);
  EXPECT_EQ(slow.node, -1);
  EXPECT_DOUBLE_EQ(slow.slow_factor, 4.0);

  const auto drop = FaultSpec::parse("signal_drop node=1 p=0.2");
  EXPECT_EQ(drop.kind, FaultKind::kSignalDrop);
  EXPECT_DOUBLE_EQ(drop.probability, 0.2);

  const auto delay = FaultSpec::parse("signal_delay delay_ms=5");
  EXPECT_EQ(delay.kind, FaultKind::kSignalDelay);
  EXPECT_EQ(delay.extra_delay, 5 * kMillisecond);

  const auto crash = FaultSpec::parse("node_crash node=1 at_s=120");
  EXPECT_EQ(crash.kind, FaultKind::kNodeCrash);
  EXPECT_EQ(crash.node, 1);
  EXPECT_EQ(crash.start, 120 * kSecond);

  const auto persistent = FaultSpec::parse("disk_persistent start_s=5");
  EXPECT_EQ(persistent.kind, FaultKind::kDiskPersistent);
  EXPECT_DOUBLE_EQ(persistent.probability, 1.0);
}

TEST(FaultSpec, ToStringRoundTrips) {
  for (const char* text :
       {"disk_transient node=0 start_s=10 end_s=60 p=0.05",
        "disk_slow start_s=30 end_s=90 slow=4", "signal_drop node=1 p=0.2",
        "signal_delay delay_ms=5", "node_crash node=1 at_s=120"}) {
    const auto spec = FaultSpec::parse(text);
    const auto reparsed = FaultSpec::parse(spec.to_string());
    EXPECT_EQ(reparsed.kind, spec.kind) << text;
    EXPECT_EQ(reparsed.node, spec.node) << text;
    EXPECT_EQ(reparsed.start, spec.start) << text;
    EXPECT_EQ(reparsed.end, spec.end) << text;
    EXPECT_DOUBLE_EQ(reparsed.probability, spec.probability) << text;
    EXPECT_DOUBLE_EQ(reparsed.slow_factor, spec.slow_factor) << text;
    EXPECT_EQ(reparsed.extra_delay, spec.extra_delay) << text;
  }
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW((void)FaultSpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("meteor_strike"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("disk_transient p"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("disk_transient p=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("disk_transient p=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("disk_transient frequency=2"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("disk_transient start_s=60 end_s=10"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("disk_slow slow=0.5"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("disk_slow"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("signal_delay"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("signal_delay delay_ms=-1"),
               std::invalid_argument);
}

TEST(FaultSpec, AppliesChecksNodeAndWindow) {
  const auto spec =
      FaultSpec::parse("disk_transient node=1 start_s=10 end_s=20");
  EXPECT_FALSE(spec.applies(0, 15 * kSecond));  // wrong node
  EXPECT_FALSE(spec.applies(1, 5 * kSecond));   // before the window
  EXPECT_TRUE(spec.applies(1, 10 * kSecond));   // [start, end)
  EXPECT_TRUE(spec.applies(1, 19 * kSecond));
  EXPECT_FALSE(spec.applies(1, 20 * kSecond));  // end is exclusive

  const auto all = FaultSpec::parse("disk_transient start_s=10 end_s=20");
  EXPECT_TRUE(all.applies(0, 15 * kSecond));
  EXPECT_TRUE(all.applies(7, 15 * kSecond));
}

TEST(FaultPlan, DisturbsControlPlaneDetection) {
  FaultPlan disk_only;
  disk_only.add(FaultSpec::parse("disk_transient p=0.1"));
  disk_only.add(FaultSpec::parse("disk_slow slow=2"));
  EXPECT_FALSE(disk_only.disturbs_control_plane());

  FaultPlan drops = disk_only;
  drops.add(FaultSpec::parse("signal_drop p=0.1"));
  EXPECT_TRUE(drops.disturbs_control_plane());

  FaultPlan crash;
  crash.add(FaultSpec::parse("node_crash node=0 at_s=1"));
  EXPECT_TRUE(crash.disturbs_control_plane());
}

TEST(FaultPlan, RandomIsDeterministicBoundedAndQuiescible) {
  const SimTime horizon = 600 * kSecond;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, 4, horizon);
    EXPECT_EQ(plan.to_string(), FaultPlan::random(seed, 4, horizon).to_string());
    ASSERT_FALSE(plan.empty());
    int crashes = 0;
    for (const auto& spec : plan.specs) {
      EXPECT_GE(spec.node, -1);
      EXPECT_LT(spec.node, 4);
      EXPECT_GE(spec.probability, 0.0);
      EXPECT_LE(spec.probability, 1.0);
      EXPECT_GE(spec.slow_factor, 1.0);
      if (spec.kind == FaultKind::kNodeCrash) {
        ++crashes;
      } else {
        // Every window closes before the horizon so the run can quiesce.
        EXPECT_LT(spec.end, horizon);
      }
    }
    EXPECT_LE(crashes, 1);  // at least one node always survives
  }
  // Single-node clusters never get a crash (nothing would survive).
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    EXPECT_FALSE(FaultPlan::random(seed, 1, horizon).has(FaultKind::kNodeCrash));
  }
}

// ---------------------------------------------------------------------------
// FaultInjector + Disk

DiskParams small_disk() {
  DiskParams p;
  p.num_blocks = 100000;
  return p;
}

TEST(FaultInjector, InjectsDiskErrorsInsideWindowOnly) {
  Simulator sim;
  FaultPlan plan;
  plan.add(FaultSpec::parse("disk_transient start_s=10 end_s=20 p=1"));
  FaultInjector injector(sim, plan);
  Disk disk(sim, small_disk());
  disk.set_fault_injector(&injector, /*node=*/0);

  int errors = 0, successes = 0;
  auto submit = [&] {
    disk.submit({.start = 0, .nblocks = 1, .write = false,
                 .priority = IoPriority::kForeground,
                 .on_complete = [&](IoResult result) {
                   (result.ok ? successes : errors)++;
                 }});
  };
  submit();                                   // before the window: fine
  (void)sim.at(15 * kSecond, submit);         // inside: always fails
  (void)sim.at(25 * kSecond, submit);         // after: fine again
  sim.run();
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(successes, 2);
  EXPECT_EQ(disk.stats().io_errors, 1u);
  EXPECT_EQ(injector.stats().disk_errors_injected, 1u);
  EXPECT_FALSE(disk.failed());  // transient errors don't kill the device
}

TEST(FaultInjector, TargetsOnlyTheNamedNode) {
  Simulator sim;
  FaultPlan plan;
  plan.add(FaultSpec::parse("disk_transient node=1 p=1"));
  FaultInjector injector(sim, plan);
  Disk disk0(sim, small_disk());
  Disk disk1(sim, small_disk());
  disk0.set_fault_injector(&injector, 0);
  disk1.set_fault_injector(&injector, 1);

  bool ok0 = false, ok1 = true;
  disk0.submit({.start = 0, .nblocks = 1, .write = false,
                .priority = IoPriority::kForeground,
                .on_complete = [&](IoResult r) { ok0 = r.ok; }});
  disk1.submit({.start = 0, .nblocks = 1, .write = false,
                .priority = IoPriority::kForeground,
                .on_complete = [&](IoResult r) { ok1 = r.ok; }});
  sim.run();
  EXPECT_TRUE(ok0);
  EXPECT_FALSE(ok1);
}

TEST(FaultInjector, FailSlowStretchesServiceTime) {
  auto timed_request = [](double slow) {
    Simulator sim;
    FaultPlan plan;
    if (slow > 1.0) {
      plan.add(FaultSpec::parse("disk_slow slow=" + std::to_string(slow)));
    }
    auto injector =
        plan.empty() ? nullptr : std::make_unique<FaultInjector>(sim, plan);
    Disk disk(sim, small_disk());
    if (injector) disk.set_fault_injector(injector.get(), 0);
    SimTime done = -1;
    disk.submit({.start = 5000, .nblocks = 8, .write = false,
                 .priority = IoPriority::kForeground,
                 .on_complete = [&](IoResult r) {
                   EXPECT_TRUE(r.ok);
                   done = sim.now();
                 }});
    sim.run();
    return done;
  };
  const SimTime base = timed_request(1.0);
  const SimTime slowed = timed_request(4.0);
  ASSERT_GT(base, 0);
  EXPECT_NEAR(static_cast<double>(slowed), 4.0 * static_cast<double>(base),
              0.01 * static_cast<double>(slowed));
}

TEST(FaultInjector, SignalOutcomesFollowThePlan) {
  Simulator sim;
  FaultPlan plan;
  plan.add(FaultSpec::parse("signal_drop node=0 p=1"));
  plan.add(FaultSpec::parse("signal_delay node=1 delay_ms=5"));
  FaultInjector injector(sim, plan);

  const auto on0 = injector.on_control_signal(0);
  EXPECT_TRUE(on0.drop);
  const auto on1 = injector.on_control_signal(1);
  EXPECT_FALSE(on1.drop);
  EXPECT_EQ(on1.extra_delay, 5 * kMillisecond);
  const auto on2 = injector.on_control_signal(2);
  EXPECT_FALSE(on2.drop);
  EXPECT_EQ(on2.extra_delay, 0);
  EXPECT_EQ(injector.stats().signals_dropped, 1u);
  EXPECT_EQ(injector.stats().signals_delayed, 1u);
}

TEST(FaultInjector, SchedulesCrashesAtPlannedTimes) {
  Simulator sim;
  FaultPlan plan;
  plan.add(FaultSpec::parse("node_crash node=1 at_s=3"));
  FaultInjector injector(sim, plan);
  std::vector<std::pair<int, SimTime>> crashes;
  injector.schedule_crashes(
      [&](int node) { crashes.emplace_back(node, sim.now()); });
  sim.run();
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_EQ(crashes[0].first, 1);
  EXPECT_EQ(crashes[0].second, 3 * kSecond);
  EXPECT_EQ(injector.stats().node_crashes, 1u);
}

TEST(Disk, FailDeviceDrainsQueueWithErrors) {
  Simulator sim;
  Disk disk(sim, small_disk());
  int errors = 0;
  auto count_errors = [&](IoResult r) {
    if (!r.ok) ++errors;
  };
  for (int i = 0; i < 4; ++i) {
    disk.submit({.start = i * 1000, .nblocks = 1, .write = false,
                 .priority = IoPriority::kForeground,
                 .on_complete = count_errors});
  }
  disk.fail_device();
  EXPECT_TRUE(disk.failed());
  // Requests submitted after the failure also complete (in error).
  disk.submit({.start = 9000, .nblocks = 1, .write = true,
               .priority = IoPriority::kForeground,
               .on_complete = count_errors});
  sim.run();
  // The in-service request may complete either way; everything queued or
  // submitted afterwards must error out.
  EXPECT_GE(errors, 4);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end recovery through the harness

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kW;
  config.nodes = 1;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.quantum = 4 * kSecond;
  config.iterations_scale = 0.2;
  return config;
}

TEST(FaultRecovery, TransientDiskErrorsAreRetriedAndTheRunCompletes) {
  auto config = tiny_config();
  // The window covers the whole paging phase; paging I/O starts ~4 s in,
  // once both instances are faulting against 22 MB of usable memory.
  config.faults.add(FaultSpec::parse("disk_transient start_s=2 end_s=40 p=0.2"));
  const RunOutcome outcome = run_gang(config);
  ASSERT_GT(outcome.makespan, 0) << "run must survive transient errors";
  EXPECT_EQ(outcome.jobs_failed, 0);
  EXPECT_GT(outcome.io_errors, 0u);
  EXPECT_GT(outcome.io_retries, 0u);
  EXPECT_EQ(outcome.pages_unrecoverable, 0u);
}

TEST(FaultRecovery, FaultFreeRunsAreBitIdenticalWithFaultCodeCompiledIn) {
  const RunOutcome a = run_gang(tiny_config());
  const RunOutcome b = run_gang(tiny_config());
  expect_same_outcome(a, b);
  EXPECT_EQ(a.io_errors, 0u);
  EXPECT_EQ(a.io_retries, 0u);
  EXPECT_EQ(a.signal_retransmits, 0u);
}

TEST(FaultRecovery, SameSeedSameFaultsIsReproducible) {
  auto config = tiny_config();
  config.faults.add(FaultSpec::parse("disk_transient start_s=1 end_s=5 p=0.2"));
  config.faults.add(FaultSpec::parse("signal_drop p=0.3"));
  const RunOutcome a = run_gang(config);
  const RunOutcome b = run_gang(config);
  expect_same_outcome(a, b);
}

TEST(FaultRecovery, PersistentDiskFailureFailsJobsCleanly) {
  auto config = tiny_config();
  // Fail the disk mid-run, once both jobs have pages out on swap. Swap-in
  // reads then fail permanently: the retry ladder must exhaust and the jobs
  // must be aborted cleanly — marked failed, with the lost pages counted —
  // rather than hanging (we got here before the 100 h horizon).
  config.faults.add(FaultSpec::parse("disk_persistent start_s=30"));
  const RunOutcome outcome = run_gang(config);
  EXPECT_EQ(outcome.jobs_failed, 2);
  EXPECT_GT(outcome.pages_unrecoverable, 0u);
  EXPECT_GT(outcome.io_retries, 0u);  // transient-style retries were tried
  for (const auto& job : outcome.jobs) EXPECT_TRUE(job.failed);
}

TEST(FaultRecovery, WatchdogRecoversFromDroppedSwitchSignals) {
  auto config = tiny_config();
  config.faults.add(FaultSpec::parse("signal_drop p=0.5"));
  const RunOutcome outcome = run_gang(config);  // watchdog auto-armed
  ASSERT_GT(outcome.makespan, 0) << "dropped signals must not wedge the gang";
  EXPECT_EQ(outcome.jobs_failed, 0);
  EXPECT_GT(outcome.signal_retransmits, 0u);
}

TEST(FaultRecovery, OutOfSwapFailsJobsInsteadOfHanging) {
  auto config = tiny_config();
  // Shrink wired-down memory so a deliberately tiny swap passes validation,
  // then give the two instances far less swap than their eviction traffic
  // needs. The first fault that cannot be served once the device fills must
  // abort its job with a diagnosable out-of-swap count — not spin forever —
  // and the surviving job must then run to completion.
  config.node_memory_mb = 24.0;  // wired = 2 MB
  config.swap_mb = 4.0;
  const RunOutcome outcome = run_gang(config);
  ASSERT_GT(outcome.makespan, 0) << "survivor must finish after the abort";
  EXPECT_GE(outcome.jobs_failed, 1);
  EXPECT_GT(outcome.pages_unrecoverable, 0u);
}

// ---------------------------------------------------------------------------
// Node crashes and the gang scheduler

NodeParams gang_node_params() {
  NodeParams n;
  n.vmm.total_frames = 512;
  n.vmm.freepages_min = 8;
  n.vmm.freepages_low = 12;
  n.vmm.freepages_high = 16;
  n.disk.num_blocks = 1 << 16;
  return n;
}

/// Add a sweep job placed on the given nodes only.
template <typename Scheduler>
Job& add_job(Cluster& cluster, Scheduler& scheduler,
             std::vector<std::unique_ptr<Process>>& procs,
             const std::string& name, const std::vector<int>& nodes,
             std::int64_t pages, std::int64_t iterations) {
  Job& job = scheduler.create_job(name);
  for (int n : nodes) {
    SweepOptions options;
    options.pages = pages;
    options.iterations = iterations;
    options.compute_per_touch = 20 * kMicrosecond;
    const Pid pid = cluster.node(n).vmm().create_process(pages);
    procs.push_back(std::make_unique<Process>(name + ":" + std::to_string(n),
                                              pid,
                                              make_sweep_program(options)));
    cluster.node(n).cpu().attach(*procs.back());
    job.add_process(n, *procs.back());
  }
  return job;
}

TEST(NodeFailure, SurvivingNodeJobsCompleteAfterACrash) {
  FaultPlan plan;
  plan.add(FaultSpec::parse("node_crash node=1 at_s=2"));
  Cluster cluster(2, gang_node_params(), NetParams{}, /*seed=*/1, plan);
  GangParams params;
  params.quantum = kSecond;
  GangScheduler scheduler(cluster, params);
  std::vector<std::unique_ptr<Process>> procs;
  add_job(cluster, scheduler, procs, "survivor", {0}, 128, 3000);
  add_job(cluster, scheduler, procs, "casualty", {1}, 128, 3000);
  scheduler.start();
  const bool finished = cluster.sim().run_until(
      [&] { return scheduler.all_finished(); }, 10 * kMinute);
  ASSERT_TRUE(finished);

  EXPECT_TRUE(cluster.node_alive(0));
  EXPECT_FALSE(cluster.node_alive(1));
  EXPECT_EQ(scheduler.stats().nodes_failed, 1);
  EXPECT_EQ(scheduler.stats().jobs_failed, 1);

  const Job& survivor = *scheduler.jobs()[0];
  const Job& casualty = *scheduler.jobs()[1];
  EXPECT_FALSE(survivor.failed());
  EXPECT_GT(survivor.finished_at(), 0);
  EXPECT_TRUE(casualty.failed());
  EXPECT_EQ(casualty.failed_at(), 2 * kSecond);

  // The surviving node ended the run with all resources returned.
  auto& vmm = cluster.node(0).vmm();
  EXPECT_EQ(vmm.free_frames(), vmm.frames().usable_frames());
  EXPECT_EQ(cluster.node(0).swap().used_slots(), 0);
}

TEST(NodeFailure, CrashMidRotationKeepsTheOtherJobsSwitching) {
  FaultPlan plan;
  plan.add(FaultSpec::parse("node_crash node=1 at_s=3"));
  Cluster cluster(2, gang_node_params(), NetParams{}, /*seed=*/1, plan);
  GangParams params;
  params.quantum = kSecond;
  GangScheduler scheduler(cluster, params);
  std::vector<std::unique_ptr<Process>> procs;
  // Two full-width jobs die with the node; two single-node jobs survive and
  // must keep timesharing node 0 after the crash.
  add_job(cluster, scheduler, procs, "wide-a", {0, 1}, 96, 4000);
  add_job(cluster, scheduler, procs, "wide-b", {0, 1}, 96, 4000);
  add_job(cluster, scheduler, procs, "solo-a", {0}, 96, 2000);
  add_job(cluster, scheduler, procs, "solo-b", {0}, 96, 2000);
  scheduler.start();
  const bool finished = cluster.sim().run_until(
      [&] { return scheduler.all_finished(); }, 30 * kMinute);
  ASSERT_TRUE(finished);
  EXPECT_EQ(scheduler.stats().nodes_failed, 1);
  EXPECT_EQ(scheduler.stats().jobs_failed, 2);
  for (const auto& job : scheduler.jobs()) {
    if (job->name().rfind("wide", 0) == 0) {
      EXPECT_TRUE(job->failed()) << job->name();
    } else {
      EXPECT_FALSE(job->failed()) << job->name();
      EXPECT_GT(job->finished_at(), 3 * kSecond) << job->name();
    }
  }
}

TEST(NodeFailure, PreStartCrashFailsItsJobsImmediately) {
  FaultPlan plan;
  plan.add(FaultSpec::parse("node_crash node=0 at_s=0"));
  Cluster cluster(2, gang_node_params(), NetParams{}, /*seed=*/1, plan);
  GangParams params;
  GangScheduler scheduler(cluster, params);
  std::vector<std::unique_ptr<Process>> procs;
  add_job(cluster, scheduler, procs, "doomed", {0}, 64, 100);
  add_job(cluster, scheduler, procs, "fine", {1}, 64, 100);
  // Let the t=0 crash fire before the scheduler starts.
  (void)cluster.sim().at(kMillisecond, [&] { scheduler.start(); });
  const bool finished = cluster.sim().run_until(
      [&] { return scheduler.all_finished(); }, 10 * kMinute);
  ASSERT_TRUE(finished);
  EXPECT_TRUE(scheduler.jobs()[0]->failed());
  EXPECT_FALSE(scheduler.jobs()[1]->failed());
}

// ---------------------------------------------------------------------------
// Config validation + scenario plumbing

TEST(ConfigValidate, RejectsNonsenseWithSpecificErrors) {
  auto expect_throw = [](auto mutate) {
    auto config = tiny_config();
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  expect_throw([](auto& c) { c.nodes = 0; });
  expect_throw([](auto& c) { c.instances = 0; });
  expect_throw([](auto& c) { c.quantum = -kSecond; });
  expect_throw([](auto& c) { c.quantum = 0; });
  expect_throw([](auto& c) { c.quantum_override = -kSecond; });
  expect_throw([](auto& c) { c.bg_start_frac = -0.1; });
  expect_throw([](auto& c) { c.bg_start_frac = 1.5; });
  expect_throw([](auto& c) { c.node_memory_mb = 0.0; });
  expect_throw([](auto& c) { c.usable_memory_mb = 0.0; });
  expect_throw([](auto& c) { c.usable_memory_mb = c.node_memory_mb + 1.0; });
  expect_throw([](auto& c) { c.usable_memory_mb = 1.0; });  // < watermarks
  expect_throw([](auto& c) { c.page_cluster = 0; });
  expect_throw([](auto& c) { c.iterations_scale = 0.0; });
  expect_throw([](auto& c) { c.horizon = 0; });
  expect_throw([](auto& c) { c.swap_mb = -1.0; });
  expect_throw([](auto& c) { c.swap_mb = 1.0; });  // smaller than wired memory
  // Checkpointing and the control plane run on fixed-set gang runs only.
  expect_throw([](auto& c) {
    c.batch_mode = true;
    c.checkpoint_interval = 3 * kSecond;
  });
  expect_throw([](auto& c) {
    c.batch_mode = true;
    c.autotune = true;
  });
  EXPECT_NO_THROW(tiny_config().validate());
}

TEST(ConfigValidate, RunnersRejectInvalidConfigs) {
  auto config = tiny_config();
  config.quantum = -kSecond;
  EXPECT_THROW((void)run_gang(config), std::invalid_argument);
  config.batch_mode = true;
  EXPECT_THROW((void)run_batch(config), std::invalid_argument);
  // run_batch validates the config it runs: batch mode forced on.
  config = tiny_config();
  config.autotune = true;
  EXPECT_NO_THROW(config.validate());
  EXPECT_THROW((void)run_batch(config), std::invalid_argument);
}

TEST(Scenario, FaultWatchdogAndSwapKeysApply) {
  const auto runs = parse_scenario(
      "[run]\n"
      "label = chaos\n"
      "fault = disk_transient start_s=10 end_s=60 p=0.05\n"
      "fault = node_crash node=0 at_s=120\n"
      "watchdog_ms = 25\n"
      "swap_mb = 96\n");
  ASSERT_EQ(runs.size(), 1u);
  const auto& config = runs[0];
  ASSERT_EQ(config.faults.specs.size(), 2u);
  EXPECT_EQ(config.faults.specs[0].kind, FaultKind::kDiskTransient);
  EXPECT_EQ(config.faults.specs[1].kind, FaultKind::kNodeCrash);
  EXPECT_TRUE(config.faults.disturbs_control_plane());
  EXPECT_EQ(config.switch_watchdog, 25 * kMillisecond);
  EXPECT_DOUBLE_EQ(config.swap_mb, 96.0);
}

TEST(Scenario, BadFaultLineReportsLineNumber) {
  try {
    (void)parse_scenario("[run]\nfault = warp_core_breach\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace apsim
