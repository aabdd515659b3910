// Tests for the coordinated checkpoint/restart subsystem: the pure restart
// planner, program-cursor save/restore, communicator restart hooks, the
// config/scenario surface, end-to-end crash recovery through the harness,
// bit-identity when checkpointing is disabled, determinism (repeat runs and
// thread-count-independent sweeps), fencing idempotence, the recoverable vs
// fatal lost-page split, and chaos property runs where no job may be aborted
// without a recovery attempt.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "gang/gang_scheduler.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "net/mpi.hpp"
#include "outcome_compare.hpp"
#include "recover/checkpoint_manager.hpp"
#include "tier/tier_manager.hpp"
#include "workloads/generator.hpp"

namespace apsim {
namespace {

// ---------------------------------------------------------------------------
// RestartPlanner (pure)

RestartCandidate candidate(int node, std::int64_t swap_slots,
                           std::int64_t usable = 1000,
                           std::int64_t min_frames = 100) {
  RestartCandidate c;
  c.node = node;
  c.free_swap_slots = swap_slots;
  c.usable_frames = usable;
  c.min_frames = min_frames;
  return c;
}

TEST(RestartPlanner, SpreadBalancesRanksAcrossFeasibleNodes) {
  const auto plan = RestartPlanner::plan(
      {10, 10, 10, 10}, {candidate(0, 100), candidate(1, 100)},
      RestartPlacement::kSpread);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(*plan, (std::vector<int>{0, 1, 0, 1}));
}

TEST(RestartPlanner, PackedFillsTheFirstFeasibleNodeFirst) {
  const auto plan = RestartPlanner::plan(
      {10, 10, 10}, {candidate(0, 25), candidate(1, 100)},
      RestartPlacement::kPacked);
  ASSERT_TRUE(plan.has_value());
  // Node 0's swap budget covers two ranks; the third spills to node 1.
  EXPECT_EQ(*plan, (std::vector<int>{0, 0, 1}));
}

TEST(RestartPlanner, SwapBudgetIsConsumedAcrossRanks) {
  // Each rank fits alone, but the budget only covers one per node.
  const auto plan = RestartPlanner::plan(
      {60, 60, 60}, {candidate(0, 100), candidate(1, 100)},
      RestartPlacement::kSpread);
  EXPECT_FALSE(plan.has_value());
}

TEST(RestartPlanner, NodesBelowTheFrameFloorAreExcluded) {
  const auto plan = RestartPlanner::plan(
      {10}, {candidate(0, 100, /*usable=*/50, /*min_frames=*/100)},
      RestartPlacement::kSpread);
  EXPECT_FALSE(plan.has_value());

  const auto ok = RestartPlanner::plan(
      {10},
      {candidate(0, 100, 50, 100), candidate(1, 100, 200, 100)},
      RestartPlacement::kSpread);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, std::vector<int>{1});
}

TEST(RestartPlanner, CandidateOrderDoesNotMatter) {
  const std::vector<std::int64_t> pages{10, 10, 10};
  const auto a = RestartPlanner::plan(
      pages, {candidate(0, 100), candidate(1, 100)}, RestartPlacement::kSpread);
  const auto b = RestartPlanner::plan(
      pages, {candidate(1, 100), candidate(0, 100)}, RestartPlacement::kSpread);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, *b);
}

TEST(RestartPlanner, EnumsParseAndRoundTrip) {
  EXPECT_EQ(parse_restart_placement("spread"), RestartPlacement::kSpread);
  EXPECT_EQ(parse_restart_placement("packed"), RestartPlacement::kPacked);
  EXPECT_EQ(to_string(RestartPlacement::kPacked), "packed");
  EXPECT_THROW((void)parse_restart_placement("mostly-random"),
               std::invalid_argument);
  EXPECT_EQ(parse_lost_work_model("cpu"), LostWorkModel::kCpu);
  EXPECT_EQ(parse_lost_work_model("wall"), LostWorkModel::kWall);
  EXPECT_EQ(to_string(LostWorkModel::kWall), "wall");
  EXPECT_THROW((void)parse_lost_work_model("imaginary"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Program cursors

TEST(ProgramCursor, IterativeProgramRoundTripsMidRun) {
  auto make = [] {
    std::vector<Op> prologue{Op::compute_op(kMillisecond)};
    std::vector<Op> cycle{Op::compute_op(kMillisecond), Op::compute_op(kMillisecond)};
    return IterativeProgram(std::move(prologue), std::move(cycle), 3);
  };
  IterativeProgram a = make();
  (void)a.next();  // prologue op
  (void)a.next();  // cycle[0] of iter 0
  (void)a.next();  // cycle[1] of iter 0
  (void)a.next();  // cycle[0] of iter 1
  const auto cursor = a.save_cursor();
  ASSERT_TRUE(cursor.has_value());

  IterativeProgram b = make();
  ASSERT_TRUE(b.restore_cursor(*cursor));
  // The restored program must replay the identical remaining op sequence.
  for (;;) {
    const Op oa = a.next();
    const Op ob = b.next();
    EXPECT_EQ(oa.kind, ob.kind);
    if (oa.kind == Op::Kind::kDone) break;
  }
  EXPECT_DOUBLE_EQ(a.progress(), b.progress());
}

TEST(ProgramCursor, RejectsOutOfRangeCursors) {
  IterativeProgram program({}, {Op::compute_op(kMillisecond)}, 2);
  ProgramCursor bad_iter;
  bad_iter.iter = 99;
  EXPECT_FALSE(program.restore_cursor(bad_iter));
  ProgramCursor bad_pos;
  bad_pos.pos = 99;
  EXPECT_FALSE(program.restore_cursor(bad_pos));
}

// ---------------------------------------------------------------------------
// Communicator restart hooks

TEST(MpiComm, RestartHooksResetSequencesAndOpenCollectives) {
  Simulator sim(1);
  Network net(sim, 2);
  MpiComm comm(sim, net, 2);
  EXPECT_EQ(comm.rank_seqs(), (std::vector<std::uint64_t>{0, 0}));
  EXPECT_FALSE(comm.collective_open(0));

  comm.rebind_node(1, 0);  // no crash; takes effect on the next enter
  comm.reset_for_restart({4, 4});
  EXPECT_EQ(comm.rank_seqs(), (std::vector<std::uint64_t>{4, 4}));
  EXPECT_FALSE(comm.collective_open(3));
  EXPECT_FALSE(comm.collective_open(4));
}

// ---------------------------------------------------------------------------
// Config and scenario surface

TEST(RecoverConfig, ValidatesCheckpointKnobs) {
  ExperimentConfig config;
  config.checkpoint_interval = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.checkpoint_interval = 0;
  config.ckpt_max_retries = -2;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.ckpt_max_retries = 0;
  EXPECT_NO_THROW(config.validate());
}

TEST(RecoverConfig, ScenarioKeysApplyAndReject) {
  ExperimentConfig config;
  apply_scenario_key(config, "checkpoint_interval_s", "7.5");
  EXPECT_EQ(config.checkpoint_interval,
            static_cast<SimDuration>(7.5 * static_cast<double>(kSecond)));
  apply_scenario_key(config, "ckpt_incremental", "false");
  EXPECT_FALSE(config.ckpt_incremental);
  apply_scenario_key(config, "ckpt_max_retries", "5");
  EXPECT_EQ(config.ckpt_max_retries, 5);
  apply_scenario_key(config, "restart_placement", "packed");
  EXPECT_EQ(config.restart_placement, RestartPlacement::kPacked);
  apply_scenario_key(config, "lost_work_model", "wall");
  EXPECT_EQ(config.lost_work_model, LostWorkModel::kWall);
  EXPECT_THROW(apply_scenario_key(config, "restart_placement", "bogus"),
               std::invalid_argument);
  EXPECT_THROW(apply_scenario_key(config, "lost_work_model", "bogus"),
               std::invalid_argument);
  EXPECT_THROW(apply_scenario_key(config, "ckpt_max_retries", "many"),
               std::invalid_argument);
}

TEST(RecoverConfig, CheckpointRegionDoublesTheDiskOnlyWhenEnabled) {
  ExperimentConfig config;
  const NodeParams off = config.make_node_params();
  EXPECT_EQ(off.disk.num_blocks, off.swap_slots);
  config.checkpoint_interval = 10 * kSecond;
  const NodeParams on = config.make_node_params();
  EXPECT_EQ(on.swap_slots, off.swap_slots);
  EXPECT_EQ(on.disk.num_blocks, on.swap_slots * 2);
}

TEST(RecoverConfig, CkptFaultSpecParsesAndRoundTrips) {
  const auto spec = FaultSpec::parse("ckpt_fault start_s=5 end_s=50 p=0.25");
  EXPECT_EQ(spec.kind, FaultKind::kCkptFault);
  EXPECT_DOUBLE_EQ(spec.probability, 0.25);
  EXPECT_EQ(FaultSpec::parse(spec.to_string()).kind, FaultKind::kCkptFault);
}

// ---------------------------------------------------------------------------
// End-to-end recovery through the harness

ExperimentConfig recover_config() {
  ExperimentConfig config;
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kW;
  config.nodes = 2;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.quantum = 4 * kSecond;
  config.iterations_scale = 0.2;
  config.checkpoint_interval = 2 * kSecond;
  return config;
}

TEST(RecoverEndToEnd, NodeCrashIsRecoveredFromTheLastCheckpoint) {
  auto config = recover_config();
  config.faults.add(FaultSpec::parse("node_crash node=1 at_s=6"));
  const RunOutcome outcome = run_gang(config);
  ASSERT_GT(outcome.makespan, 0) << "recovered jobs must still finish";
  EXPECT_EQ(outcome.jobs_failed, 0);
  EXPECT_EQ(outcome.nodes_failed, 1);
  EXPECT_EQ(outcome.jobs_recovered, 2);  // both jobs spanned the dead node
  EXPECT_GT(outcome.checkpoints_taken, 0u);
  EXPECT_GT(outcome.bytes_checkpointed, 0u);
  EXPECT_GT(outcome.pages_staged, 0u);  // images staged into survivor swap
  EXPECT_GT(outcome.disk_blocks_written, 0u);
  EXPECT_GT(outcome.lost_work_ms, 0.0);
  for (const auto& job : outcome.jobs) {
    EXPECT_FALSE(job.failed) << job.name;
    EXPECT_TRUE(job.recovered) << job.name;
  }
}

TEST(RecoverEndToEnd, CheckpointIoIsVisibleInDiskCountersAndTracer) {
  auto baseline = recover_config();
  baseline.checkpoint_interval = 0;
  const RunOutcome off = run_gang(baseline);

  auto config = recover_config();
  config.trace_json = "-";  // collect spans in memory
  const RunOutcome on = run_gang(config);
  // Same fault-free run, but every committed checkpoint paid real blocks.
  EXPECT_GT(on.checkpoints_taken, 0u);
  EXPECT_GT(on.disk_blocks_written, off.disk_blocks_written);
  ASSERT_NE(on.trace, nullptr);
  bool saw_ckpt_phase = false;
  for (const auto& phase : on.switch_phases) {
    if (phase.category == "ckpt" && phase.name == "checkpoint") {
      saw_ckpt_phase = true;
      EXPECT_GT(phase.count, 0u);
    }
  }
  EXPECT_TRUE(saw_ckpt_phase) << "checkpoint spans missing from the tracer";
}

TEST(RecoverEndToEnd, CheckpointWriteFaultsAreRetriedWithBackoff) {
  auto config = recover_config();
  config.faults.add(FaultSpec::parse("ckpt_fault p=0.4"));
  config.ckpt_max_retries = 6;
  const RunOutcome outcome = run_gang(config);
  ASSERT_GT(outcome.makespan, 0);
  EXPECT_GT(outcome.ckpt_io_retries, 0u);
  EXPECT_GT(outcome.checkpoints_taken, 0u);  // the ladder rode out p=0.4
  EXPECT_EQ(outcome.jobs_failed, 0);
}

TEST(RecoverEndToEnd, RestartGivesUpCleanlyWithNoSurvivingPlacement) {
  // Single node, persistent disk death: the lost page becomes a recovery
  // attempt, but the only candidate node has a dead disk, so the planner
  // finds nothing and the job is abandoned — cleanly, before the horizon.
  auto config = recover_config();
  config.nodes = 1;
  config.faults.add(FaultSpec::parse("disk_persistent start_s=6"));
  const RunOutcome outcome = run_gang(config);
  // makespan stays -1 when no job ever succeeds, even though the run
  // terminated; the failure counters below are the real signal.
  EXPECT_EQ(outcome.makespan, -1);
  EXPECT_EQ(outcome.jobs_failed, 2);
  EXPECT_GT(outcome.lost_pages_recovered, 0u);  // attempt was made
  EXPECT_GT(outcome.restarts_failed, 0);        // ... and gave up
  EXPECT_EQ(outcome.jobs_recovered, 0);
}

TEST(RecoverEndToEnd, LostPagesOnOneNodeRecoverOntoTheOther) {
  // Kill only node 1's disk. Jobs lose pages there (fatal before this PR),
  // but node 0's disk is healthy, so both jobs restart packed onto node 0
  // and finish. Squeeze usable memory so the gangs actually page: at 22 MB
  // the two-node LU.W split is fully resident and a dead swap disk would
  // never surface.
  auto config = recover_config();
  config.usable_memory_mb = 8.0;
  config.faults.add(FaultSpec::parse("disk_persistent node=1 start_s=6"));
  const RunOutcome outcome = run_gang(config);
  ASSERT_GT(outcome.makespan, 0);
  EXPECT_EQ(outcome.jobs_failed, 0);
  EXPECT_GT(outcome.lost_pages_recovered, 0u);
  EXPECT_EQ(outcome.lost_pages_fatal, 0u);
  EXPECT_EQ(outcome.jobs_recovered, 2);
}

TEST(RecoverEndToEnd, LostPagesStayFatalWithCheckpointingOff) {
  auto config = recover_config();
  config.usable_memory_mb = 8.0;  // force paging (see previous test)
  config.checkpoint_interval = 0;
  config.faults.add(FaultSpec::parse("disk_persistent node=1 start_s=6"));
  const RunOutcome outcome = run_gang(config);
  EXPECT_EQ(outcome.jobs_failed, 2);
  EXPECT_GT(outcome.lost_pages_fatal, 0u);
  EXPECT_EQ(outcome.lost_pages_recovered, 0u);
  EXPECT_EQ(outcome.jobs_recovered, 0);
}

// ---------------------------------------------------------------------------
// Bit-identity with checkpointing disabled, and determinism when enabled

TEST(RecoverBitIdentity, DisabledCheckpointingLeavesRunsUntouched) {
  // With checkpoint_interval = 0 no manager is constructed; every other
  // recovery knob must be inert, even under faults.
  auto plain = recover_config();
  plain.checkpoint_interval = 0;
  plain.faults.add(FaultSpec::parse("disk_transient start_s=1 end_s=20 p=0.1"));

  auto knobs = plain;
  knobs.ckpt_incremental = false;
  knobs.ckpt_max_retries = 9;
  knobs.restart_placement = RestartPlacement::kPacked;
  knobs.lost_work_model = LostWorkModel::kWall;

  const RunOutcome a = run_gang(plain);
  const RunOutcome b = run_gang(knobs);
  expect_same_outcome(a, b);
  EXPECT_EQ(a.checkpoints_taken, 0u);
  EXPECT_EQ(a.bytes_checkpointed, 0u);
  EXPECT_EQ(a.jobs_recovered, 0);
  EXPECT_EQ(a.lost_work_ms, 0.0);
}

TEST(RecoverDeterminism, CrashRecoveryRunsAreBitReproducible) {
  auto config = recover_config();
  config.faults.add(FaultSpec::parse("node_crash node=1 at_s=6"));
  config.faults.add(FaultSpec::parse("ckpt_fault p=0.2"));
  const RunOutcome a = run_gang(config);
  const RunOutcome b = run_gang(config);
  expect_same_outcome(a, b);
}

TEST(RecoverDeterminism, RecoverySweepIsThreadCountIndependent) {
  // One recovering config per placement/accounting combination, mapped at 1,
  // 2 and 8 threads: byte-equal outcomes, like the main determinism suite.
  std::vector<ExperimentConfig> configs;
  for (const RestartPlacement placement :
       {RestartPlacement::kSpread, RestartPlacement::kPacked}) {
    for (const LostWorkModel model : {LostWorkModel::kCpu, LostWorkModel::kWall}) {
      auto config = recover_config();
      config.restart_placement = placement;
      config.lost_work_model = model;
      config.faults.add(FaultSpec::parse("node_crash node=1 at_s=6"));
      configs.push_back(config);
    }
  }
  const std::function<RunOutcome(const ExperimentConfig&)> fn = run_gang;
  const auto serial = parallel_map<RunOutcome>(configs, fn, 1);
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel = parallel_map<RunOutcome>(configs, fn, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("config " + std::to_string(i) + " at " +
                   std::to_string(threads) + " threads");
      expect_same_outcome(serial[i], parallel[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Fencing idempotence

TEST(Fencing, DoubleFenceIsIdempotent) {
  Cluster cluster(2, NodeParams{}, NetParams{}, /*seed=*/1);
  GangScheduler scheduler(cluster, GangParams{});
  Job& job = scheduler.create_job("solo");
  SweepOptions options;
  options.pages = 32;
  // Long enough (~3.2 s of compute) that the job is still running when the
  // 1 s and 2 s fence events fire; otherwise the asserts race the crash.
  options.iterations = 5000;
  options.compute_per_touch = 20 * kMicrosecond;
  const Pid pid = cluster.node(0).vmm().create_process(options.pages);
  auto proc = std::make_unique<Process>("solo:0", pid,
                                        make_sweep_program(options));
  cluster.node(0).cpu().attach(*proc);
  job.add_process(0, *proc);
  scheduler.start();

  cluster.sim().after(kSecond, [&] {
    cluster.fail_node(1);
    cluster.fail_node(1);  // STONITH races the crash plan: must be a no-op
  });
  cluster.sim().after(2 * kSecond, [&] { cluster.fail_node(1); });

  EXPECT_TRUE(cluster.sim().run_until(
      [&] { return scheduler.all_finished(); }, 10 * kMinute));
  EXPECT_EQ(scheduler.stats().nodes_failed, 1);
  EXPECT_FALSE(cluster.node_alive(1));
  EXPECT_FALSE(job.failed());
  (void)cluster.sim().run_until([] { return false; },
                                cluster.sim().now() + kMinute);
  EXPECT_EQ(cluster.sim().pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// Chaos with recovery enabled

struct RecoverChaosOutcome {
  bool finished = false;
  std::vector<SimTime> finish_times;
  std::vector<bool> failed;
  std::vector<int> restarts;
  std::uint64_t checkpoints = 0;
  std::uint64_t pages_staged = 0;
  int jobs_recovered = 0;
  int restarts_failed = 0;
  int nodes_failed = 0;

  friend bool operator==(const RecoverChaosOutcome&,
                         const RecoverChaosOutcome&) = default;
};

RecoverChaosOutcome run_recover_chaos(std::uint64_t seed) {
  constexpr int kNodes = 2;
  const FaultPlan plan = FaultPlan::random(seed, kNodes, 60 * kSecond);
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + plan.to_string());

  NodeParams node_params;
  node_params.vmm.total_frames = 512;
  node_params.vmm.freepages_min = 8;
  node_params.vmm.freepages_low = 12;
  node_params.vmm.freepages_high = 16;
  node_params.swap_slots = 1 << 15;
  node_params.disk.num_blocks = 1 << 16;  // swap + checkpoint region

  Cluster cluster(kNodes, node_params, NetParams{}, seed, plan);
  GangParams params;
  params.quantum = 2 * kSecond;
  if (plan.disturbs_control_plane()) {
    params.switch_watchdog = 50 * kMillisecond;
  }
  GangScheduler scheduler(cluster, params);

  std::vector<std::unique_ptr<Process>> procs;
  auto add_job = [&](const std::string& name, const std::vector<int>& nodes) {
    Job& job = scheduler.create_job(name);
    for (int n : nodes) {
      SweepOptions options;
      options.pages = 300;
      // ~15 s of compute per rank: timesharing three jobs stretches the run
      // across the random crash window (0.2-0.7 x 60 s), so crashes land on
      // live jobs instead of after everything has already finished.
      options.iterations = 2500;
      options.compute_per_touch = 20 * kMicrosecond;
      const Pid pid = cluster.node(n).vmm().create_process(options.pages);
      procs.push_back(std::make_unique<Process>(
          name + ":" + std::to_string(n), pid, make_sweep_program(options)));
      cluster.node(n).cpu().attach(*procs.back());
      job.add_process(n, *procs.back());
    }
  };
  add_job("wide-a", {0, 1});
  add_job("wide-b", {0, 1});
  add_job("solo", {0});

  CheckpointParams cparams;
  cparams.interval = 2 * kSecond;
  CheckpointManager ckpt(cluster, scheduler, cparams);
  scheduler.start();
  ckpt.start();

  RecoverChaosOutcome out;
  out.finished = cluster.sim().run_until(
      [&] { return scheduler.all_finished(); }, 30 * kMinute);
  EXPECT_TRUE(out.finished) << "run did not terminate";
  (void)cluster.sim().run_until([] { return false; },
                                cluster.sim().now() + 5 * kMinute);
  EXPECT_EQ(cluster.sim().pending_events(), 0u) << "event queue did not drain";

  for (const auto& job : scheduler.jobs()) {
    EXPECT_TRUE(job->done()) << job->name();
    out.finish_times.push_back(job->finished_at());
    out.failed.push_back(job->failed());
    out.restarts.push_back(ckpt.restarts_of(job->id()));
    // The headline property: with checkpointing on, no job is ever aborted
    // without a recovery attempt. Sweep programs are checkpointable and the
    // epoch-0 image always exists, so a failed job implies at least one
    // restart was started for it.
    if (job->failed()) {
      EXPECT_GT(ckpt.restarts_of(job->id()), 0)
          << job->name() << " was aborted without a recovery attempt";
    }
  }
  out.checkpoints = ckpt.stats().checkpoints_taken;
  out.pages_staged = ckpt.stats().pages_staged;
  out.jobs_recovered = scheduler.stats().jobs_recovered;
  out.restarts_failed = ckpt.stats().restarts_failed;
  out.nodes_failed = scheduler.stats().nodes_failed;
  // Every started restart resolved one way or the other (the quiesce checks
  // above rule out attempts still in flight).
  EXPECT_EQ(ckpt.stats().restarts_started,
            scheduler.stats().jobs_recovered + ckpt.stats().restarts_failed);

  // Conservation across restores: surviving nodes end with every frame free,
  // every swap slot returned (staged images included), and no live spaces.
  for (int n = 0; n < kNodes; ++n) {
    if (!cluster.node_alive(n)) continue;
    auto& vmm = cluster.node(n).vmm();
    EXPECT_EQ(vmm.free_frames(), vmm.frames().usable_frames()) << "node " << n;
    EXPECT_EQ(cluster.node(n).swap().used_slots(), 0) << "node " << n;
    for (Pid pid : vmm.pids()) {
      EXPECT_FALSE(vmm.space(pid).alive()) << "node " << n << " pid " << pid;
    }
  }
  return out;
}

TEST(RecoverChaos, RandomFaultPlansNeverLoseJobsSilently) {
  int crashes_recovered = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const RecoverChaosOutcome outcome = run_recover_chaos(seed);
    if (outcome.jobs_recovered > 0) ++crashes_recovered;
  }
  // Vacuity guard: some of the random plans must actually have exercised a
  // recovery (FaultPlan::random crashes a node in a sizeable fraction).
  EXPECT_GE(crashes_recovered, 1);
}

TEST(RecoverChaos, SameSeedReproducesTheRunBitForBit) {
  for (const std::uint64_t seed : {2u, 5u, 9u}) {
    const RecoverChaosOutcome first = run_recover_chaos(seed);
    const RecoverChaosOutcome second = run_recover_chaos(seed);
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

}  // namespace
}  // namespace apsim
