// Adaptive control plane tests: knob registry clamping, controller decision
// logic on synthetic signal traces (threshold crossings with hysteresis,
// hill-climb convergence and oscillation damping), the reclaim-policy
// registry and the generational policies (MGLRU aging, S3-FIFO ghost-queue
// promotion), end-to-end runs per policy/controller, golden pins with
// autotune on, bit-identity with autotune off, thread-count-independent
// sweeps, and a chaos run asserting knob bounds plus conservation.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "control/control_plane.hpp"
#include "control/controller.hpp"
#include "control/knobs.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "mem/reclaim_gen.hpp"
#include "mem/reclaim_registry.hpp"
#include "outcome_compare.hpp"
#include "workloads/generator.hpp"

namespace apsim {
namespace {

// ---------------------------------------------------------------------------
// KnobRegistry

struct KnobFixture : ::testing::Test {
  double batch = 32.0;
  double frac = 0.9;
  KnobRegistry knobs;

  void SetUp() override {
    knobs.add({"reclaim_batch", 8.0, 512.0, 16.0},
              [this] { return batch; }, [this](double v) { batch = v; });
    knobs.add({"bg_start_frac", 0.5, 0.99, 0.05},
              [this] { return frac; }, [this](double v) { frac = v; });
  }
};

TEST_F(KnobFixture, SetClampsIntoSpecBounds) {
  EXPECT_EQ(knobs.set(0, 10000.0), 512.0);
  EXPECT_EQ(batch, 512.0);
  EXPECT_EQ(knobs.set(0, -5.0), 8.0);
  EXPECT_EQ(batch, 8.0);
  EXPECT_EQ(knobs.adjustments(), 2u);
}

TEST_F(KnobFixture, NoOpWritesAreNotCountedAsAdjustments) {
  knobs.set(0, 32.0);  // value unchanged
  EXPECT_EQ(knobs.adjustments(), 0u);
  knobs.set(0, 48.0);
  EXPECT_EQ(knobs.adjustments(), 1u);
}

TEST_F(KnobFixture, StepRefusesToLeaveTheBounds) {
  EXPECT_TRUE(knobs.step(0, +1));
  EXPECT_EQ(batch, 48.0);
  knobs.set(0, 512.0);
  EXPECT_FALSE(knobs.step(0, +1));
  EXPECT_EQ(batch, 512.0);
  knobs.set(0, 8.0);
  EXPECT_FALSE(knobs.step(0, -1));
  EXPECT_EQ(batch, 8.0);
}

TEST_F(KnobFixture, InitialValueIsCapturedAndFindWorks) {
  EXPECT_EQ(knobs.initial(0), 32.0);
  EXPECT_EQ(knobs.find("bg_start_frac"), 1);
  EXPECT_EQ(knobs.find("nope"), -1);
}

// ---------------------------------------------------------------------------
// DynThreshController on synthetic traces

SignalRates make_rates(double fault_rate, double stall_frac) {
  SignalRates r;
  r.dt_s = 1.0;
  r.fault_rate = fault_rate;
  r.stall_frac = stall_frac;
  r.free_frac = 0.5;
  return r;
}

TEST_F(KnobFixture, DynThreshCrossesBandsWithHysteresis) {
  DynThreshController ctl;
  using Mode = DynThreshController::Mode;
  EXPECT_EQ(ctl.mode(), Mode::kCalm);

  // Above the fault-rate entry threshold: calm -> pressure.
  ctl.tick(make_rates(300.0, 0.05), knobs);
  EXPECT_EQ(ctl.mode(), Mode::kPressure);

  // Inside the hysteresis band (lo < rate < hi): stays in pressure.
  ctl.tick(make_rates(100.0, 0.05), knobs);
  EXPECT_EQ(ctl.mode(), Mode::kPressure);

  // Below both exit thresholds: back to calm.
  ctl.tick(make_rates(10.0, 0.01), knobs);
  EXPECT_EQ(ctl.mode(), Mode::kCalm);

  // Stall above the thrash entry threshold: straight to thrash.
  ctl.tick(make_rates(10.0, 0.6), knobs);
  EXPECT_EQ(ctl.mode(), Mode::kThrash);

  // Stall inside the band: stays in thrash.
  ctl.tick(make_rates(10.0, 0.2), knobs);
  EXPECT_EQ(ctl.mode(), Mode::kThrash);

  // Stall below the exit threshold, fault rate low: calm again.
  ctl.tick(make_rates(10.0, 0.01), knobs);
  EXPECT_EQ(ctl.mode(), Mode::kCalm);
}

TEST_F(KnobFixture, DynThreshRampsKnobsTowardModeTargets) {
  DynThreshController ctl;
  // Two thrash ticks: reclaim_batch ramps toward max one step at a time.
  ctl.tick(make_rates(0.0, 0.9), knobs);
  EXPECT_EQ(batch, 48.0);
  ctl.tick(make_rates(0.0, 0.9), knobs);
  EXPECT_EQ(batch, 64.0);
  // bg_start_frac ramps down toward init - 2*step.
  EXPECT_NEAR(frac, 0.8, 1e-9);

  // Calm again: knobs walk back to their initials.
  ctl.tick(make_rates(0.0, 0.0), knobs);
  ctl.tick(make_rates(0.0, 0.0), knobs);
  EXPECT_EQ(batch, 32.0);
  EXPECT_NEAR(frac, 0.9, 1e-9);
}

TEST_F(KnobFixture, DynThreshSnapsDiscretePolicyKnobInThrash) {
  double policy = 0.0;
  knobs.add({"reclaim_policy", 0.0, 4.0, 1.0, /*continuous=*/false},
            [&] { return policy; }, [&](double v) { policy = v; });
  DynThreshParams params;
  params.thrash_policy_index = 4.0;
  DynThreshController ctl(params);

  ctl.tick(make_rates(0.0, 0.9), knobs);
  EXPECT_EQ(policy, 4.0);  // snapped, not ramped
  ctl.tick(make_rates(0.0, 0.0), knobs);
  EXPECT_EQ(policy, 0.0);  // calm restores the boot policy
}

// ---------------------------------------------------------------------------
// HillClimbController on synthetic objectives

TEST(HillClimb, ConvergesOnAConvexObjective) {
  double batch = 32.0;
  KnobRegistry knobs;
  knobs.add({"reclaim_batch", 8.0, 512.0, 16.0},
            [&] { return batch; }, [&](double v) { batch = v; });
  HillClimbController ctl;

  // Synthetic world: stall is minimised at batch == 256.
  const auto stall = [&] { return std::abs(batch - 256.0) / 1000.0; };
  for (int i = 0; i < 120; ++i) ctl.tick(make_rates(0.0, stall()), knobs);

  EXPECT_LT(std::abs(batch - 256.0), 3 * 16.0)
      << "climber did not approach the optimum, batch = " << batch;
}

TEST(HillClimb, DampsOscillationOnAFlatObjective) {
  double batch = 32.0;
  double lo = 32.0, hi = 32.0;
  KnobRegistry knobs;
  knobs.add({"reclaim_batch", 8.0, 512.0, 16.0},
            [&] { return batch; },
            [&](double v) {
              batch = v;
              lo = std::min(lo, v);
              hi = std::max(hi, v);
            });
  HillClimbController ctl;

  // Flat objective: every probe is rejected and reverted, and after both
  // directions fail the knob cools down, so the value never drifts.
  for (int i = 0; i < 100; ++i) ctl.tick(make_rates(0.0, 0.3), knobs);

  if (!ctl.probing()) {
    EXPECT_EQ(batch, 32.0);
  }
  // Probes only ever went one step out.
  EXPECT_GE(lo, 32.0 - 16.0);
  EXPECT_LE(hi, 32.0 + 16.0);
}

TEST(HillClimb, RespectsKnobBoundsWhileProbing) {
  double frac = 0.98;  // one step below the max
  KnobRegistry knobs;
  knobs.add({"bg_start_frac", 0.5, 0.99, 0.05},
            [&] { return frac; }, [&](double v) { frac = v; });
  HillClimbController ctl;
  for (int i = 0; i < 50; ++i) {
    ctl.tick(make_rates(0.0, 0.3), knobs);
    EXPECT_GE(frac, 0.5);
    EXPECT_LE(frac, 0.99);
  }
}

TEST(Controllers, FactoryConstructsEveryNameAndRejectsUnknown) {
  for (std::string_view name : controller_names()) {
    const auto ctl = make_controller(name);
    EXPECT_EQ(ctl->name(), name);
  }
  try {
    (void)make_controller("pid");
    FAIL() << "unknown controller did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dyn-thresh"), std::string::npos) << what;
    EXPECT_NE(what.find("hill-climb"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Reclaim-policy registry

TEST(ReclaimRegistry, ConstructsEveryRegisteredPolicy) {
  for (std::string_view name : reclaim_policy_names()) {
    const auto policy = make_reclaim_policy(name);
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(ReclaimRegistry, UnknownNameThrowsListingValidNames) {
  try {
    (void)make_reclaim_policy("lirs");
    FAIL() << "unknown policy did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("clock-lru"), std::string::npos) << what;
    EXPECT_NE(what.find("s3-fifo"), std::string::npos) << what;
    EXPECT_NE(what.find("mglru"), std::string::npos) << what;
  }
}

TEST(ReclaimRegistry, ConfigValidationRejectsUnknownPolicyAndController) {
  ExperimentConfig config;
  config.reclaim_policy = "lirs";
  try {
    config.validate();
    FAIL() << "validate did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("clock-lru"), std::string::npos);
  }
  config.reclaim_policy = "clock-lru";
  config.autotune_controller = "pid";
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.autotune_controller = "hill-climb";
  EXPECT_NO_THROW(config.validate());
}

// ---------------------------------------------------------------------------
// Generational policies against a real Vmm

struct GenPolicyFixture : ::testing::Test {
  static VmmParams params() {
    VmmParams p;
    p.total_frames = 128;
    p.freepages_min = 8;
    p.freepages_low = 12;
    p.freepages_high = 16;
    p.page_cluster = 8;
    p.reclaim_batch = 4;  // small batches make victim order observable
    return p;
  }

  Simulator sim;
  Disk disk{sim, DiskParams{.num_blocks = 1 << 16}};
  SwapDevice swap{disk, 0, 1 << 16};
  Vmm vmm{sim, swap, params()};

  bool sync_fault(Pid pid, VPage v, bool write = false) {
    bool done = false;
    vmm.fault(pid, v, write, [&] { done = true; });
    sim.run();
    return done;
  }

  void populate(Pid pid, VPage begin, VPage end) {
    for (VPage v = begin; v < end; ++v) {
      if (!vmm.touch(pid, v, true)) {
        ASSERT_TRUE(sync_fault(pid, v, true));
      }
    }
  }

  void force_free(std::int64_t target) {
    bool done = false;
    vmm.request_free_frames(target, [&] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }

  void clear_referenced(Pid pid, VPage begin, VPage end) {
    for (VPage v = begin; v < end; ++v) {
      vmm.space(pid).page_table().at(v).set_referenced(false);
    }
  }

  [[nodiscard]] bool present(Pid pid, VPage v) {
    return vmm.space(pid).page_table().at(v).present();
  }
};

TEST_F(GenPolicyFixture, MglruEvictsColdGenerationsBeforeHotOnes) {
  vmm.set_reclaim_policy(make_reclaim_policy("mglru"));
  const Pid pid = vmm.create_process(64);
  populate(pid, 0, 30);
  // Pages 0..11 stay hot (referenced); 12..29 go cold.
  clear_referenced(pid, 12, 30);

  // Needs 4 frames: the sweep promotes the hot pages to the youngest
  // generation and ages the cold ones down to eviction.
  force_free(102);
  for (VPage v = 0; v < 12; ++v) EXPECT_TRUE(present(pid, v)) << "page " << v;
  std::int64_t evicted = 0;
  for (VPage v = 12; v < 30; ++v) {
    if (!present(pid, v)) ++evicted;
  }
  EXPECT_GE(evicted, 4);

  // More pressure without re-touching: still only cold pages go.
  force_free(106);
  for (VPage v = 0; v < 12; ++v) EXPECT_TRUE(present(pid, v)) << "page " << v;
}

TEST_F(GenPolicyFixture, S3FifoGhostHitPromotesReenteringPagesToMain) {
  auto owned = std::make_unique<S3FifoPolicy>();
  S3FifoPolicy* policy = owned.get();
  vmm.set_reclaim_policy(std::move(owned));
  const Pid pid = vmm.create_process(64);
  populate(pid, 0, 30);
  // Make the front of the probationary queue evictable.
  clear_referenced(pid, 0, 9);

  force_free(102);  // evicts from the small queue, leaving ghosts
  EXPECT_GE(policy->stats().small_evictions, 4u);
  EXPECT_GE(policy->ghost_size(), 4);
  EXPECT_FALSE(present(pid, 0));
  EXPECT_TRUE(policy->in_ghost(pid, 0));

  // The evicted pages come back while their ghosts are live...
  ASSERT_TRUE(sync_fault(pid, 0));
  ASSERT_TRUE(sync_fault(pid, 1));

  // ...so the next reclaim pass ingests them straight into the main queue.
  clear_referenced(pid, 4, 9);
  force_free(static_cast<std::int64_t>(vmm.free_frames()) + 4);
  EXPECT_GE(policy->stats().ghost_hits, 2u);
  EXPECT_TRUE(policy->in_main(pid, 0));
  EXPECT_TRUE(policy->in_main(pid, 1));
}

TEST_F(GenPolicyFixture, S3FifoReferencedSmallPagesArePromotedNotEvicted) {
  auto owned = std::make_unique<S3FifoPolicy>();
  S3FifoPolicy* policy = owned.get();
  vmm.set_reclaim_policy(std::move(owned));
  const Pid pid = vmm.create_process(64);
  populate(pid, 0, 30);  // every page referenced
  clear_referenced(pid, 20, 30);

  force_free(102);
  // The referenced front of the small queue was promoted to main, and the
  // unreferenced tail was evicted.
  EXPECT_GE(policy->stats().promotions, 1u);
  EXPECT_GE(policy->main_size(), 1);
  for (VPage v = 0; v < 20; ++v) EXPECT_TRUE(present(pid, v)) << "page " << v;
}

// ---------------------------------------------------------------------------
// Vmm actuator setters

TEST_F(GenPolicyFixture, VmmActuatorSettersClampAndPreserveWatermarkOrder) {
  vmm.set_reclaim_batch(-3);
  EXPECT_EQ(vmm.params().reclaim_batch, 1);
  vmm.set_max_prefetch_run(0);
  EXPECT_EQ(vmm.params().max_prefetch_run, 1);

  // low is clamped into [min, high].
  vmm.set_freepages_low(2);
  EXPECT_EQ(vmm.params().freepages_low, 8);
  vmm.set_freepages_low(100);
  EXPECT_EQ(vmm.params().freepages_low, 16);

  // high never drops below low.
  vmm.set_freepages_high(4);
  EXPECT_EQ(vmm.params().freepages_high, 16);
  vmm.set_freepages_high(64);
  EXPECT_EQ(vmm.params().freepages_high, 64);
}

// ---------------------------------------------------------------------------
// Scenario keys

TEST(ControlScenario, ParsesAutotuneAndPolicyKeys) {
  std::istringstream in(R"(
[defaults]
app = IS
class = W
autotune = true
autotune_controller = hill-climb
autotune_interval_s = 0.5
autotune_policy = true
reclaim_policy = s3-fifo
reclaim_batch = 64
max_prefetch_run = 256

[run]
label = tuned
)");
  const auto configs = parse_scenario(in);
  ASSERT_EQ(configs.size(), 1u);
  const ExperimentConfig& c = configs[0];
  EXPECT_TRUE(c.autotune);
  EXPECT_EQ(c.autotune_controller, "hill-climb");
  EXPECT_EQ(c.autotune_interval, kSecond / 2);
  EXPECT_TRUE(c.autotune_policy);
  EXPECT_EQ(c.reclaim_policy, "s3-fifo");
  EXPECT_EQ(c.reclaim_batch, 64);
  EXPECT_EQ(c.max_prefetch_run, 256);
}

// ---------------------------------------------------------------------------
// End-to-end runs

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.app = NpbApp::kIS;
  config.cls = NpbClass::kW;
  config.nodes = 1;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.quantum = 4 * kSecond;
  // The golden-run scale: long enough that every switch pages (the signals
  // the controllers react to), short enough to stay a unit test.
  config.iterations_scale = 0.25;
  config.policy = PolicySet::parse("orig");
  return config;
}

TEST(ControlRuns, EveryReclaimPolicyCompletesGangAndBatchRuns) {
  for (std::string_view name : reclaim_policy_names()) {
    SCOPED_TRACE(std::string("policy ") + std::string(name));
    ExperimentConfig config = small_config();
    config.reclaim_policy = std::string(name);
    const RunOutcome gang = run_gang(config);
    EXPECT_GT(gang.makespan, 0);
    EXPECT_EQ(gang.jobs_failed, 0);
    config.batch_mode = true;
    const RunOutcome batch = run_batch(config);
    EXPECT_GT(batch.makespan, 0);
    EXPECT_EQ(batch.jobs_failed, 0);
  }
}

TEST(ControlRuns, AutotuneRunsTickAndAdjustUnderPressure) {
  for (const char* controller : {"dyn-thresh", "hill-climb"}) {
    SCOPED_TRACE(controller);
    ExperimentConfig config = small_config();
    config.autotune = true;
    config.autotune_controller = controller;
    config.autotune_interval = kSecond;
    const RunOutcome out = run_gang(config);
    EXPECT_GT(out.makespan, 0);
    EXPECT_GT(out.autotune_ticks, 0u);
    EXPECT_GT(out.autotune_adjustments, 0u);
  }
}

TEST(ControlRuns, AutotuneOffIsBitIdenticalToDefaultConfig) {
  const RunOutcome base = run_gang(small_config());

  // Explicit defaults plus differing latent settings: with autotune off and
  // clock-lru named, nothing may change.
  ExperimentConfig config = small_config();
  config.autotune = false;
  config.autotune_controller = "hill-climb";
  config.autotune_interval = 250 * kMillisecond;
  config.autotune_policy = true;
  config.reclaim_policy = "clock-lru";
  const RunOutcome out = run_gang(config);
  SCOPED_TRACE("autotune off must be inert");
  expect_same_outcome(base, out);
  EXPECT_EQ(out.autotune_ticks, 0u);
  EXPECT_EQ(out.autotune_adjustments, 0u);
}

// Golden pins with autotune on: the control plane is deterministic, so these
// reproduce bit for bit on every platform. Drift means controller behaviour
// changed — update in the same commit, explaining why.
TEST(ControlGolden, AutotunedRunsArePinned) {
  struct Pin {
    const char* controller;
    bool tune_policy;
    SimTime makespan;
    std::uint64_t major_faults;
    std::uint64_t ticks;
  };
  // Reference: the same config with autotune off pins at makespan
  // 36857718138 / 3376 major faults (test_golden_run "orig"). Dyn-thresh
  // cuts both roughly in half on this trace; hill-climb's probing loses to
  // the bursty objective here (and the pin documents that honestly).
  const Pin pins[] = {
      {"dyn-thresh", false, 21660462197, 1606, 21},
      {"dyn-thresh", true, 25792152208, 2093, 25},
      {"hill-climb", false, 68085301780, 7210, 68},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.controller) +
                 (pin.tune_policy ? "+policy" : ""));
    ExperimentConfig config = small_config();
    config.autotune = true;
    config.autotune_controller = pin.controller;
    config.autotune_policy = pin.tune_policy;
    const RunOutcome out = run_gang(config);
    EXPECT_EQ(out.makespan, pin.makespan);
    EXPECT_EQ(out.major_faults, pin.major_faults);
    EXPECT_EQ(out.autotune_ticks, pin.ticks);
  }
}

TEST(ControlDeterminism, AutotunedSweepIsThreadCountIndependent) {
  std::vector<ExperimentConfig> configs;
  for (const char* controller : {"dyn-thresh", "hill-climb"}) {
    for (const char* policy : {"clock-lru", "mglru", "s3-fifo"}) {
      ExperimentConfig config = small_config();
      config.autotune = true;
      config.autotune_controller = controller;
      config.reclaim_policy = policy;
      configs.push_back(config);
    }
  }
  configs[0].autotune_policy = true;  // one run that switches policies live

  const std::function<RunOutcome(const ExperimentConfig&)> fn = run_config;
  const auto serial = parallel_map<RunOutcome>(configs, fn, 1);
  for (unsigned threads : {2u, 8u}) {
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
// Chaos: control plane under injected faults

TEST(ControlChaos, KnobsStayBoundedAndMemoryIsConservedUnderFaults) {
  constexpr int kNodes = 2;
  NodeParams node_params;
  node_params.vmm.total_frames = 512;
  node_params.vmm.freepages_min = 8;
  node_params.vmm.freepages_low = 12;
  node_params.vmm.freepages_high = 16;
  node_params.disk.num_blocks = 1 << 16;

  FaultPlan plan;
  plan.add(FaultSpec::parse("disk_transient start_s=1 end_s=30 p=0.02"));

  Cluster cluster(kNodes, node_params, NetParams{}, /*seed=*/7, plan);
  GangParams params;
  params.quantum = 2 * kSecond;
  GangScheduler scheduler(cluster, params);

  std::vector<std::unique_ptr<Process>> procs;
  auto add_job = [&](const std::string& name, const std::vector<int>& nodes,
                     std::int64_t pages, std::int64_t iterations) {
    Job& job = scheduler.create_job(name);
    for (int n : nodes) {
      SweepOptions options;
      options.pages = pages;
      options.iterations = iterations;
      options.compute_per_touch = 20 * kMicrosecond;
      const Pid pid = cluster.node(n).vmm().create_process(pages);
      procs.push_back(std::make_unique<Process>(
          name + ":" + std::to_string(n), pid, make_sweep_program(options)));
      cluster.node(n).cpu().attach(*procs.back());
      job.add_process(n, *procs.back());
    }
  };
  add_job("wide-a", {0, 1}, 300, 2000);
  add_job("wide-b", {0, 1}, 300, 2000);

  ControlPlaneParams pparams;
  pparams.controller = "hill-climb";
  pparams.interval = 500 * kMillisecond;
  pparams.tune_policy = true;
  ControlPlane plane(cluster, scheduler, pparams);

  scheduler.start();
  plane.start();
  const bool finished = cluster.sim().run_until(
      [&] { return scheduler.all_finished(); }, 30 * kMinute);
  EXPECT_TRUE(finished);

  // The plane stops ticking once the schedule drains: the queue quiesces.
  (void)cluster.sim().run_until([] { return false; },
                                cluster.sim().now() + 5 * kMinute);
  EXPECT_EQ(cluster.sim().pending_events(), 0u);

  EXPECT_GT(plane.stats().ticks, 0u);

  // Every knob ends inside its declared bounds despite fault-driven signal
  // swings, and surviving nodes conserve frames and swap slots.
  for (int n = 0; n < kNodes; ++n) {
    KnobRegistry& knobs = plane.knobs(n);
    for (std::size_t i = 0; i < knobs.size(); ++i) {
      const KnobSpec& spec = knobs.spec(i);
      const double v = knobs.get(i);
      EXPECT_GE(v, spec.min) << "node " << n << " knob " << spec.name;
      EXPECT_LE(v, spec.max) << "node " << n << " knob " << spec.name;
    }
    if (!cluster.node_alive(n)) continue;
    auto& vmm = cluster.node(n).vmm();
    EXPECT_EQ(vmm.free_frames(), vmm.frames().usable_frames()) << "node " << n;
    EXPECT_EQ(cluster.node(n).swap().used_slots(), 0) << "node " << n;
  }
}

}  // namespace
}  // namespace apsim
