// Inter-node job migration through GangScheduler::migrate_job, called
// directly: the success counters, every refusal (which must change
// nothing), the mid-flight aborts (target crash, source crash, a failed
// staging write), and the interplay with a CheckpointManager attached — a
// crash during an in-flight migration, and the first incremental image
// after one.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "gang/gang_scheduler.hpp"
#include "net/mpi.hpp"
#include "recover/checkpoint_manager.hpp"
#include "workloads/generator.hpp"

namespace apsim {
namespace {

NodeParams node_params() {
  NodeParams n;
  n.vmm.total_frames = 512;
  n.vmm.freepages_min = 8;
  n.vmm.freepages_low = 12;
  n.vmm.freepages_high = 16;
  n.swap_slots = 1 << 12;
  n.disk.num_blocks = 1 << 13;  // swap + checkpoint region
  return n;
}

FaultPlan plan_of(const std::vector<std::string>& specs) {
  FaultPlan plan;
  for (const std::string& spec : specs) plan.add(FaultSpec::parse(spec));
  return plan;
}

/// Three nodes. Jobs "a" and "b" timeshare node 0 (1 s quanta, "a" first),
/// so during b's quanta "a" is SIGSTOPped and may migrate; nodes 1 and 2
/// start idle.
struct Migration : ::testing::Test {
  explicit Migration(FaultPlan faults = {})
      : cluster(3, node_params(), NetParams{}, /*seed=*/1, std::move(faults)),
        scheduler(cluster, gang_params()) {}

  static GangParams gang_params() {
    GangParams params;
    params.quantum = kSecond;
    return params;
  }

  Job& add_job(const std::string& name, const std::vector<int>& nodes,
               std::int64_t pages = 300, std::int64_t iterations = 800) {
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
    return job;
  }

  /// The address space of placement \p rank.
  const AddressSpace& space_of(const Job& job, std::size_t rank) {
    const auto& pl = job.processes()[rank];
    return cluster.node(pl.node).vmm().space(pl.process->pid());
  }

  /// Live pages of placement \p rank's address space.
  std::int64_t live_pages(const Job& job, std::size_t rank) {
    const auto& pl = job.processes()[rank];
    return cluster.node(pl.node)
        .vmm()
        .snapshot_image(pl.process->pid())
        .live_pages;
  }

  /// Run \p fn at \p when, then run until every job is done and the event
  /// queue has drained.
  void run_with(SimTime when, const std::function<void()>& fn) {
    (void)cluster.sim().at(when, fn);
    ASSERT_TRUE(cluster.sim().run_until(
        [&] { return scheduler.all_finished(); }, 30 * kMinute))
        << "run did not terminate";
    (void)cluster.sim().run_until([] { return false; },
                                  cluster.sim().now() + kMinute);
    EXPECT_EQ(cluster.sim().pending_events(), 0u) << "event queue did not drain";
  }

  /// Every surviving node ends with all frames free, all swap slots
  /// returned and no live address space (staged ones included).
  void expect_conserved() {
    for (int n = 0; n < cluster.size(); ++n) {
      SCOPED_TRACE("node " + std::to_string(n));
      auto& vmm = cluster.node(n).vmm();
      for (Pid pid : vmm.pids()) {
        EXPECT_FALSE(vmm.space(pid).alive()) << "pid " << pid;
      }
      if (!cluster.node_alive(n)) continue;
      EXPECT_EQ(vmm.free_frames(), vmm.frames().usable_frames());
      EXPECT_EQ(cluster.node(n).swap().used_slots(), 0);
    }
  }

  Cluster cluster;
  std::vector<std::unique_ptr<Process>> procs;
  GangScheduler scheduler;
};

constexpr SimTime kInBQuantum = 1500 * kMillisecond;

// ---------------------------------------------------------------------------
// Success

TEST_F(Migration, CompletedMigrationCountsTheShippedImage) {
  Job& a = add_job("a", {0});
  Job& b = add_job("b", {0});
  scheduler.start();
  std::int64_t live = -1;
  bool moved = false;
  std::uint64_t net_bytes = 0;
  run_with(kInBQuantum, [&] {
    ASSERT_EQ(a.processes()[0].process->state(), ProcState::kStopped);
    live = live_pages(a, 0);
    net_bytes = cluster.network().stats().bytes;
    moved = scheduler.migrate_job(a, {1});
    EXPECT_EQ(cluster.network().stats().bytes - net_bytes,
              static_cast<std::uint64_t>((live + 1) * kPageBytes));
  });
  ASSERT_TRUE(moved);
  ASSERT_GT(live, 0);
  const auto& stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_migrated, 1);
  EXPECT_EQ(stats.migrations_failed, 0);
  EXPECT_EQ(stats.migrated_pages, static_cast<std::uint64_t>(live));
  EXPECT_EQ(stats.migration_bytes,
            static_cast<std::uint64_t>((live + 1) * kPageBytes));
  EXPECT_EQ(a.processes()[0].node, 1);
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  // The migrated job demand-paged its image back in on node 1.
  EXPECT_GT(space_of(a, 0).stats().major_faults, 0u);
  expect_conserved();
}

TEST_F(Migration, ParallelJobMovesEveryRankAndRebindsItsCommunicator) {
  // "wide" spans nodes 0 and 1; "solo" shares node 1 with it, so during
  // solo's quanta both of wide's ranks are stopped.
  Job& wide = add_job("wide", {0, 1});
  Job& solo = add_job("solo", {1});
  MpiComm comm(cluster.sim(), cluster.network(), 2);
  comm.bind(0, *wide.processes()[0].process, 0);
  comm.bind(1, *wide.processes()[1].process, 1);
  scheduler.set_comm_resolver(
      [&](int id) { return id == wide.id() ? &comm : nullptr; });
  scheduler.start();
  std::int64_t live0 = -1;
  std::int64_t live1 = -1;
  bool moved = false;
  run_with(kInBQuantum, [&] {
    live0 = live_pages(wide, 0);
    live1 = live_pages(wide, 1);
    moved = scheduler.migrate_job(wide, {2, 2});
  });
  ASSERT_TRUE(moved);
  const auto& stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_migrated, 1);
  EXPECT_EQ(stats.migrated_pages, static_cast<std::uint64_t>(live0 + live1));
  EXPECT_EQ(stats.migration_bytes,
            static_cast<std::uint64_t>((live0 + 1 + live1 + 1) * kPageBytes));
  EXPECT_EQ(wide.nodes(), (std::vector<int>{2, 2}));
  EXPECT_TRUE(wide.finished());
  EXPECT_TRUE(solo.finished());
  expect_conserved();
}

// ---------------------------------------------------------------------------
// Refusals: false, and nothing changes

/// Everything a refused migrate_job could have touched.
struct Observed {
  std::vector<std::vector<int>> nodes;   ///< per job
  std::vector<std::vector<Pid>> pids;    ///< per job
  std::vector<ProcState> states;         ///< per process
  std::vector<std::size_t> spaces;       ///< per node
  std::vector<std::int64_t> swap_used;   ///< per node
  std::size_t pending = 0;
  std::uint64_t net_bytes = 0;
  int jobs_migrated = 0;
  int migrations_failed = 0;
  std::uint64_t migrated_pages = 0;
  std::uint64_t migration_bytes = 0;

  friend bool operator==(const Observed&, const Observed&) = default;
};

Observed observe(Migration& t) {
  Observed o;
  for (const auto& job : t.scheduler.jobs()) {
    o.nodes.push_back(job->nodes());
    o.pids.emplace_back();
    for (const auto& pl : job->processes()) {
      o.pids.back().push_back(pl.process->pid());
    }
  }
  for (const auto& p : t.procs) o.states.push_back(p->state());
  for (int n = 0; n < t.cluster.size(); ++n) {
    o.spaces.push_back(t.cluster.node(n).vmm().pids().size());
    o.swap_used.push_back(t.cluster.node(n).swap().used_slots());
  }
  o.pending = t.cluster.sim().pending_events();
  o.net_bytes = t.cluster.network().stats().bytes;
  const auto& s = t.scheduler.stats();
  o.jobs_migrated = s.jobs_migrated;
  o.migrations_failed = s.migrations_failed;
  o.migrated_pages = s.migrated_pages;
  o.migration_bytes = s.migration_bytes;
  return o;
}

/// migrate_job(job, targets) must return false and leave observe() as is.
void expect_refused(Migration& t, Job& job, const std::vector<int>& targets,
                    const std::string& why) {
  SCOPED_TRACE(why);
  const Observed before = observe(t);
  EXPECT_FALSE(t.scheduler.migrate_job(job, targets));
  EXPECT_TRUE(observe(t) == before) << "a refused migration changed state";
}

TEST_F(Migration, RefusalsChangeNothing) {
  Job& a = add_job("a", {0});
  Job& b = add_job("b", {0});
  Job& wide = add_job("wide", {1, 2});  // no comm resolver installed
  expect_refused(*this, a, {1}, "before start()");
  scheduler.start();
  bool checked = false;
  (void)cluster.sim().at(500 * kMillisecond, [&] {
    // "a" holds the first quantum: running (or blocked on a fault).
    ASSERT_NE(a.processes()[0].process->state(), ProcState::kStopped);
    expect_refused(*this, a, {1}, "rank not SIGSTOPped");
  });
  (void)cluster.sim().at(kInBQuantum, [&] {
    ASSERT_EQ(a.processes()[0].process->state(), ProcState::kStopped);
    expect_refused(*this, a, {3}, "target out of range");
    expect_refused(*this, a, {-1}, "negative target");
    expect_refused(*this, a, {1, 2}, "more targets than ranks");
    expect_refused(*this, a, {}, "no targets");
    ASSERT_EQ(wide.processes()[0].process->state(), ProcState::kStopped);
    ASSERT_EQ(wide.processes()[1].process->state(), ProcState::kStopped);
    expect_refused(*this, wide, {0, 0},
                   "parallel job without a comm resolver");

    // Fill node 1's swap to one slot short of a's image.
    auto& swap = cluster.node(1).swap();
    const std::int64_t keep = live_pages(a, 0) - 1;
    const auto held = swap.alloc_pages(swap.free_slots() - keep, 64);
    ASSERT_EQ(swap.free_slots(), keep);
    expect_refused(*this, a, {1}, "target swap too small");
    for (const SlotRun& run : held) {
      for (std::int64_t s = 0; s < run.count; ++s) swap.free_slot(run.start + s);
    }

    // Node 2 is fenced; a target there is refused.
    cluster.fail_node(2);
    expect_refused(*this, a, {2}, "dead target");

    ASSERT_TRUE(scheduler.migrate_job(a, {1}));
    expect_refused(*this, a, {1}, "already migrating");
    checked = true;
  });
  ASSERT_TRUE(cluster.sim().run_until(
      [&] { return scheduler.all_finished(); }, 30 * kMinute));
  EXPECT_TRUE(checked);
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_TRUE(wide.failed());  // it had a rank on the fenced node
  expect_refused(*this, a, {0}, "finished job");
  EXPECT_EQ(scheduler.stats().jobs_migrated, 1);
}

// ---------------------------------------------------------------------------
// Mid-flight aborts: the job fails, the staged spaces are released

/// Migrate "a" (timesharing node 0 with "b") onto node 1, then run \p
/// disturb 1 ms later, while the image is still on the wire.
void migrate_then(Migration& t, Job& a, const std::function<void()>& disturb) {
  t.scheduler.start();
  t.run_with(kInBQuantum, [&] {
    ASSERT_TRUE(t.scheduler.migrate_job(a, {1}));
    (void)t.cluster.sim().after(kMillisecond, disturb);
  });
}

void expect_aborted(Migration& t, const Job& a) {
  const auto& stats = t.scheduler.stats();
  EXPECT_EQ(stats.jobs_migrated, 0);
  EXPECT_EQ(stats.migrations_failed, 1);
  EXPECT_TRUE(a.failed());
  t.expect_conserved();
}

TEST_F(Migration, TargetCrashMidFlightFailsTheJob) {
  Job& a = add_job("a", {0});
  Job& b = add_job("b", {0});
  migrate_then(*this, a, [&] { cluster.fail_node(1); });
  expect_aborted(*this, a);
  EXPECT_TRUE(b.finished());
}

TEST_F(Migration, SourceCrashMidFlightFailsTheJob) {
  Job& a = add_job("a", {0});
  Job& b = add_job("b", {0});
  migrate_then(*this, a, [&] { cluster.fail_node(0); });
  expect_aborted(*this, a);
  EXPECT_TRUE(b.failed());  // it shared the crashed node
  // The staged space on the surviving target was released.
  EXPECT_TRUE(cluster.node_alive(1));
  EXPECT_EQ(cluster.node(1).vmm().pids().size(), 1u);
}

TEST_F(Migration, TargetFencedOnlyByTheSchedulerGetsItsStagedSpaceBack) {
  // handle_node_failure without a crash: the scheduler writes node 1 off,
  // but the node keeps running, so the space staged there must still be
  // released for its frames and swap slots to add up.
  Job& a = add_job("a", {0});
  Job& b = add_job("b", {0});
  migrate_then(*this, a, [&] { scheduler.handle_node_failure(1); });
  expect_aborted(*this, a);
  EXPECT_TRUE(b.finished());
  EXPECT_TRUE(cluster.node_alive(1));
}

struct MigrationWriteFault : Migration {
  // Every transfer on node 1's disk fails from the start; nothing but the
  // migration's staging writes ever reaches it.
  MigrationWriteFault()
      : Migration(plan_of({"disk_transient node=1 start_s=0 p=1"})) {}
};

TEST_F(MigrationWriteFault, FailedStagingWriteFailsTheJob) {
  Job& a = add_job("a", {0});
  Job& b = add_job("b", {0});
  migrate_then(*this, a, [] {});
  expect_aborted(*this, a);
  EXPECT_TRUE(b.finished());
  EXPECT_GT(cluster.node(1).disk().stats().io_errors, 0u);
}

// ---------------------------------------------------------------------------
// Migration with checkpointing attached

struct MigrationWithCheckpoints : Migration {
  CheckpointParams ckpt_params() {
    CheckpointParams p;
    p.interval = 2 * kSecond;
    return p;
  }
};

TEST_F(MigrationWithCheckpoints, SourceCrashMidFlightRestoresTheJobOnce) {
  Job& a = add_job("a", {0});
  Job& b = add_job("b", {0});
  CheckpointManager ckpt(cluster, scheduler, ckpt_params());
  scheduler.start();
  ckpt.start();
  run_with(kInBQuantum, [&] {
    ASSERT_TRUE(scheduler.migrate_job(a, {1}));
    (void)cluster.sim().after(kMillisecond, [&] { cluster.fail_node(0); });
  });
  const auto& stats = scheduler.stats();
  // The crash superseded the migration: its staging was dropped and the
  // job restarted from its checkpoint instead, exactly once.
  EXPECT_EQ(stats.jobs_migrated, 0);
  EXPECT_EQ(stats.migrations_failed, 1);
  EXPECT_EQ(ckpt.restarts_of(a.id()), 1);
  EXPECT_FALSE(a.failed());
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());  // restarted from its own checkpoint
  EXPECT_EQ(stats.jobs_recovered, 2);
  EXPECT_EQ(ckpt.stats().restarts_started, 2);
  expect_conserved();
}

TEST_F(MigrationWithCheckpoints, TargetCrashMidFlightFailsTheJobOnce) {
  Job& a = add_job("a", {0});
  Job& b = add_job("b", {0});
  CheckpointManager ckpt(cluster, scheduler, ckpt_params());
  scheduler.start();
  ckpt.start();
  run_with(kInBQuantum, [&] {
    ASSERT_TRUE(scheduler.migrate_job(a, {1}));
    (void)cluster.sim().after(kMillisecond, [&] { cluster.fail_node(1); });
  });
  const auto& stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_migrated, 0);
  EXPECT_EQ(stats.migrations_failed, 1);
  // The image died with its target while the job's own nodes stayed up:
  // no casualty, so the migration's abort fails the job, once, and no
  // restart is started.
  EXPECT_TRUE(a.failed());
  EXPECT_EQ(ckpt.restarts_of(a.id()), 0);
  EXPECT_EQ(stats.jobs_recovered, 0);
  EXPECT_EQ(stats.jobs_failed, 1);
  EXPECT_TRUE(b.finished());
  expect_conserved();
}

TEST_F(MigrationWithCheckpoints, FirstImageAfterMigrationSizesAgainstTheNewSpace) {
  // "a" (600 pages) and "b" (300) thrash node 0 for several checkpoint
  // intervals, so the swap-out baseline of a's source space grows large.
  // After the move "a" runs alone on node 1, still overcommitted, and
  // swaps dirty pages out of its new space. The first image taken there
  // must count them: sized against the source space's baseline, the
  // swapped-out delta clamps to 0 and the image shrinks to the dirty set.
  Job& a = add_job("a", {0}, 600, 60);
  add_job("b", {0}, 300, 200);
  CheckpointManager ckpt(cluster, scheduler, ckpt_params());
  scheduler.start();
  ckpt.start();
  const SimTime move_at = 7 * kSecond + 500 * kMillisecond;  // b's quantum
  SimTime a_taken = -1;
  (void)cluster.sim().at(move_at, [&] {
    ASSERT_EQ(a.processes()[0].process->state(), ProcState::kStopped);
    ASSERT_TRUE(scheduler.migrate_job(a, {1}));
    a_taken = ckpt.image(a.id())->taken_at;
  });
  // Commits land one per event: attribute each one's bytes to its job and
  // stop at a's first commit after the move.
  std::uint64_t commits = 0;
  std::uint64_t bytes = 0;
  std::uint64_t a_raw = 0;
  ASSERT_TRUE(cluster.sim().run_until(
      [&] {
        const auto& s = ckpt.stats();
        if (s.checkpoints_taken == commits) return false;
        const std::uint64_t delta = s.bytes_checkpointed - bytes;
        commits = s.checkpoints_taken;
        bytes = s.bytes_checkpointed;
        if (a_taken < 0 || ckpt.image(a.id())->taken_at == a_taken) {
          return false;
        }
        a_raw = delta / kPageBytes;
        return true;
      },
      30 * kMinute));
  ASSERT_EQ(scheduler.stats().jobs_migrated, 1);
  const JobImage& image = *ckpt.image(a.id());
  ASSERT_GT(image.taken_at, move_at);
  const RankImage& rank = image.ranks[0];
  // Between the snapshot and now the new space's swap-out count only grew.
  const auto dirty = static_cast<std::uint64_t>(rank.mem.dirty_pages);
  const auto live = static_cast<std::uint64_t>(rank.mem.live_pages);
  const std::uint64_t out_now = space_of(a, 0).stats().pages_swapped_out;
  ASSERT_LT(dirty, live);
  EXPECT_GT(a_raw, dirty);
  EXPECT_LE(a_raw, std::min(live, dirty + out_now));
}

}  // namespace
}  // namespace apsim
