// Differential tests: the clock-lru, mglru and s3-fifo policies against
// verbatim copies of their pre-optimisation versions (reclaim_oracles.hpp),
// which sweep page at a time and rescan every page table. Every
// select_victims call of a run is recorded through the reclaim registry's
// policy hook; the optimised and the oracle run must agree call by call on
// the victims returned and on the whole RunOutcome.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "disk/disk.hpp"
#include "disk/swap_device.hpp"
#include "harness/runner.hpp"
#include "mem/reclaim_gen.hpp"
#include "mem/vmm.hpp"
#include "outcome_compare.hpp"
#include "reclaim_recorder.hpp"
#include "sim/simulator.hpp"

namespace apsim {
namespace {

struct Recorded {
  RunOutcome outcome;
  ReclaimLog log;
};

Recorded run_recorded(const ExperimentConfig& config, bool use_oracles) {
  ScopedRecording recording(use_oracles);
  Recorded r;
  r.outcome = run_config(config);
  r.log = recording.log();
  return r;
}

void expect_same_calls(const ReclaimLog& got, const ReclaimLog& want) {
  ASSERT_FALSE(want.calls.empty()) << "the run never consulted a policy";
  EXPECT_EQ(got.calls_by_policy, want.calls_by_policy);
  ASSERT_EQ(got.calls.size(), want.calls.size());
  for (std::size_t i = 0; i < got.calls.size(); ++i) {
    ASSERT_EQ(got.calls[i], want.calls[i]) << "first diverging call: #" << i;
  }
}

void expect_matches_oracles(const ExperimentConfig& config) {
  const Recorded got = run_recorded(config, /*use_oracles=*/false);
  const Recorded want = run_recorded(config, /*use_oracles=*/true);
  expect_same_calls(got.log, want.log);
  expect_same_outcome(got.outcome, want.outcome);
}

/// Two LU.W gangs against 22 MB: every switch pages, and under ao/ai many
/// resident pages are in flight whenever reclaim runs.
ExperimentConfig gang_config(const std::string& policy,
                             const std::string& mode) {
  ExperimentConfig config;
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kW;
  config.nodes = 1;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.quantum = 4 * kSecond;
  // Selective page-out serves most victims itself; a longer run makes its
  // fallback work too.
  config.iterations_scale = mode == "so/ao/ai/bg" ? 0.15 : 0.1;
  config.policy = PolicySet::parse(mode);
  config.reclaim_policy = policy;
  return config;
}

using PolicyAndMode = std::tuple<std::string, std::string>;

class GangDifferential : public ::testing::TestWithParam<PolicyAndMode> {};

TEST_P(GangDifferential, MatchesThePageAtATimePolicy) {
  const auto& [policy, mode] = GetParam();
  expect_matches_oracles(gang_config(policy, mode));
}

std::string case_name(const ::testing::TestParamInfo<PolicyAndMode>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
  for (char& c : name) {
    if (c == '-' || c == '/') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesByMode, GangDifferential,
    ::testing::Combine(::testing::Values("clock-lru", "mglru", "s3-fifo"),
                       ::testing::Values("orig", "ao/ai", "so/ao/ai/bg")),
    case_name);

TEST(ReclaimDifferential, ClockWithPageAging) {
  for (const char* mode : {"orig", "ao/ai"}) {
    SCOPED_TRACE(mode);
    ExperimentConfig config = gang_config("clock-lru", mode);
    config.page_aging = true;
    expect_matches_oracles(config);
  }
}

TEST(ReclaimDifferential, DeadPidsInTheRotation) {
  // An open stream: finished jobs leave released (dead) address spaces in
  // the VMM's rotation while later arrivals keep reclaim busy.
  for (const char* policy : {"clock-lru", "mglru", "s3-fifo"}) {
    SCOPED_TRACE(policy);
    ExperimentConfig config;
    config.nodes = 1;
    config.node_memory_mb = 64.0;
    config.usable_memory_mb = 12.0;
    config.instances = 4;
    config.quantum = kSecond / 2;
    config.arrival_process = "poisson";
    config.arrival_mean_s = 0.5;
    config.open_max_width = 1;
    config.open_min_pages = 1536;
    config.open_max_pages = 3584;
    config.open_min_iterations = 2;
    config.open_max_iterations = 6;
    config.policy = PolicySet::parse("ao/ai");
    config.reclaim_policy = policy;
    expect_matches_oracles(config);
  }
}

TEST(ReclaimDifferential, LivePolicySwitch) {
  // The control plane's policy actuator builds each new base policy
  // through the registry mid-run; dyn-thresh snaps to s3-fifo under
  // thrash (the ControlGolden dyn-thresh+policy run).
  ExperimentConfig config = gang_config("clock-lru", "orig");
  config.app = NpbApp::kIS;
  config.iterations_scale = 0.25;
  config.autotune = true;
  config.autotune_controller = "dyn-thresh";
  config.autotune_policy = true;
  const Recorded got = run_recorded(config, false);
  const Recorded want = run_recorded(config, true);
  EXPECT_GT(want.outcome.autotune_policy_switches, 0u);
  EXPECT_GE(want.log.calls_by_policy.size(), 2u);
  expect_same_calls(got.log, want.log);
  expect_same_outcome(got.outcome, want.outcome);
}

// ---------------------------------------------------------------------------
// VMM-level scripts

VmmParams lab_vmm_params() {
  VmmParams params;
  params.total_frames = 512;
  params.freepages_min = 16;
  params.freepages_low = 24;
  params.freepages_high = 48;
  return params;
}

/// One paging stack (simulator, disk, swap device and Vmm) for the scripts.
struct Lab {
  Simulator sim;
  Disk disk{sim, DiskParams{.num_blocks = 1 << 14}};
  SwapDevice swap{disk, 0, 1 << 14};
  Vmm vmm{sim, swap, lab_vmm_params()};

  /// Schedule \p work at the current instant and drain the event queue.
  void run(const std::function<void()>& work) {
    sim.after(0, [&work] { work(); });
    (void)sim.run();
  }
};

constexpr std::int64_t kLabPages = 400;  // per process; three overcommit 512

/// Touch \p total pages of \p pids in a fixed pseudo-random order (half the
/// touches hit the first quarter of a space; one in four writes), waiting
/// out each fault. Dead processes' turns are skipped.
void touch_mix(Vmm& vmm, std::vector<Pid> pids, std::int64_t total,
               std::uint64_t seed) {
  struct State {
    std::int64_t done = 0;
    std::uint64_t rng = 0;
  };
  auto st = std::make_shared<State>(State{0, seed});
  auto step = std::make_shared<std::function<void()>>();
  // Pending faults hold the strong reference, so the chain frees itself.
  const std::weak_ptr<std::function<void()>> weak = step;
  *step = [st, weak, total, pids = std::move(pids), &vmm] {
    while (st->done < total) {
      st->rng = st->rng * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t r = st->rng >> 17;
      const Pid pid = pids[r % pids.size()];
      if (!vmm.space(pid).alive()) {
        ++st->done;
        continue;
      }
      const std::int64_t span = ((r >> 8) & 1) ? kLabPages : kLabPages / 4;
      const VPage v = static_cast<VPage>((r >> 12) % span);
      const bool write = ((r >> 30) & 3) == 0;
      if (vmm.touch(pid, v, write)) {
        ++st->done;
        continue;
      }
      vmm.fault(pid, v, write, [st, strong = weak.lock()] {
        ++st->done;
        (*strong)();
      });
      return;
    }
  };
  (*step)();
}

/// Three processes touch pages while the second one's dirty pages are
/// written back in the background (resident pages in flight).
void lab_phase_one(Lab& lab) {
  Vmm& vmm = lab.vmm;
  std::vector<Pid> pids;
  for (int i = 0; i < 3; ++i) pids.push_back(vmm.create_process(kLabPages));
  lab.run([&vmm, pids] {
    touch_mix(vmm, pids, 3000, 11);
    vmm.writeback_dirty(pids[1], 96, IoPriority::kBackground,
                        [](std::int64_t) {});
  });
}

/// The second process dies; the other two keep paging around its corpse.
void lab_phase_two(Lab& lab) {
  Vmm& vmm = lab.vmm;
  const std::vector<Pid> pids = vmm.pids();
  lab.run([&vmm, pids] {
    vmm.release_process(pids[1]);
    touch_mix(vmm, {pids[0], pids[2]}, 3000, 23);
  });
}

/// Phase one, then phase two, in one lab. Returns everything the policies
/// did.
ReclaimLog dead_pid_script(const std::string& policy, bool use_oracles) {
  ScopedRecording recording(use_oracles);
  Lab lab;
  lab.vmm.set_reclaim_policy(make_reclaim_policy(policy));
  lab_phase_one(lab);
  lab_phase_two(lab);
  return recording.log();
}

TEST(ReclaimDifferential, DeadPidMidRun) {
  for (const char* policy : {"clock-lru", "mglru", "s3-fifo"}) {
    SCOPED_TRACE(policy);
    expect_same_calls(dead_pid_script(policy, false),
                      dead_pid_script(policy, true));
  }
}

TEST(ReclaimDifferential, S3FifoCalledWithoutBeingInstalled) {
  // Two identical labs run the default clock; each also owns an s3-fifo
  // that sees no on_map calls. Between rounds of paging, both s3-fifos are
  // asked for victims (repeatedly, so later calls find their earlier
  // victims still resident); they must stay in lockstep.
  Lab lab_new;
  Lab lab_ref;
  S3FifoPolicy fresh;
  oracle::S3FifoPolicy ref;
  std::vector<Pid> pids;
  for (int i = 0; i < 3; ++i) {
    pids.push_back(lab_new.vmm.create_process(kLabPages));
    ASSERT_EQ(lab_ref.vmm.create_process(kLabPages), pids.back());
  }
  for (std::uint64_t round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (Lab* lab : {&lab_new, &lab_ref}) {
      Vmm& vmm = lab->vmm;
      lab->run([&vmm, &pids, round] { touch_mix(vmm, pids, 500, round + 1); });
    }
    for (std::int64_t k = 0; k < 3; ++k) {
      const auto got = fresh.select_victims(lab_new.vmm, 16 + 8 * k);
      const auto want = ref.select_victims(lab_ref.vmm, 16 + 8 * k);
      ASSERT_EQ(got, want) << "call " << k;
    }
    EXPECT_EQ(fresh.small_size(), ref.small_size());
    EXPECT_EQ(fresh.main_size(), ref.main_size());
    EXPECT_EQ(fresh.ghost_size(), ref.ghost_size());
    EXPECT_EQ(fresh.stats().ghost_hits, ref.stats().ghost_hits);
    EXPECT_EQ(fresh.stats().promotions, ref.stats().promotions);
    EXPECT_EQ(lab_new.vmm.stats().pages_mapped,
              lab_ref.vmm.stats().pages_mapped);
  }
}

}  // namespace
}  // namespace apsim
