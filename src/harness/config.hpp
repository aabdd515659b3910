#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cluster/node.hpp"
#include "core/policy.hpp"
#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "recover/restart_planner.hpp"
#include "workloads/spec.hpp"

/// \file config.hpp
/// One experiment configuration: which workload, how many nodes, how much
/// usable memory (the rest is wired down, reproducing the paper's mlock
/// trick), which adaptive-paging policy, and the gang quantum.

namespace apsim {

struct GangParams;

/// Run modes: a fixed-set gang run (the default), the batch baseline
/// (`batch_mode`) and an open arrival stream (`arrival_process`). A key
/// whose comment names the modes it supports is rejected by validate() in
/// the others.
struct ExperimentConfig {
  std::string label;

  NpbApp app = NpbApp::kLU;
  NpbClass cls = NpbClass::kB;
  int nodes = 1;       ///< job width == cluster size
  int instances = 2;   ///< identical jobs sharing the machine(s)

  double node_memory_mb = 1024.0;   ///< physical RAM per node (paper: 1 GB)
  double usable_memory_mb = 350.0;  ///< after wiring the rest down

  PolicySet policy;
  SimDuration quantum = 5 * kMinute;

  /// Swap read-ahead pages per major fault (Linux 2.2 default: 16).
  std::int64_t page_cluster = 16;

  /// Enable the kernel's page-aging mode (Linux 2.2 PG_age) instead of the
  /// one-bit second-chance clock (see VmmParams::page_aging).
  bool page_aging = false;
  std::optional<SimDuration> quantum_override;  ///< per-job (paper: SP 7 min)
  double bg_start_frac = 0.9;
  bool pass_ws_hint = false;  ///< scheduler-declared WS instead of kernel estimate

  std::uint64_t seed = 1;
  double iterations_scale = 1.0;

  /// Record each node's pagein/pageout time series into
  /// RunOutcome::traces (one per node). All modes.
  bool capture_traces = false;

  /// When non-empty, the run constructs a switch-phase Tracer, instruments
  /// the whole switch path, writes Chrome trace_event JSON to this path
  /// (open in chrome://tracing or Perfetto) and fills
  /// RunOutcome::switch_phases. Empty (the default) constructs no tracer at
  /// all: output is bit-identical to a tracer-free build. The magic value
  /// "-" collects spans and phase stats without writing a file (for tests
  /// and benches that consume RunOutcome::trace in memory). All modes; a
  /// batch run has no switch path, so it records the vmm, disk and tier
  /// tracks only.
  std::string trace_json;

  /// Run the fixed job set back to back instead of gang-scheduled (the
  /// baseline); `policy` and `sched_policy` are ignored in this mode. Not
  /// with an open arrival stream, checkpointing or autotune.
  bool batch_mode = false;

  /// Force the scalar per-touch access loop instead of the batched touch
  /// engine (see CpuParams::batched_touch). The two are bit-identical in
  /// every counter; this knob exists for perf baselines (bench --scalar)
  /// and equivalence tests.
  bool scalar_touch = false;

  /// Simulation horizon safety net; runs not finished by then are reported
  /// with makespan == -1.
  SimDuration horizon = 100 * 3600 * kSecond;

  /// Faults injected into the run. An empty plan means no injector is
  /// constructed at all: fault-free runs are bit-identical to pre-fault
  /// builds.
  FaultPlan faults;

  /// Gang switch watchdog. 0 = automatic: enabled (50 ms) only when the
  /// fault plan disturbs the control plane (dropped/delayed signals or node
  /// crashes), disabled otherwise so undisturbed runs schedule no extra
  /// events. > 0 forces that timeout; < 0 forces the watchdog off.
  SimDuration switch_watchdog = 0;

  /// Swap partition size per node, MB. 0 = auto-size to ~1.5x the workload's
  /// anonymous footprint (the default installation). A small explicit value
  /// exercises the out-of-swap failure path.
  double swap_mb = 0.0;

  /// Compressed swap tier (zswap-style) in front of the disk swap device.
  /// tier_mb is the pool's RAM budget, carved out of the node's usable
  /// memory; 0 disables the tier entirely (bit-identical to a build without
  /// it). The ratio model describes how compressible the workload's pages
  /// are; tier_writeback enables the background drain of LRU-cold pool
  /// entries to disk.
  double tier_mb = 0.0;
  TierRatioModel tier_ratio_model = TierRatioModel::kMixed;
  bool tier_writeback = true;

  /// Vmm swap-in retry/backoff tuning (VmmParams equivalents; see vmm.hpp
  /// for semantics). Defaults match the kernel model's shipped values.
  int io_retry_limit = 4;
  SimDuration io_retry_base = 5 * kMillisecond;
  SimDuration io_retry_cap = 80 * kMillisecond;
  int stalled_fault_retry_limit = 200;
  int write_failure_streak_limit = 3;

  /// Coordinated checkpoint/restart. 0 disables recovery entirely: no
  /// CheckpointManager is constructed, no events are scheduled, and the run
  /// is bit-identical to a build without the subsystem (the golden suites
  /// pin this). > 0 takes a coordinated checkpoint of every job at this
  /// period and restarts crashed jobs from their last image on surviving
  /// nodes. When enabled, each node's disk gains a checkpoint region past
  /// the swap partition (num_blocks doubles), so checkpoint I/O contends
  /// with paging on the same device. Fixed-set gang runs only: the batch
  /// baseline has no gang scheduler to checkpoint, and an open stream
  /// submits jobs the checkpoint state was not sized for.
  SimDuration checkpoint_interval = 0;
  bool ckpt_incremental = true;  ///< dirty/delta images vs full live set
  int ckpt_max_retries = 3;      ///< image-write retry ladder depth
  RestartPlacement restart_placement = RestartPlacement::kSpread;
  LostWorkModel lost_work_model = LostWorkModel::kCpu;

  /// Base page-replacement policy, by registry name (see
  /// reclaim_registry.hpp): clock-lru (the kernel default), exact-lru, fifo,
  /// mglru, s3-fifo. "clock-lru" installs nothing and is bit-identical to
  /// builds without the registry.
  std::string reclaim_policy = "clock-lru";

  /// VmmParams::reclaim_batch / max_prefetch_run (see vmm.hpp). These are
  /// the boot values; the control plane may move them at runtime.
  std::int64_t reclaim_batch = 32;
  std::int64_t max_prefetch_run = 512;

  /// Gang scheduler policy, by registry name (see gang/policy_registry.hpp):
  /// matrix (the paper's rotation, the default), admission, backfill,
  /// gang-edf, dfrs. "matrix" reproduces the pre-registry scheduler
  /// bit-identically (the golden suites pin this).
  std::string sched_policy = "matrix";

  /// dfrs tuning: co-resident declared working sets may fill this fraction
  /// of usable memory, and at most dfrs_max_share gangs share one node.
  double dfrs_mem_frac = 0.85;
  int dfrs_max_share = 2;

  /// dfrs: allow one consolidation migration (costed through the network
  /// model) per clean job departure.
  bool auto_migrate = false;

  /// Open-arrival mode: "none" (the default) runs the classic fixed job
  /// set; "poisson" / "diurnal" stream `instances` synthetic jobs onto the
  /// cluster over time (see workloads/generator.hpp), with `nodes` acting
  /// as the cluster size and each job's width sampled in
  /// [1, open_max_width]. The NPB app/class knobs are ignored in this mode.
  std::string arrival_process = "none";
  double arrival_mean_s = 60.0;     ///< mean interarrival at the peak rate
  double diurnal_period_s = 3600.0;
  double diurnal_low_frac = 0.2;
  int num_tenants = 1;
  double straggler_fraction = 0.0;
  double straggler_slowdown = 4.0;
  double deadline_slack = 0.0;      ///< 0 = no deadlines
  int open_max_width = 1;
  std::int64_t open_min_pages = 2048;   ///< per-rank footprint bounds
  std::int64_t open_max_pages = 8192;
  std::int64_t open_min_iterations = 4;
  std::int64_t open_max_iterations = 12;

  /// Adaptive control plane (src/control). Off (the default) constructs no
  /// ControlPlane at all: runs are bit-identical to builds without the
  /// subsystem. On, `autotune_controller` names the decision maker
  /// (dyn-thresh or hill-climb) ticked every `autotune_interval` of
  /// simulated time; `autotune_policy` additionally exposes the reclaim
  /// policy selector as a discrete knob. Fixed-set gang runs only: the
  /// batch baseline has no gang scheduler to tune, and the control plane
  /// stops for good at an open stream's first idle gap.
  bool autotune = false;
  std::string autotune_controller = "dyn-thresh";
  SimDuration autotune_interval = kSecond;
  bool autotune_policy = false;

  /// Check the configuration for nonsense (negative quantum, bg_start_frac
  /// outside [0, 1], zero usable memory, swap smaller than wired memory,
  /// ...). Throws std::invalid_argument with a specific message.
  void validate() const;

  /// Canonical one-line description used as the outcome label.
  [[nodiscard]] std::string describe() const;

  /// Node hardware/kernel parameters implied by this config. Calls
  /// validate().
  [[nodiscard]] NodeParams make_node_params() const;

  /// Gang scheduler parameters implied by this config, with the switch
  /// watchdog auto-armed when the fault plan disturbs the control plane.
  /// Calls validate(). (GangParams is declared in gang/gang_scheduler.hpp.)
  [[nodiscard]] GangParams make_gang_params() const;

  [[nodiscard]] NetParams make_net_params() const { return NetParams{}; }
};

}  // namespace apsim
