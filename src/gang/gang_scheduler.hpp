#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/adaptive_pager.hpp"
#include "gang/job.hpp"
#include "gang/matrix.hpp"
#include "gang/sched_policy.hpp"

/// \file gang_scheduler.hpp
/// The user-level gang scheduler of the paper's Figure 5: a controller that,
/// at every quantum boundary, sends SIGSTOP to the current slot's processes
/// and SIGCONT to the next slot's on every node, invoking the adaptive
/// paging API (adaptive_page_out / adaptive_page_in / start_bgwrite /
/// stop_bgwrite) around the signals. *What* runs in each slot is decided by
/// a pluggable SchedulerPolicy (sched_policy.hpp, resolved by name through
/// policy_registry.hpp); the default "matrix" policy reproduces the paper's
/// Ousterhout rotation bit-identically. Also provides the batch baseline
/// used by the evaluation (jobs run back to back, no switching).

namespace apsim {

class MpiComm;

/// Recovery delegate consulted before the scheduler gives up on a job. The
/// checkpoint manager (src/recover) implements it; the interface lives here
/// so the gang layer needs no dependency on the recovery subsystem.
class RecoveryHook {
 public:
  virtual ~RecoveryHook() = default;

  /// A job is about to be failed (\p reason: node crash, lost page, ...).
  /// Return true to take ownership — the scheduler then leaves the job
  /// unfailed and expects suspend_job(), stage_job() and
  /// resume_restarted_job() (or abandon_job() on give-up) to be driven by
  /// the hook. Return false to let the scheduler fail the job as usual.
  virtual bool on_job_casualty(Job& job, const char* reason) = 0;
};

struct GangParams {
  /// Default scheduling quantum (the paper uses 5 minutes).
  SimDuration quantum = 5 * kMinute;

  /// Background writing covers the last (1 - bg_start_frac) of the quantum;
  /// the paper found starting at 90% of the quantum works best.
  double bg_start_frac = 0.9;

  /// Latency of the control message that carries a signal to a node.
  SimDuration signal_latency = 200 * kMicrosecond;

  /// Per-switch watchdog: when > 0, a node that has not applied the current
  /// switch this long after its signal was sent gets the signal retransmitted
  /// (control signals can be dropped or delayed by the fault injector); after
  /// watchdog_max_retries retransmissions the node is declared failed and
  /// fenced. 0 disables the watchdog entirely — the fault-free default, so
  /// undisturbed runs schedule no extra events. The harness auto-enables it
  /// when the fault plan disturbs the control plane.
  SimDuration switch_watchdog = 0;
  int watchdog_max_retries = 8;

  /// When true, the scheduler passes each job's declared_ws_pages as the
  /// ws_size API argument; otherwise the kernel estimate is used.
  bool pass_ws_hint = false;

  /// Scheduler policy, resolved through policy_registry.hpp ("matrix",
  /// "admission", "backfill", "gang-edf", "dfrs", ...). "admission" is the
  /// memory-aware admission control the paper's related work discusses
  /// (Batat & Feitelson): a job joins the timesharing rotation only while
  /// the declared working sets of all admitted jobs fit within
  /// policy_opts.admission_margin of usable memory on every node it uses;
  /// otherwise it waits for a running job to finish. It trades
  /// responsiveness for zero switch paging — the trade-off adaptive paging
  /// avoids.
  std::string sched_policy = "matrix";

  /// Tunables shared by the registered policies.
  SchedPolicyOptions policy_opts;

  /// Per-node adaptive pager configuration (incl. the PolicySet).
  AdaptivePagerParams pager;
};

class GangScheduler : private SchedContext {
 public:
  /// Throws std::invalid_argument if params.sched_policy is unknown.
  GangScheduler(Cluster& cluster, GangParams params);
  ~GangScheduler() override;

  GangScheduler(const GangScheduler&) = delete;
  GangScheduler& operator=(const GangScheduler&) = delete;

  /// Create a job; attach its per-node processes via Job::add_process before
  /// calling start().
  Job& create_job(std::string name);

  /// Begin gang scheduling: slot 0 starts immediately.
  void start();

  // ---- open arrivals ----

  /// Create a job after start() (an open arrival). Attach its processes via
  /// Job::add_process, then hand it to start_job().
  Job& submit_job(std::string name);

  /// Admit a job created by submit_job() into the live schedule: register
  /// its processes with the pagers, stamp its arrival time, and — if the
  /// policy schedules it immediately — deliver the switch signals without
  /// waiting for the next quantum boundary.
  void start_job(Job& job);

  /// Every job reached a terminal state (finished or failed).
  [[nodiscard]] bool all_finished() const;

  /// Completion time of the last job (-1 while any job is unfinished).
  [[nodiscard]] SimTime makespan() const;

  [[nodiscard]] AdaptivePager& pager(int node) {
    return *pagers_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Job>>& jobs() const {
    return jobs_;
  }
  [[nodiscard]] const GangParams& params() const { return params_; }
  [[nodiscard]] int switches() const { return switch_count_; }

  /// Runtime actuator (adaptive control plane): background writing covers
  /// the last (1 - frac) of each quantum. Takes effect from the next slot
  /// activation — bg start times are computed per slot.
  void set_bg_start_frac(double frac) {
    params_.bg_start_frac = std::clamp(frac, 0.0, 1.0);
  }
  /// The engine-owned Ousterhout matrix (meaningful under matrix-backed
  /// policies; backfill/dfrs keep their own structures and leave it empty).
  [[nodiscard]] const ScheduleMatrix& matrix() const { return matrix_; }

  /// The active scheduler policy.
  [[nodiscard]] SchedulerPolicy& policy() { return *policy_; }
  [[nodiscard]] const SchedulerPolicy& policy() const { return *policy_; }

  /// True once the job has been admitted to the rotation (always true
  /// without admission control / queueing policies).
  [[nodiscard]] bool admitted(const Job& job) const {
    return policy_->is_admitted(job);
  }

  /// React to a crashed node: fail every job placed there, drop the node
  /// from the rotation, and keep scheduling the survivors. Wired to the
  /// cluster's node-failure observer; also callable directly from tests.
  void handle_node_failure(int node);

  [[nodiscard]] bool node_alive(int node) const {
    return !node_dead_[static_cast<std::size_t>(node)];
  }

  // ---- checkpoint/restart integration ----

  /// Install (or clear) the recovery delegate consulted before failing a
  /// job on a node crash or unrecoverable page loss.
  void set_recovery(RecoveryHook* hook) { recovery_ = hook; }

  /// Take an unfinished job out of the rotation without failing it: kill
  /// and release its processes on surviving nodes, leaving the job eligible
  /// for stage_job(). Counterpart of fail_job minus the verdict. Suspending
  /// a suspended job only supersedes its in-flight staging, if any.
  void suspend_job(Job& job);

  /// Put a restored job, re-homed by stage_job(), back into the rotation
  /// and reschedule.
  void resume_restarted_job(Job& job);

  /// Give up on a suspended job whose restart cannot proceed (no feasible
  /// placement, staging kept failing): fail it and reschedule.
  void abandon_job(Job& job);

  /// True when no live node still has the current switch generation's
  /// action in flight — the quiescent instant at which a coordinated
  /// checkpoint cannot tear a gang mid-switch.
  [[nodiscard]] bool switch_settled() const;

  [[nodiscard]] std::uint64_t switch_generation() const { return switch_gen_; }

  // ---- inter-node job migration ----

  /// Resolver from job id to the job's communicator, so stage_job() can
  /// rebind the ranks it re-homes, for migrations and restores alike.
  /// Without one, only single-rank jobs migrate.
  void set_comm_resolver(std::function<MpiComm*(int)> resolver) {
    comm_of_ = std::move(resolver);
  }

  /// Migrate \p job so placement i lands on targets[i]: snapshot each
  /// rank's live pages, take the job out of the rotation (suspend), stage
  /// the images onto the targets, shipped through the network model first
  /// (stage_job), and hand the job back to the policy (readmit). Demand
  /// paging then pays the major faults as the job re-touches its pages —
  /// the realistic cost of a migration. An aborted staging fails the job.
  /// Returns false (and does nothing) unless every process is SIGSTOPped
  /// with no collective
  /// partially entered, all nodes involved are alive, and the targets have
  /// swap room; policies call this through SchedContext::request_migration.
  bool migrate_job(Job& job, const std::vector<int>& targets);

  /// True while \p job is out of the rotation between suspend_job() and the
  /// end of its re-home (a migration or a checkpoint restore).
  [[nodiscard]] bool suspended(const Job& job) const {
    return suspended_.contains(job.id());
  }

  // ---- image staging: the path migration and restore share ----

  /// One rank of a page image to stage.
  struct StagedRank {
    int target = -1;  ///< node the rank moves to
    int from = -1;    ///< ship the image from this node first; -1 = local
    std::int64_t num_pages = 0;                 ///< size of the new space
    const Vmm::ImageSnapshot* image = nullptr;  ///< live page runs to bind
  };
  /// How a staging ended. Unless kStaged, the staged spaces are released.
  enum class StagingEnd : std::uint8_t {
    kStaged,      ///< every transfer landed; the processes are re-homed
    kFailed,      ///< a target lacked swap room, died, or failed a write
    kSuperseded,  ///< the job failed, or a casualty suspended it again
  };
  using StagingDone = std::function<void(StagingEnd, int node)>;

  /// Stage a suspended job's page image onto new nodes, then re-home its
  /// processes there. Per rank: a fresh address space on the target, its
  /// image bound to new swap slots (runs of at most \p max_run). The
  /// transfers go out in rank and run order under one outstanding count;
  /// a shipped rank first crosses the network as one message (live pages
  /// plus a page of metadata), then each run is a foreground swap write.
  /// Once all landed, each process moves (Cpu::detach, Job::move_process,
  /// Cpu::adopt, pager registration, communicator rebind; program state
  /// untouched) and done(kStaged, -1) runs: the caller readmits the job.
  /// Else done gets kFailed with the node at fault, or kSuperseded. A job
  /// has at most one staging in flight. Returns false when a target's swap
  /// could not hold its image: done(kFailed) ran and nothing was sent.
  bool stage_job(Job& job, const std::vector<StagedRank>& ranks,
                 std::int64_t max_run, StagingDone done);

  /// Attach the run's tracer (nullptr = untraced). Each delivered switch
  /// action emits, on the owning node's scheduler track, an async "switch"
  /// span (ending when the adaptive page-in replay drains) containing the
  /// Figure 5 phases stop_bgwrite/sigstop/sigcont as sync spans; watchdog
  /// retransmissions become instant events. page_out/page_in come from the
  /// pagers — wire them separately.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Failure-path statistics (all zero on undisturbed runs).
  struct Stats {
    std::uint64_t signal_retransmits = 0;  ///< watchdog-resent switch signals
    int jobs_failed = 0;
    int nodes_failed = 0;
    int jobs_recovered = 0;  ///< restarts that made it back into the rotation
    std::uint64_t lost_pages_fatal = 0;      ///< page losses that failed a job
    std::uint64_t lost_pages_recovered = 0;  ///< page losses a restart absorbed
    int jobs_migrated = 0;             ///< completed inter-node migrations
    int migrations_failed = 0;         ///< migrations aborted mid-flight
    std::uint64_t migrated_pages = 0;  ///< live pages shipped by migrations
    std::uint64_t migration_bytes = 0; ///< network bytes spent on migrations
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // ---- SchedContext (the policy's view of the engine) ----
  [[nodiscard]] ScheduleMatrix& shared_matrix() override { return matrix_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Job>>& all_jobs()
      const override {
    return jobs_;
  }
  [[nodiscard]] int num_nodes() const override { return cluster_.size(); }
  [[nodiscard]] SimTime sim_now() const override;
  [[nodiscard]] std::int64_t usable_frames(int node) const override;
  [[nodiscard]] const SchedPolicyOptions& sched_options() const override {
    return params_.policy_opts;
  }
  bool request_migration(Job& job, const std::vector<int>& targets) override {
    return migrate_job(job, targets);
  }

  /// One in-flight stage_job().
  struct Staging {
    std::vector<int> to;                      ///< per rank target
    std::vector<Pid> pid;                     ///< per rank staged space
    std::vector<std::vector<SlotRun>> slots;  ///< per rank swap runs
    int outstanding = 1;                      ///< transfers + submit sentinel
    int failed_node = -1;                     ///< first failed write's target
    StagingDone done;
  };

  void activate_slot(int to_slot);
  void do_switch();
  /// Deliver \p action to \p node after the (possibly disturbed) signal
  /// latency; a dropped signal is simply never delivered.
  void send_signal(int node, const std::function<void()>& action);
  void arm_watchdog(std::uint64_t gen);
  void check_watchdog(std::uint64_t gen);
  /// Abort an unfinished job: kill and release its processes on surviving
  /// nodes and take it out of the rotation.
  void fail_job(Job& job);
  /// A page of (node, pid) became unrecoverable: abort the owning job.
  void on_page_unrecoverable(int node, Pid pid);
  /// Re-activate the current slot after the schedule changed.
  void reschedule();
  /// Register a job's processes with the pagers and wire on_finish.
  void wire_job(Job& job);
  void schedule_switch_timer(int slot);
  void schedule_bg_start(int slot);
  void on_job_finished(Job& job);
  /// Count down one staging transfer; the last one ends the staging.
  void staging_step_done(Job& job, const std::shared_ptr<Staging>& st);
  /// Release the staged spaces that are still alive.
  void release_staged(const Staging& st);
  [[nodiscard]] SimDuration slot_quantum(int slot) const;

  Cluster& cluster_;
  GangParams params_;
  std::unique_ptr<SchedulerPolicy> policy_;
  std::vector<std::unique_ptr<AdaptivePager>> pagers_;
  std::vector<std::unique_ptr<Job>> jobs_;
  /// Jobs currently holding each node (delivery-time truth; more than one
  /// under co-scheduling policies).
  std::vector<std::vector<Job*>> running_jobs_;
  ScheduleMatrix matrix_;
  /// Suspended jobs by id, each with its in-flight staging (null while
  /// none is in flight).
  std::map<int, std::shared_ptr<Staging>> suspended_;
  std::function<MpiComm*(int)> comm_of_;
  int current_slot_ = -1;
  EventHandle switch_event_;
  EventHandle bg_event_;
  bool started_ = false;
  int switch_count_ = 0;
  SimTime last_finish_ = -1;
  /// all_finished()'s cursor: every job before it is done.
  mutable std::size_t first_open_ = 0;

  // Failure handling. Each activate_slot() starts a new switch generation;
  // per node we remember the generation last applied and the pending switch
  // action so the watchdog can retransmit idempotently.
  std::uint64_t switch_gen_ = 0;
  std::vector<std::uint64_t> switch_applied_;
  std::vector<std::function<void()>> switch_action_;
  std::vector<int> switch_retries_;
  std::vector<bool> node_dead_;
  EventHandle watchdog_event_;
  Tracer* tracer_ = nullptr;
  RecoveryHook* recovery_ = nullptr;
  Stats stats_;
};

/// Batch baseline: run the same jobs strictly one after another. The paper
/// uses this as the zero-switching reference when computing the job-switch
/// overhead.
class BatchRunner {
 public:
  explicit BatchRunner(Cluster& cluster) : cluster_(cluster) {}

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  Job& create_job(std::string name);

  void start();

  [[nodiscard]] bool all_finished() const;
  [[nodiscard]] SimTime makespan() const;
  [[nodiscard]] const std::vector<std::unique_ptr<Job>>& jobs() const {
    return jobs_;
  }

 private:
  void start_job(std::size_t index);
  void on_job_finished(std::size_t index);

  Cluster& cluster_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::size_t running_ = 0;
  bool started_ = false;
  SimTime last_finish_ = -1;
  /// all_finished()'s cursor: every job before it is finished.
  mutable std::size_t first_open_ = 0;
};

}  // namespace apsim
