#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "gang/job.hpp"
#include "gang/matrix.hpp"
#include "sim/time.hpp"

/// \file sched_policy.hpp
/// The scheduler-policy interface extracted from GangScheduler. The engine
/// (signal delivery, watchdog, paging calls, failure handling) stays in
/// gang_scheduler.cpp; a SchedulerPolicy decides *what runs when*: which
/// jobs join the rotation, which jobs share a (slot, node) cell, and which
/// slot follows the current one. Policies are looked up by name through
/// policy_registry.hpp, mirroring the reclaim-policy registry in src/mem.

namespace apsim {

/// Tunables shared by the registered policies. GangParams carries one of
/// these.
struct SchedPolicyOptions {
  /// "admission": fraction of usable memory the declared working sets of
  /// admitted jobs may fill per node.
  double admission_margin = 0.9;

  /// "dfrs": co-resident declared working sets may fill this fraction of a
  /// node's usable memory...
  double dfrs_mem_frac = 0.85;
  /// ...and at most this many gangs share one node's quantum.
  int dfrs_max_share = 2;

  /// "backfill": reservation length for jobs without an estimated_runtime.
  SimDuration backfill_estimate_default = 30 * kMinute;

  /// "dfrs": when true, a departure may trigger one inter-node migration of
  /// a memory-light gang into a fuller co-schedule group (costed through
  /// the network model). Off by default so fixed-set runs stay untouched.
  bool auto_migrate = false;
  /// Only jobs whose live image is at most this many pages migrate.
  std::int64_t migrate_max_pages = 1 << 20;
};

/// What the engine exposes to a policy. GangScheduler implements this.
class SchedContext {
 public:
  virtual ~SchedContext() = default;

  /// The engine-owned Ousterhout matrix. The matrix-backed policies
  /// (matrix, admission, gang-edf) schedule through it; others ignore it.
  [[nodiscard]] virtual ScheduleMatrix& shared_matrix() = 0;

  /// Every job ever submitted, indexed by job id (ids are dense).
  [[nodiscard]] virtual const std::vector<std::unique_ptr<Job>>& all_jobs()
      const = 0;

  [[nodiscard]] virtual int num_nodes() const = 0;
  [[nodiscard]] virtual bool node_alive(int node) const = 0;
  [[nodiscard]] virtual SimTime sim_now() const = 0;

  /// Usable memory frames on \p node (admission / co-residency budgets).
  [[nodiscard]] virtual std::int64_t usable_frames(int node) const = 0;

  [[nodiscard]] virtual const SchedPolicyOptions& sched_options() const = 0;

  /// Ask the engine to migrate \p job so that placement i lands on
  /// targets[i]. Returns false if preconditions fail (job running, node
  /// dead, no comm resolver for a parallel job, target swap full, ...).
  /// On success the job leaves the rotation immediately; once its memory
  /// image has been shipped through the network and staged into the target
  /// swap, the engine calls SchedulerPolicy::readmit with the new placement.
  virtual bool request_migration(Job& job, const std::vector<int>& targets) = 0;
};

/// Scheduling decisions behind the gang engine. All hooks are synchronous
/// and deterministic; a policy must never touch simulator time directly.
///
/// Contract (enforced by tests/test_policy_conformance.cpp):
///  - jobs_at() never names a job with no live placement claim on the node,
///    and never more than max_coscheduled() jobs per (slot, node) cell;
///  - every job passed to admit() is eventually scheduled (appears in some
///    cell while unfinished) unless the engine abandons it first;
///  - while any admitted unfinished job waits, num_slots() > 0 (work
///    conservation: the cluster never goes fully idle with work queued).
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// Registry key, e.g. "matrix".
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once by the engine before any other hook.
  void bind(SchedContext& ctx) {
    ctx_ = &ctx;
    on_bind();
  }

  /// Max jobs this policy will co-schedule on one node in one slot (the
  /// oversubscription bound the conformance suite checks).
  [[nodiscard]] virtual int max_coscheduled() const { return 1; }

  /// A job entered the system (at start() or as an open arrival): place it
  /// in the schedule now or queue it internally.
  virtual void admit(Job& job) = 0;

  /// A job left for good (finished or failed): drop it everywhere; freed
  /// resources may admit queued jobs.
  virtual void remove(Job& job) = 0;

  /// A job was suspended (checkpoint restart, migration): drop it from the
  /// schedule but start nothing in its place — it is expected back.
  virtual void detach(Job& job) { remove(job); }

  /// A suspended job returned (restart or migration re-placed its
  /// processes): put it straight back into the schedule.
  virtual void readmit(Job& job) { admit(job); }

  /// True once the job has (ever) been admitted to the schedule; stays true
  /// after the job completes (legacy GangScheduler::admitted semantics).
  [[nodiscard]] virtual bool is_admitted(const Job& job) const = 0;

  /// Rows in the rotation. 0 means nothing is scheduled.
  [[nodiscard]] virtual int num_slots() const = 0;

  /// Job ids occupying (slot, node), in deterministic order; the first one
  /// is the node's primary (its pid anchors adaptive_page_out/page_in).
  virtual void jobs_at(int slot, int node, std::vector<int>& out) const = 0;

  /// Distinct job ids in a slot (quantum overrides, bench accounting).
  [[nodiscard]] virtual std::vector<int> jobs_in_slot(int slot) const = 0;

  /// The slot to activate after \p current at a quantum boundary.
  [[nodiscard]] virtual int next_slot(int current) const = 0;

  /// The engine activated \p slot (record identity for resolve_slot).
  virtual void note_active(int /*slot*/) {}

  /// Re-derive the active slot's index after the schedule changed
  /// (arrival, departure, compaction). \p current is the stale index; the
  /// default keeps legacy modulo behaviour.
  [[nodiscard]] virtual int resolve_slot(int current) const {
    const int n = num_slots();
    return n > 0 ? current % n : -1;
  }

  /// A node was fenced or crashed; the engine already failed/suspended the
  /// jobs placed there.
  virtual void on_node_failed(int /*node*/) {}

  /// A job departed cleanly; the policy may rebalance (e.g. request one
  /// migration). Called after remove(), before the engine reschedules.
  virtual void on_departure() {}

 protected:
  virtual void on_bind() {}

  SchedContext* ctx_ = nullptr;
};

}  // namespace apsim
