#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "core/page_record.hpp"
#include "core/policy.hpp"
#include "core/ws_estimator.hpp"
#include "mem/reclaim.hpp"
#include "metrics/tracer.hpp"

/// \file adaptive_pager.hpp
/// The paper's contribution: per-node adaptive paging driven by gang-switch
/// knowledge. Exposes the paper's kernel API —
///   adaptive_page_out(out_pid, in_pid, ws_size)
///   adaptive_page_in(in_pid)
///   start_bgwrite(pid) / stop_bgwrite()
/// — implemented against the VMM hooks (pluggable reclaim policy, explicit
/// reclaim requests, prefetch, background writeback, eviction observer).

namespace apsim {

/// Selective page-out (paper §3.1, Figure 2): while the outgoing process
/// still has resident pages, evict those — oldest first; only then fall back
/// to the base replacement policy (the clock by default, or any registry
/// policy via set_fallback). Prevents the false eviction of the incoming
/// process's residual working set.
class SelectiveReclaimPolicy final : public ReclaimPolicy {
 public:
  /// Falls back to a fresh clock-lru.
  SelectiveReclaimPolicy();
  explicit SelectiveReclaimPolicy(std::unique_ptr<ReclaimPolicy> fallback);

  /// Designate the current outgoing process (kNoPid to disable).
  void set_victim_process(Pid pid);

  [[nodiscard]] Pid victim_process() const { return victim_; }

  /// Replace the base policy consulted once the outgoing process is fully
  /// swapped out. This is the policy-switch actuation point when selective
  /// page-out is enabled (the selective wrapper itself stays installed).
  void set_fallback(std::unique_ptr<ReclaimPolicy> fallback);

  [[nodiscard]] std::string_view fallback_name() const {
    return fallback_->name();
  }

  [[nodiscard]] std::vector<Victim> select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) override;

  [[nodiscard]] std::string_view name() const override { return "selective"; }

  /// The fallback keeps its bookkeeping current while this wrapper serves
  /// victims from the outgoing process.
  void on_map(Pid pid, VPage vpage) override { fallback_->on_map(pid, vpage); }

 private:
  /// Rebuild the oldest-first page list; returns the pages examined.
  std::int64_t rebuild_cache(Vmm& vmm);

  Pid victim_ = kNoPid;
  std::vector<VPage> cache_;          ///< victim's pages, oldest first
  std::size_t cursor_ = 0;
  std::int64_t cache_resident_ = -1;  ///< resident count at build time
  std::unique_ptr<ReclaimPolicy> fallback_;
};

struct AdaptivePagerParams {
  PolicySet policy;

  /// Background writer: batch size per tick and tick interval. The default
  /// rate (64 pages / 50 ms = 5 MB/s) stays well under the disk's streaming
  /// rate; background requests additionally yield to all foreground I/O.
  std::int64_t bg_batch = 64;
  SimDuration bg_interval = 50 * kMillisecond;

  /// Safety factor applied to the working-set estimate before aggressive
  /// page-out.
  double ws_margin = 1.0;

  /// Base replacement policy (registry name). "clock-lru" — the kernel
  /// default — installs nothing and keeps the VMM's constructor policy, so
  /// runs stay bit-identical to the pre-registry tree. Any other name is
  /// installed either directly or as the selective wrapper's fallback.
  std::string reclaim_policy = "clock-lru";
};

class AdaptivePager {
 public:
  AdaptivePager(Node& node, AdaptivePagerParams params);
  ~AdaptivePager();

  AdaptivePager(const AdaptivePager&) = delete;
  AdaptivePager& operator=(const AdaptivePager&) = delete;

  [[nodiscard]] const PolicySet& policy() const { return params_.policy; }
  [[nodiscard]] Node& node() { return node_; }

  /// Declare a process as gang-managed (its evictions are recorded for
  /// adaptive page-in while it is descheduled).
  void register_process(Pid pid);

  // ---- the paper's API ----

  /// Invoked at a job switch, before the incoming process resumes. Applies
  /// selective page-out targeting \p out and, when enabled, aggressively
  /// frees room for \p in's working set (\p ws_pages_hint overrides the
  /// kernel estimate when >= 0, mirroring the API's ws_size argument).
  void adaptive_page_out(Pid out, Pid in, std::int64_t ws_pages_hint = -1);

  /// Replay the pages recorded while \p in was descheduled as artificial
  /// faults in large block reads. \p done (optional) fires when every
  /// started read has landed.
  void adaptive_page_in(Pid in, std::function<void()> done = {});

  /// Begin background-writing \p pid's dirty pages at low priority.
  void start_bgwrite(Pid pid);

  /// Stop background writing (idempotent).
  void stop_bgwrite();

  // ---- scheduler bookkeeping ----

  /// Call when \p in's quantum begins: starts its working-set epoch.
  void on_quantum_start(Pid in);

  /// Call when \p out's quantum ends: feeds the working-set estimator.
  void on_quantum_end(Pid out);

  /// Current working-set estimate for \p pid, in pages (0 if never run).
  [[nodiscard]] std::int64_t ws_estimate(Pid pid) const;

  /// True once the pager gave up on its optimizations after persistent I/O
  /// errors (failed disk, stalled reclaim, or an aborted prefetch replay):
  /// adaptive page-in and background writing become no-ops and the node falls
  /// back to plain demand paging. One-way; fault-free runs never set this.
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Attach the run's tracer (nullptr = untraced). Emits the switch-phase
  /// async spans "page_out" (until the aggressive free-frame request is
  /// satisfied) and "page_in" (until the replay drains), plus replay-issue
  /// and bg-write instants, on \p track.
  void set_tracer(Tracer* tracer, int track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  // ---- runtime actuators (adaptive control plane) ----

  /// Background-writer batch per tick, clamped to >= 1.
  void set_bg_batch(std::int64_t pages) {
    params_.bg_batch = std::max<std::int64_t>(1, pages);
  }
  [[nodiscard]] std::int64_t bg_batch() const { return params_.bg_batch; }

  /// Swap the base replacement policy at runtime (registry name). With
  /// selective page-out enabled the new policy becomes the selective
  /// wrapper's fallback — the wrapper itself stays installed; otherwise it
  /// replaces the VMM's policy directly. Throws std::invalid_argument on
  /// unknown names. No-op when \p name is already active.
  void set_base_reclaim_policy(std::string_view name);

  /// Registry name of the active base policy.
  [[nodiscard]] std::string_view base_reclaim_policy() const {
    return base_policy_name_;
  }

  /// Recorder contents for \p pid (for tests and diagnostics).
  [[nodiscard]] const PageRecorder& recorder(Pid pid) const;

  struct Stats {
    std::uint64_t pages_recorded = 0;
    std::uint64_t pages_replayed = 0;
    std::uint64_t bg_pages_written = 0;
    std::uint64_t aggressive_requests = 0;
    std::uint64_t switches = 0;
    std::uint64_t degradations = 0;  ///< times the pager entered degraded mode
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_evict(Pid pid, VPage vpage);
  void schedule_bg_tick();
  void enter_degraded(const char* reason);
  /// Degrade if the node shows persistent I/O trouble; returns degraded().
  bool check_degraded();

  Node& node_;
  AdaptivePagerParams params_;
  SelectiveReclaimPolicy* selective_ = nullptr;  ///< owned by the VMM
  std::string base_policy_name_;

  std::set<Pid> managed_;
  std::map<Pid, PageRecorder> recorders_;
  std::map<Pid, WsEstimator> estimators_;
  Pid current_in_ = kNoPid;

  Pid bg_pid_ = kNoPid;
  EventHandle bg_event_;
  bool degraded_ = false;
  Tracer* tracer_ = nullptr;
  int trace_track_ = 0;

  Stats stats_;
};

}  // namespace apsim
