#include "core/adaptive_pager.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "mem/reclaim_registry.hpp"

namespace apsim {

// ---------------------------------------------------------------------------
// SelectiveReclaimPolicy

SelectiveReclaimPolicy::SelectiveReclaimPolicy()
    : SelectiveReclaimPolicy(make_reclaim_policy("clock-lru")) {}

SelectiveReclaimPolicy::SelectiveReclaimPolicy(
    std::unique_ptr<ReclaimPolicy> fallback)
    : fallback_(std::move(fallback)) {
  assert(fallback_ != nullptr);
}

void SelectiveReclaimPolicy::set_fallback(
    std::unique_ptr<ReclaimPolicy> fallback) {
  assert(fallback != nullptr);
  fallback_ = std::move(fallback);
}

void SelectiveReclaimPolicy::set_victim_process(Pid pid) {
  victim_ = pid;
  cache_.clear();
  cursor_ = 0;
  cache_resident_ = -1;
}

std::int64_t SelectiveReclaimPolicy::rebuild_cache(Vmm& vmm) {
  cache_.clear();
  cursor_ = 0;
  auto& as = vmm.space(victim_);
  cache_resident_ = as.resident_pages();
  auto& pt = as.page_table();
  std::vector<std::pair<SimTime, VPage>> pages;
  pages.reserve(static_cast<std::size_t>(as.resident_pages()));
  const std::int64_t npages = pt.num_pages();
  for (VPage v = pt.next_present(0); v < npages; v = pt.next_present(v + 1)) {
    const auto pte = pt.at(v);
    if (!pte.io_busy()) pages.emplace_back(pte.last_ref(), v);
  }
  // Oldest first (paper: "in the order of decreasing age"); ties resolve by
  // vpage so sweeps stay address-contiguous for the write batcher.
  std::sort(pages.begin(), pages.end());
  cache_.reserve(pages.size());
  for (const auto& [ref, v] : pages) cache_.push_back(v);
  return cache_resident_;  // every present page was examined
}

std::vector<Victim> SelectiveReclaimPolicy::select_victims(
    Vmm& vmm, std::int64_t max_pages) {
  std::vector<Victim> out;
  if (max_pages <= 0) return out;

  std::int64_t scanned = 0;
  if (victim_ != kNoPid) {
    auto& as = vmm.space(victim_);
    if (as.alive() && as.resident_pages() > 0) {
      if (cache_resident_ < 0) scanned += rebuild_cache(vmm);
      for (int attempt = 0; attempt < 2 && out.empty(); ++attempt) {
        while (cursor_ < cache_.size() && std::ssize(out) < max_pages) {
          const VPage v = cache_[cursor_++];
          ++scanned;
          const auto pte = as.page_table().at(v);
          if (pte.present() && !pte.io_busy()) out.push_back(Victim{victim_, v});
        }
        if (!out.empty()) break;
        // Cache exhausted but pages remain resident (mapped after the cache
        // was built, e.g. in-flight page-ins landing): rebuild once.
        if (cursor_ >= cache_.size() && as.resident_pages() > 0 &&
            cache_resident_ != as.resident_pages()) {
          scanned += rebuild_cache(vmm);
        } else {
          break;
        }
      }
    }
  }
  vmm.note_pages_scanned(static_cast<std::uint64_t>(scanned));
  if (!out.empty()) return out;
  // The outgoing process is fully swapped out (or none designated): the
  // base replacement takes over, exactly as in the paper's Figure 2.
  return fallback_->select_victims(vmm, max_pages);
}

// ---------------------------------------------------------------------------
// AdaptivePager

AdaptivePager::AdaptivePager(Node& node, AdaptivePagerParams params)
    : node_(node),
      params_(std::move(params)),
      base_policy_name_(params_.reclaim_policy) {
  if (params_.policy.selective_out) {
    auto policy = std::make_unique<SelectiveReclaimPolicy>(
        make_reclaim_policy(base_policy_name_));
    selective_ = policy.get();
    node_.vmm().set_reclaim_policy(std::move(policy));
  } else if (base_policy_name_ != "clock-lru") {
    // A clock-lru base needs nothing: it is the VMM's constructor default.
    node_.vmm().set_reclaim_policy(make_reclaim_policy(base_policy_name_));
  }
  if (params_.policy.adaptive_in) {
    node_.vmm().set_evict_observer(
        [this](Pid pid, VPage vpage) { on_evict(pid, vpage); });
  }
}

AdaptivePager::~AdaptivePager() {
  stop_bgwrite();
  if (params_.policy.adaptive_in) {
    node_.vmm().set_evict_observer(nullptr);
  }
}

void AdaptivePager::register_process(Pid pid) {
  managed_.insert(pid);
  recorders_.try_emplace(pid);
  estimators_.try_emplace(pid);
}

void AdaptivePager::on_evict(Pid pid, VPage vpage) {
  // Record flushes of any managed process that is not the one currently
  // scheduled; its recorder is replayed (and cleared) at its next switch-in.
  if (pid == current_in_) return;
  auto it = recorders_.find(pid);
  if (it == recorders_.end()) return;
  it->second.record(vpage);
  ++stats_.pages_recorded;
}

void AdaptivePager::enter_degraded(const char* reason) {
  if (degraded_) return;
  degraded_ = true;
  ++stats_.degradations;
  node_.vmm().log().warn(
      "adaptive pager degraded to plain demand paging: %s", reason);
  stop_bgwrite();
}

bool AdaptivePager::check_degraded() {
  if (!degraded_) {
    if (node_.disk().failed()) {
      enter_degraded("swap disk failed");
    } else if (node_.vmm().reclaim_stalled()) {
      enter_degraded("reclaim stalled (swap exhausted or unwritable)");
    }
  }
  return degraded_;
}

void AdaptivePager::adaptive_page_out(Pid out, Pid in,
                                      std::int64_t ws_pages_hint) {
  ++stats_.switches;
  // Async: the phase may outlive this call (it ends when the aggressive
  // free-frame request is satisfied). Without an aggressive wait the span
  // closes on scope exit, i.e. zero width at the switch instant.
  TraceSpan page_out_span;
  if (tracer_ != nullptr) {
    page_out_span = tracer_->async_span(
        trace_track_, "switch", "page_out",
        {{"out", static_cast<double>(out)}, {"in", static_cast<double>(in)}});
  }
  if (selective_ != nullptr) selective_->set_victim_process(out);

  if (params_.policy.aggressive_out && !check_degraded()) {
    std::int64_t ws = ws_pages_hint >= 0 ? ws_pages_hint : ws_estimate(in);
    ws = static_cast<std::int64_t>(static_cast<double>(ws) * params_.ws_margin);
    auto& vmm = node_.vmm();
    // The incoming process's residual pages already serve part of its
    // working set; room is only needed for the missing remainder. (Draining
    // the outgoing process beyond that would just enlarge both directions
    // of the next switch.)
    ws -= vmm.space(in).resident_pages();
    if (ws > 0) {
      const std::int64_t wanted = ws + vmm.params().freepages_high;
      // Never demand more than evicting the outgoing process can provide,
      // and stop once it is fully swapped out (the incoming process may be
      // consuming the freed frames concurrently, so the free-frame target
      // is advisory): otherwise the fallback policy would start eating the
      // incoming process's own pages to meet the target.
      const std::int64_t achievable =
          vmm.free_frames() + vmm.space(out).resident_pages();
      const std::int64_t target =
          std::min({wanted, achievable, vmm.frames().usable_frames()});
      if (target > vmm.free_frames()) {
        ++stats_.aggressive_requests;
        std::function<void()> on_satisfied = [] {};
        if (page_out_span.active()) {
          // std::function needs copyable captures; park the move-only span
          // in a shared_ptr. Untraced runs keep the captureless lambda.
          auto sp = std::make_shared<TraceSpan>(std::move(page_out_span));
          on_satisfied = [sp] { sp->end(); };
        }
        Vmm* vmm_ptr = &vmm;  // NOLINT: outlives the waiter (owns the queue)
        vmm.request_free_frames(
            target, std::move(on_satisfied), /*best_effort=*/true,
            /*give_up=*/[vmm_ptr, out] {
              return vmm_ptr->space(out).resident_pages() == 0;
            });
      }
    }
  }
}

void AdaptivePager::adaptive_page_in(Pid in, std::function<void()> done) {
  if (tracer_ != nullptr) {
    // Wrap before any early-out so every switch shows a page_in phase; it
    // ends when the replay drains (or immediately when there is none).
    auto sp = std::make_shared<TraceSpan>(tracer_->async_span(
        trace_track_, "switch", "page_in", {{"in", static_cast<double>(in)}}));
    done = [sp, done = std::move(done)] {
      sp->end();
      if (done) done();
    };
  }
  if (!params_.policy.adaptive_in || check_degraded()) {
    if (done) node_.vmm().sim().after(0, std::move(done));
    return;
  }
  auto it = recorders_.find(in);
  if (it == recorders_.end() || it->second.empty()) {
    if (done) node_.vmm().sim().after(0, std::move(done));
    return;
  }
  auto runs = it->second.take();
  std::int64_t total = 0;
  for (const auto& run : runs) total += run.count;
  stats_.pages_replayed += static_cast<std::uint64_t>(total);
  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_, "pager", "replay_issue",
                     {{"pages", static_cast<double>(total)},
                      {"runs", static_cast<double>(runs.size())}});
  }
  // If the replay aborts on an I/O error the VMM counts a prefetch abort;
  // seeing one means the disk is unreliable, so give up on replays for good.
  const std::uint64_t aborts_before = node_.vmm().stats().prefetch_aborts;
  node_.vmm().prefetch(
      in, std::move(runs),
      [this, aborts_before, done = std::move(done)]() mutable {
        if (node_.vmm().stats().prefetch_aborts > aborts_before) {
          enter_degraded("prefetch replay aborted on I/O error");
        }
        if (done) done();
      });
}

void AdaptivePager::start_bgwrite(Pid pid) {
  if (!params_.policy.bg_write || check_degraded()) return;
  stop_bgwrite();
  bg_pid_ = pid;
  schedule_bg_tick();
}

void AdaptivePager::stop_bgwrite() {
  if (bg_pid_ == kNoPid) return;
  bg_pid_ = kNoPid;
  node_.vmm().sim().cancel(bg_event_);
}

void AdaptivePager::schedule_bg_tick() {
  bg_event_ = node_.vmm().sim().after(params_.bg_interval, [this] {
    if (bg_pid_ == kNoPid) return;
    // The target died (job failed / node-local kill) or the disk went bad:
    // stop rescheduling so the event queue can quiesce.
    if (!node_.vmm().space(bg_pid_).alive() || check_degraded()) {
      bg_pid_ = kNoPid;
      return;
    }
    node_.vmm().writeback_dirty(
        bg_pid_, params_.bg_batch, IoPriority::kBackground,
        [this](std::int64_t written) {
          stats_.bg_pages_written += static_cast<std::uint64_t>(written);
          if (tracer_ != nullptr && written > 0) {
            tracer_->instant(trace_track_, "pager", "bgwrite",
                             {{"pages", static_cast<double>(written)}});
          }
        });
    schedule_bg_tick();
  });
}

void AdaptivePager::on_quantum_start(Pid in) {
  current_in_ = in;
  node_.vmm().begin_ws_epoch(in);
}

void AdaptivePager::on_quantum_end(Pid out) {
  auto it = estimators_.find(out);
  if (it == estimators_.end()) return;
  it->second.observe(node_.vmm().space(out).ws_pages());
}

std::int64_t AdaptivePager::ws_estimate(Pid pid) const {
  auto it = estimators_.find(pid);
  return it == estimators_.end() ? 0 : it->second.estimate();
}

void AdaptivePager::set_base_reclaim_policy(std::string_view name) {
  if (name == base_policy_name_) return;
  auto base = make_reclaim_policy(name);  // throws on unknown names
  base_policy_name_ = std::string(name);
  if (selective_ != nullptr) {
    selective_->set_fallback(std::move(base));
  } else {
    node_.vmm().set_reclaim_policy(std::move(base));
  }
}

const PageRecorder& AdaptivePager::recorder(Pid pid) const {
  static const PageRecorder kEmpty;
  auto it = recorders_.find(pid);
  return it == recorders_.end() ? kEmpty : it->second;
}

}  // namespace apsim
