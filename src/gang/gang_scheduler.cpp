#include "gang/gang_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "gang/policy_registry.hpp"
#include "net/mpi.hpp"

namespace apsim {

GangScheduler::GangScheduler(Cluster& cluster, GangParams params)
    : cluster_(cluster), params_(std::move(params)), matrix_(cluster.size()) {
  policy_ = make_sched_policy(params_.sched_policy);
  policy_->bind(*this);
  pagers_.reserve(static_cast<std::size_t>(cluster.size()));
  for (int n = 0; n < cluster.size(); ++n) {
    pagers_.push_back(
        std::make_unique<AdaptivePager>(cluster.node(n), params_.pager));
  }
  running_jobs_.assign(static_cast<std::size_t>(cluster.size()), {});
  switch_applied_.assign(static_cast<std::size_t>(cluster.size()), 0);
  switch_action_.assign(static_cast<std::size_t>(cluster.size()), nullptr);
  switch_retries_.assign(static_cast<std::size_t>(cluster.size()), 0);
  node_dead_.assign(static_cast<std::size_t>(cluster.size()), false);
  for (int n = 0; n < cluster.size(); ++n) {
    cluster_.node(n).vmm().set_failure_handler(
        [this, n](Pid pid, VPage, Vmm::PageFailure) {
          on_page_unrecoverable(n, pid);
        });
  }
  cluster_.set_node_failure_observer(
      [this](int n) { handle_node_failure(n); });
}

GangScheduler::~GangScheduler() {
  cluster_.set_node_failure_observer(nullptr);
  for (int n = 0; n < cluster_.size(); ++n) {
    cluster_.node(n).vmm().set_failure_handler(nullptr);
  }
}

SimTime GangScheduler::sim_now() const { return cluster_.sim().now(); }

std::int64_t GangScheduler::usable_frames(int node) const {
  return cluster_.node(node).vmm().frames().usable_frames();
}

Job& GangScheduler::create_job(std::string name) {
  assert(!started_ && "cannot add jobs after start(); use submit_job()");
  jobs_.push_back(
      std::make_unique<Job>(static_cast<int>(jobs_.size()), std::move(name)));
  return *jobs_.back();
}

Job& GangScheduler::submit_job(std::string name) {
  jobs_.push_back(
      std::make_unique<Job>(static_cast<int>(jobs_.size()), std::move(name)));
  return *jobs_.back();
}

void GangScheduler::wire_job(Job& job) {
  for (const auto& placement : job.processes()) {
    pagers_[static_cast<std::size_t>(placement.node)]->register_process(
        placement.process->pid());
    Job* job_ptr = &job;
    placement.process->on_finish = [this, job_ptr](Process&) {
      if (job_ptr->finished()) on_job_finished(*job_ptr);
    };
  }
}

void GangScheduler::start() {
  assert(!started_);
  started_ = true;
  for (auto& job : jobs_) {
    assert(!job->processes().empty() && "job has no processes");
    wire_job(*job);
  }
  for (auto& job : jobs_) policy_->admit(*job);
  // A node may have crashed before start (a t=0 planned fault): its jobs are
  // lost before they ever run.
  for (int n = 0; n < cluster_.size(); ++n) {
    if (!node_dead_[static_cast<std::size_t>(n)]) continue;
    for (auto& job : jobs_) {
      if (!job->done() && job->process_on(n) != nullptr) fail_job(*job);
    }
  }
  if (policy_->num_slots() == 0) return;  // everything failed already
  current_slot_ = 0;
  activate_slot(0);
  schedule_switch_timer(0);
  schedule_bg_start(0);
}

void GangScheduler::start_job(Job& job) {
  assert(started_ && "start_job() is for arrivals after start()");
  assert(!job.processes().empty() && "job has no processes");
  wire_job(job);
  job.arrival = cluster_.sim().now();
  // A job placed on an already-dead node is lost on arrival.
  for (const auto& placement : job.processes()) {
    if (node_dead_[static_cast<std::size_t>(placement.node)]) {
      fail_job(job);
      return;
    }
  }
  const int slots_before = policy_->num_slots();
  policy_->admit(job);
  const int slots_now = policy_->num_slots();
  if (slots_now == 0) return;  // queued (admission/backfill gate)
  if (slots_before == 0 || current_slot_ < 0) {
    // The rotation was empty (or never started): this arrival revives it.
    current_slot_ = 0;
    activate_slot(0);
    schedule_switch_timer(0);
    schedule_bg_start(0);
    return;
  }
  current_slot_ = policy_->resolve_slot(current_slot_);
  // If the arrival landed in the active slot on any of its nodes, deliver
  // the switch signals now rather than after the remaining quantum.
  bool in_active = false;
  std::vector<int> cell;
  for (int node : job.nodes()) {
    if (node_dead_[static_cast<std::size_t>(node)]) continue;
    cell.clear();
    policy_->jobs_at(current_slot_, node, cell);
    if (std::find(cell.begin(), cell.end(), job.id()) != cell.end()) {
      in_active = true;
      break;
    }
  }
  if (in_active) activate_slot(current_slot_);
  if (slots_before == 1 && slots_now > 1) {
    // The rotation just grew past one slot: the quantum timers were idle.
    schedule_switch_timer(current_slot_);
    schedule_bg_start(current_slot_);
  }
}

SimDuration GangScheduler::slot_quantum(int slot) const {
  SimDuration q = params_.quantum;
  for (int job_id : policy_->jobs_in_slot(slot)) {
    const auto& job = *jobs_[static_cast<std::size_t>(job_id)];
    if (job.quantum_override) q = std::max(q, *job.quantum_override);
  }
  return q;
}

void GangScheduler::activate_slot(int to_slot) {
  assert(to_slot >= 0 && to_slot < policy_->num_slots());
  policy_->note_active(to_slot);
  const std::uint64_t gen = ++switch_gen_;
  bool any_pending = false;
  std::vector<int> cell;
  for (int node = 0; node < cluster_.size(); ++node) {
    const auto ni = static_cast<std::size_t>(node);
    switch_action_[ni] = nullptr;
    if (node_dead_[ni]) continue;
    cell.clear();
    policy_->jobs_at(to_slot, node, cell);
    std::vector<Job*> in_jobs;
    in_jobs.reserve(cell.size());
    for (int id : cell) in_jobs.push_back(jobs_[static_cast<std::size_t>(id)].get());
    // running_jobs_ is delivery-time truth: it only changes when a switch
    // action actually runs on the node. Skip the signal only when the node
    // both runs the right jobs and has no older action still in flight —
    // otherwise a dropped cont could leave a job stopped forever while the
    // bookkeeping claims it is running.
    if (in_jobs == running_jobs_[ni] && switch_applied_[ni] == gen - 1) {
      switch_applied_[ni] = gen;  // nothing to apply on this node
      continue;
    }

    AdaptivePager* pager = pagers_[ni].get();
    auto& cpu = cluster_.node(node).cpu();

    std::int64_t ws_hint = -1;
    Job* in_primary = in_jobs.empty() ? nullptr : in_jobs.front();
    if (params_.pass_ws_hint && in_primary != nullptr &&
        in_primary->declared_ws_pages) {
      ws_hint = *in_primary->declared_ws_pages;
    }

    // The per-node switch sequence, run when the control message arrives,
    // mirroring the paper's Figure 5 (scheduler signals + kernel API calls).
    // Applying is idempotent per generation — a watchdog retransmission that
    // races a late original delivery runs the body only once — and a stale
    // generation is skipped once a newer switch has been applied. The
    // outgoing jobs, their placements on this node and liveness (dead())
    // are all evaluated at delivery time, not send time: a process may
    // finish, be killed, or be re-placed here by a checkpoint restart while
    // this signal is in flight (a restarted job may also put several of its
    // ranks on one node, hence the placement loops). Under co-scheduling
    // policies a cell holds several jobs: members present in both the
    // outgoing and incoming sets keep running untouched.
    switch_action_[ni] = [this, node, ni, gen, pager, &cpu,
                          in_jobs = std::move(in_jobs), ws_hint] {
      if (switch_applied_[ni] >= gen || node_dead_[ni]) return;
      switch_applied_[ni] = gen;
      std::vector<Job*> out_jobs = running_jobs_[ni];
      if (out_jobs == in_jobs) return;  // already running the right jobs
      running_jobs_[ni] = in_jobs;
      auto contains = [](const std::vector<Job*>& v, Job* j) {
        return std::find(v.begin(), v.end(), j) != v.end();
      };
      auto live_on_node = [node](Job* job, std::vector<Process*>& out) {
        for (const auto& pl : job->processes()) {
          if (pl.node == node && !pl.process->dead()) out.push_back(pl.process);
        }
      };
      std::vector<Process*> outs, ins;
      for (Job* job : out_jobs) {
        if (!contains(in_jobs, job)) live_on_node(job, outs);
      }
      for (Job* job : in_jobs) {
        if (!contains(out_jobs, job)) live_on_node(job, ins);
      }
      const bool out_live = !outs.empty();
      const int st = trace_track(node, kTrackSched);
      // The enclosing switch span is async: it ends only when the adaptive
      // page-in replay drains, long after this callback returns. The signal
      // phases below are synchronous markers nested inside it.
      std::shared_ptr<TraceSpan> switch_span;
      if (tracer_ != nullptr) {
        Job* out_first = out_jobs.empty() ? nullptr : out_jobs.front();
        Job* in_first = in_jobs.empty() ? nullptr : in_jobs.front();
        switch_span = std::make_shared<TraceSpan>(tracer_->async_span(
            st, "switch", "switch",
            {{"gen", static_cast<double>(gen)},
             {"out", out_first ? static_cast<double>(out_first->id()) : -1.0},
             {"in", in_first ? static_cast<double>(in_first->id()) : -1.0}}));
      }
      {
        TraceSpan s;
        if (tracer_ != nullptr) s = tracer_->span(st, "switch", "stop_bgwrite");
        pager->stop_bgwrite();
      }
      if (out_live) {
        TraceSpan s;
        if (tracer_ != nullptr) s = tracer_->span(st, "switch", "sigstop");
        for (Process* out_proc : outs) {
          pager->on_quantum_end(out_proc->pid());
          cpu.stop_process(*out_proc);
        }
      }
      if (!ins.empty()) {
        Process* in_primary_proc = ins.front();
        if (out_live) {
          pager->adaptive_page_out(outs.front()->pid(), in_primary_proc->pid(),
                                   ws_hint);
        }
        for (Process* in_proc : ins) pager->on_quantum_start(in_proc->pid());
        if (switch_span) {
          pager->adaptive_page_in(in_primary_proc->pid(),
                                  [switch_span] { switch_span->end(); });
        } else {
          pager->adaptive_page_in(in_primary_proc->pid());
        }
        for (std::size_t i = 1; i < ins.size(); ++i) {
          pager->adaptive_page_in(ins[i]->pid());
        }
        TraceSpan s;
        if (tracer_ != nullptr) s = tracer_->span(st, "switch", "sigcont");
        for (Process* in_proc : ins) cpu.cont_process(*in_proc);
      }
    };
    switch_retries_[ni] = 0;
    any_pending = true;
    send_signal(node, switch_action_[ni]);
  }
  if (any_pending) arm_watchdog(gen);
}

void GangScheduler::send_signal(int node, const std::function<void()>& action) {
  SimDuration latency = params_.signal_latency;
  if (FaultInjector* injector = cluster_.fault_injector()) {
    const auto outcome = injector->on_control_signal(node);
    if (outcome.drop) return;  // lost in transit; the watchdog recovers
    latency += outcome.extra_delay;
  }
  cluster_.sim().after(latency, action);
}

void GangScheduler::arm_watchdog(std::uint64_t gen) {
  if (params_.switch_watchdog <= 0) return;
  cluster_.sim().cancel(watchdog_event_);
  watchdog_event_ =
      cluster_.sim().after(params_.signal_latency + params_.switch_watchdog,
                           [this, gen] { check_watchdog(gen); });
}

void GangScheduler::check_watchdog(std::uint64_t gen) {
  if (gen != switch_gen_) return;  // superseded by a newer switch
  bool pending = false;
  for (int node = 0; node < cluster_.size(); ++node) {
    const auto ni = static_cast<std::size_t>(node);
    if (node_dead_[ni] || !switch_action_[ni]) continue;
    if (switch_applied_[ni] >= gen) continue;
    if (switch_retries_[ni] >= params_.watchdog_max_retries) {
      // The node does not respond to control signals: fence it (STONITH)
      // so the rotation can make progress without it.
      cluster_.node(node).vmm().log().warn(
          "node %d unresponsive after %d switch retransmissions; fencing",
          node, switch_retries_[ni]);
      cluster_.fail_node(node);  // observer -> handle_node_failure
      if (gen != switch_gen_) return;  // failure handling rescheduled
      continue;
    }
    ++switch_retries_[ni];
    ++stats_.signal_retransmits;
    if (tracer_ != nullptr) {
      tracer_->instant(trace_track(node, kTrackSched), "switch", "retransmit",
                       {{"gen", static_cast<double>(gen)},
                        {"retry", static_cast<double>(switch_retries_[ni])}});
    }
    send_signal(node, switch_action_[ni]);
    pending = true;
  }
  if (pending && gen == switch_gen_) arm_watchdog(gen);
}

void GangScheduler::schedule_switch_timer(int slot) {
  cluster_.sim().cancel(switch_event_);
  if (policy_->num_slots() <= 1) return;  // nothing to switch to
  switch_event_ =
      cluster_.sim().after(slot_quantum(slot), [this] { do_switch(); });
}

void GangScheduler::schedule_bg_start(int slot) {
  cluster_.sim().cancel(bg_event_);
  if (!params_.pager.policy.bg_write) return;
  if (policy_->num_slots() <= 1) return;  // no upcoming switch to prepare for
  const auto delay = static_cast<SimDuration>(
      params_.bg_start_frac * static_cast<double>(slot_quantum(slot)));
  bg_event_ = cluster_.sim().after(delay, [this, slot] {
    if (current_slot_ != slot || policy_->num_slots() <= slot) return;
    std::vector<int> cell;
    for (int node = 0; node < cluster_.size(); ++node) {
      if (node_dead_[static_cast<std::size_t>(node)]) continue;
      cell.clear();
      policy_->jobs_at(slot, node, cell);
      bool started = false;
      for (int job_id : cell) {
        for (const auto& pl :
             jobs_[static_cast<std::size_t>(job_id)]->processes()) {
          if (pl.node != node || pl.process->dead()) continue;
          pagers_[static_cast<std::size_t>(node)]->start_bgwrite(
              pl.process->pid());
          started = true;
          break;  // one background writer per node is enough
        }
        if (started) break;
      }
    }
  });
}

void GangScheduler::do_switch() {
  if (policy_->num_slots() == 0) return;
  ++switch_count_;
  const int next = policy_->next_slot(current_slot_);
  current_slot_ = next;
  activate_slot(next);
  schedule_switch_timer(next);
  schedule_bg_start(next);
}

void GangScheduler::on_job_finished(Job& job) {
  last_finish_ = cluster_.sim().now();

  // Tear down the job: release its memory on every node, exactly like a
  // real exit under the paper's scheduler.
  for (const auto& placement : job.processes()) {
    cluster_.node(placement.node).vmm().release_process(
        placement.process->pid());
    std::erase(running_jobs_[static_cast<std::size_t>(placement.node)], &job);
  }
  policy_->remove(job);  // freed resources may let a queued job in
  policy_->on_departure();
  reschedule();
}

void GangScheduler::fail_job(Job& job) {
  if (job.done()) return;
  job.mark_failed(cluster_.sim().now());
  ++stats_.jobs_failed;
  suspended_.erase(job.id());  // an in-flight staging ends superseded
  for (const auto& placement : job.processes()) {
    const auto ni = static_cast<std::size_t>(placement.node);
    if (!node_dead_[ni]) {
      auto& node = cluster_.node(placement.node);
      node.cpu().kill_process(*placement.process);
      if (node.vmm().space(placement.process->pid()).alive()) {
        node.vmm().release_process(placement.process->pid());
      }
    }
    std::erase(running_jobs_[ni], &job);
  }
  policy_->remove(job);  // freed resources may admit a queued job
}

void GangScheduler::on_page_unrecoverable(int node, Pid pid) {
  for (auto& job : jobs_) {
    if (job->done()) continue;
    bool hit = false;
    for (const auto& pl : job->processes()) {
      if (pl.node == node && pl.process->pid() == pid) hit = true;
    }
    if (!hit) continue;
    if (recovery_ != nullptr && recovery_->on_job_casualty(*job, "lost page")) {
      ++stats_.lost_pages_recovered;
      reschedule();
      return;
    }
    ++stats_.lost_pages_fatal;
    cluster_.node(node).vmm().log().warn(
        "job %d lost a page on node %d (pid %d); aborting the job",
        job->id(), node, static_cast<int>(pid));
    fail_job(*job);
    reschedule();
    return;
  }
}

void GangScheduler::handle_node_failure(int node) {
  const auto ni = static_cast<std::size_t>(node);
  if (node_dead_[ni]) return;
  node_dead_[ni] = true;
  ++stats_.nodes_failed;
  running_jobs_[ni].clear();
  switch_action_[ni] = nullptr;
  if (!started_) return;  // start() fails the affected jobs itself
  for (auto& job : jobs_) {
    if (job->done() || job->process_on(node) == nullptr) continue;
    if (recovery_ != nullptr &&
        recovery_->on_job_casualty(*job, "node crash")) {
      continue;  // the checkpoint manager took the job over
    }
    fail_job(*job);
  }
  policy_->on_node_failed(node);
  reschedule();
}

void GangScheduler::suspend_job(Job& job) {
  assert(!job.done());
  auto [it, fresh] = suspended_.try_emplace(job.id());
  it->second.reset();  // a casualty supersedes the in-flight staging
  if (!fresh) return;  // already out of the rotation
  for (const auto& placement : job.processes()) {
    const auto ni = static_cast<std::size_t>(placement.node);
    if (!node_dead_[ni]) {
      auto& node = cluster_.node(placement.node);
      node.cpu().kill_process(*placement.process);
      if (node.vmm().space(placement.process->pid()).alive()) {
        node.vmm().release_process(placement.process->pid());
      }
    }
    std::erase(running_jobs_[ni], &job);
  }
  policy_->detach(job);
}

void GangScheduler::resume_restarted_job(Job& job) {
  assert(!job.done());
  ++stats_.jobs_recovered;
  policy_->readmit(job);
  reschedule();
}

void GangScheduler::abandon_job(Job& job) {
  if (job.done()) return;
  fail_job(job);
  reschedule();
}

bool GangScheduler::switch_settled() const {
  for (int node = 0; node < cluster_.size(); ++node) {
    const auto ni = static_cast<std::size_t>(node);
    if (node_dead_[ni] || !switch_action_[ni]) continue;
    if (switch_applied_[ni] < switch_gen_) return false;
  }
  return true;
}

void GangScheduler::reschedule() {
  if (!started_) return;
  cluster_.sim().cancel(switch_event_);
  cluster_.sim().cancel(bg_event_);
  cluster_.sim().cancel(watchdog_event_);
  if (policy_->num_slots() == 0) return;  // all done

  // Promote whatever should run now. The policy re-derives the active
  // slot's index (compaction may have shifted it; matrix-backed policies
  // follow the row's stable identity).
  current_slot_ = policy_->resolve_slot(current_slot_);
  activate_slot(current_slot_);
  schedule_switch_timer(current_slot_);
  schedule_bg_start(current_slot_);
}

// ---------------------------------------------------------------------------
// Inter-node job migration and image staging

namespace {

/// Network bytes of one shipped rank image: its live pages plus one page
/// of metadata.
std::int64_t shipped_bytes(const Vmm::ImageSnapshot& image) {
  return (image.live_pages + 1) * kPageBytes;
}

}  // namespace

bool GangScheduler::migrate_job(Job& job, const std::vector<int>& targets) {
  if (!started_ || job.done() || suspended_.contains(job.id())) return false;
  const auto& placements = job.processes();
  if (placements.empty() || targets.size() != placements.size()) return false;
  // A parallel job needs its communicator re-homed; without a resolver only
  // single-rank jobs are safe to move.
  if (placements.size() > 1 && !comm_of_) return false;
  for (int target : targets) {
    if (target < 0 || target >= cluster_.size()) return false;
    if (node_dead_[static_cast<std::size_t>(target)]) return false;
  }
  for (const auto& pl : placements) {
    if (node_dead_[static_cast<std::size_t>(pl.node)]) return false;
    // Only a fully SIGSTOPped gang moves: a running or fault/comm-blocked
    // rank may hold a partially entered collective or in-flight I/O whose
    // completion would target the torn-down incarnation.
    if (pl.process->dead() ||
        pl.process->state() != ProcState::kStopped) {
      return false;
    }
  }
  // Snapshot the live images and check the targets can hold them before
  // tearing anything down.
  std::vector<Vmm::ImageSnapshot> snaps(placements.size());
  std::vector<StagedRank> ranks(placements.size());
  std::vector<std::int64_t> swap_need(
      static_cast<std::size_t>(cluster_.size()), 0);
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const Pid pid = placements[i].process->pid();
    auto& vmm = cluster_.node(placements[i].node).vmm();
    snaps[i] = vmm.snapshot_image(pid);
    ranks[i] = {targets[i], placements[i].node, vmm.space(pid).num_pages(),
                &snaps[i]};
    swap_need[static_cast<std::size_t>(targets[i])] += snaps[i].live_pages;
  }
  for (int n = 0; n < cluster_.size(); ++n) {
    if (cluster_.node(n).swap().free_slots() <
        swap_need[static_cast<std::size_t>(n)]) {
      return false;
    }
  }
  // Point of no return: take the job out of the rotation (kills the stopped
  // processes and releases the source spaces) and ship the images.
  suspend_job(job);
  for (const auto& snap : snaps) {
    stats_.migrated_pages += static_cast<std::uint64_t>(snap.live_pages);
    stats_.migration_bytes += static_cast<std::uint64_t>(shipped_bytes(snap));
  }
  stage_job(job, ranks, 64, [this, &job](StagingEnd end, int) {
    if (end == StagingEnd::kStaged) {
      ++stats_.jobs_migrated;
      const int home = job.processes().front().node;
      cluster_.node(home).vmm().log().info(
          "job %d migrated onto node %d; resuming", job.id(), home);
      policy_->readmit(job);
      reschedule();
      return;
    }
    ++stats_.migrations_failed;
    if (end == StagingEnd::kSuperseded) return;  // failed or restarting
    fail_job(job);  // the image did not land; the job cannot resume
    reschedule();
  });
  return true;
}

bool GangScheduler::stage_job(Job& job, const std::vector<StagedRank>& ranks,
                              std::int64_t max_run, StagingDone done) {
  assert(suspended_.contains(job.id()) && !suspended_.at(job.id()));
  assert(ranks.size() == job.processes().size());
  auto st = std::make_shared<Staging>();
  for (const StagedRank& rank : ranks) st->to.push_back(rank.target);
  st->pid.assign(ranks.size(), kNoPid);
  st->slots.resize(ranks.size());
  st->done = std::move(done);
  // Synchronous phase: create a fresh space per rank on its target and bind
  // the image pages to freshly allocated swap slots. Nothing here schedules
  // an event, so staging every rank before the first transfer keeps the
  // event order of staging them one by one.
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const StagedRank& rank = ranks[i];
    auto& node = cluster_.node(rank.target);
    st->pid[i] = node.vmm().create_process(rank.num_pages);
    const std::int64_t live = rank.image->live_pages;
    if (live == 0) continue;
    if (node.swap().free_slots() < live) {
      release_staged(*st);
      st->done(StagingEnd::kFailed, rank.target);
      return false;
    }
    st->slots[i] = node.swap().alloc_pages(live, max_run);
    node.vmm().bind_swap_image(st->pid[i], rank.image->live, st->slots[i]);
  }
  suspended_[job.id()] = st;
  // Submit phase: each image lands in its target's swap partition as real
  // foreground I/O, after crossing the network when it is shipped; demand
  // paging then pays the major faults as the job re-touches its pages.
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const int target = st->to[i];
    auto write_runs = [this, &job, st, target, i] {
      for (const SlotRun& run : st->slots[i]) {
        ++st->outstanding;
        cluster_.node(target).swap().write(
            run, IoPriority::kForeground,
            [this, &job, st, target](IoResult result) {
              if (!result.ok && st->failed_node < 0) st->failed_node = target;
              staging_step_done(job, st);
            });
      }
    };
    if (ranks[i].from < 0) {
      write_runs();
      continue;
    }
    ++st->outstanding;
    cluster_.network().send(
        ranks[i].from, target, shipped_bytes(*ranks[i].image),
        [this, &job, st, target, write_runs] {
          // Delivered: write the staged runs to the target swap.
          if (!node_dead_[static_cast<std::size_t>(target)]) write_runs();
          staging_step_done(job, st);  // drop the delivery token
        });
  }
  staging_step_done(job, st);  // drop the submission sentinel
  return true;
}

void GangScheduler::staging_step_done(Job& job,
                                      const std::shared_ptr<Staging>& st) {
  if (--st->outstanding > 0) return;
  const auto it = suspended_.find(job.id());
  if (it == suspended_.end() || it->second != st) {
    // The job was failed, or a casualty suspended it again, while its
    // image was in flight: drop the staged spaces.
    release_staged(*st);
    st->done(StagingEnd::kSuperseded, -1);
    return;
  }
  int failed = st->failed_node;
  for (std::size_t i = 0; i < st->to.size() && failed < 0; ++i) {
    if (node_dead_[static_cast<std::size_t>(st->to[i])]) failed = st->to[i];
  }
  if (failed >= 0) {
    release_staged(*st);
    it->second.reset();  // still suspended, nothing in flight
    st->done(StagingEnd::kFailed, failed);
    return;
  }
  suspended_.erase(it);
  MpiComm* comm = comm_of_ ? comm_of_(job.id()) : nullptr;
  const auto& placements = job.processes();
  for (std::size_t i = 0; i < placements.size(); ++i) {
    Process& p = *placements[i].process;
    // Re-home the process: off the old CPU, onto its target, under the
    // staged address space, with a fresh run generation (adopt) so stale
    // continuations from its previous life are dropped. adopt() leaves the
    // program cursor untouched; a restore rewinds it afterwards.
    cluster_.node(placements[i].node).cpu().detach(p);
    job.move_process(i, st->to[i]);
    cluster_.node(st->to[i]).cpu().adopt(p, st->pid[i]);
    pagers_[static_cast<std::size_t>(st->to[i])]->register_process(st->pid[i]);
    if (comm != nullptr) comm->rebind_node(p.rank, st->to[i]);
  }
  st->done(StagingEnd::kStaged, -1);
}

void GangScheduler::release_staged(const Staging& st) {
  // A crashed node released its spaces itself.
  for (std::size_t i = 0; i < st.pid.size(); ++i) {
    if (st.pid[i] == kNoPid) continue;
    auto& vmm = cluster_.node(st.to[i]).vmm();
    if (vmm.space(st.pid[i]).alive()) vmm.release_process(st.pid[i]);
  }
}

bool GangScheduler::all_finished() const {
  // A done job stays done: failure is sticky, and a finished process is
  // dead, so kill_process and restores skip it. The jobs before the cursor
  // therefore need no second look; arrivals append behind it.
  while (first_open_ < jobs_.size() && jobs_[first_open_]->done()) {
    ++first_open_;
  }
  assert(std::all_of(jobs_.begin(), jobs_.begin() + first_open_,
                     [](const auto& job) { return job->done(); }));
  return first_open_ == jobs_.size();
}

SimTime GangScheduler::makespan() const {
  return all_finished() ? last_finish_ : -1;
}

// ---------------------------------------------------------------------------
// BatchRunner

Job& BatchRunner::create_job(std::string name) {
  assert(!started_);
  jobs_.push_back(
      std::make_unique<Job>(static_cast<int>(jobs_.size()), std::move(name)));
  return *jobs_.back();
}

void BatchRunner::start() {
  assert(!started_);
  started_ = true;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    for (const auto& placement : jobs_[i]->processes()) {
      placement.process->on_finish = [this, i](Process&) {
        if (jobs_[i]->finished()) on_job_finished(i);
      };
    }
  }
  if (!jobs_.empty()) start_job(0);
}

void BatchRunner::start_job(std::size_t index) {
  running_ = index;
  for (const auto& placement : jobs_[index]->processes()) {
    cluster_.node(placement.node).cpu().cont_process(*placement.process);
  }
}

void BatchRunner::on_job_finished(std::size_t index) {
  last_finish_ = cluster_.sim().now();
  for (const auto& placement : jobs_[index]->processes()) {
    cluster_.node(placement.node).vmm().release_process(
        placement.process->pid());
  }
  if (index + 1 < jobs_.size()) start_job(index + 1);
}

bool BatchRunner::all_finished() const {
  // A finished job stays finished (nothing revives a batch process), so the
  // jobs before the cursor need no second look.
  while (first_open_ < jobs_.size() && jobs_[first_open_]->finished()) {
    ++first_open_;
  }
  assert(std::all_of(jobs_.begin(), jobs_.begin() + first_open_,
                     [](const auto& job) { return job->finished(); }));
  return first_open_ == jobs_.size();
}

SimTime BatchRunner::makespan() const {
  return all_finished() ? last_finish_ : -1;
}

}  // namespace apsim
