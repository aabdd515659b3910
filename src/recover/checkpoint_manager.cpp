#include "recover/checkpoint_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "tier/tier_manager.hpp"

namespace apsim {

CheckpointManager::CheckpointManager(Cluster& cluster, GangScheduler& sched,
                                     CheckpointParams params)
    : cluster_(cluster), sched_(sched), params_(params) {
  assert(params_.interval > 0 && "checkpoint_interval = 0 means no manager");
  sched_.set_recovery(this);
}

CheckpointManager::~CheckpointManager() { sched_.set_recovery(nullptr); }

void CheckpointManager::start() {
  assert(!started_);
  started_ = true;
  states_.resize(sched_.jobs().size());
  ckpt_cursor_.assign(static_cast<std::size_t>(cluster_.size()), 0);
  for (const auto& job : sched_.jobs()) {
    JobState& st = states_[static_cast<std::size_t>(job->id())];
    st.out_baseline.assign(job->processes().size(), {});
    if (job->done()) continue;
    // Epoch-0 image: a from-scratch restart is available immediately, so a
    // crash before the first periodic checkpoint still gets a recovery
    // attempt instead of aborting the job. Costs no I/O and is not counted
    // in checkpoints_taken — nothing has been written anywhere yet.
    auto img = snapshot_job(*job, st);
    if (img) st.image = std::move(*img);
  }
  arm_tick();
}

void CheckpointManager::arm_tick() {
  cluster_.sim().after(params_.interval, [this] { tick(); });
}

void CheckpointManager::tick() {
  if (sched_.all_finished()) return;  // let the event queue drain
  // A checkpoint must not tear a gang mid-switch: wait for every live node
  // to have applied the current switch generation. The defer cap keeps a
  // pathological never-settling rotation from starving checkpoints forever.
  if (!sched_.switch_settled() && settle_defers_ < 512) {
    ++settle_defers_;
    cluster_.sim().after(5 * kMillisecond, [this] { tick(); });
    return;
  }
  settle_defers_ = 0;
  for (const auto& job : sched_.jobs()) {
    JobState& st = state_of(*job);
    // A suspended job (restoring, or migrating) has no live image to take.
    if (job->done() || sched_.suspended(*job) || st.ckpt_in_flight ||
        !st.checkpointable) {
      continue;
    }
    checkpoint_job(*job, st);
  }
  arm_tick();
}

void CheckpointManager::checkpoint_job(Job& job, JobState& st) {
  auto img = snapshot_job(job, st);
  if (!img) return;
  st.ckpt_in_flight = true;
  write_image(job, st, std::move(*img));
}

std::optional<JobImage> CheckpointManager::snapshot_job(Job& job,
                                                        JobState& st) {
  JobImage img;
  img.taken_at = cluster_.sim().now();
  MpiComm* comm = comm_of_ ? comm_of_(job.id()) : nullptr;
  if (comm != nullptr) img.comm_seqs = comm->rank_seqs();
  img.ranks.reserve(job.processes().size());
  for (const auto& placement : job.processes()) {
    Process& p = *placement.process;
    const auto cursor = p.program().save_cursor();
    if (!cursor) {
      // The program cannot describe its position; the job is permanently
      // uncheckpointable (a later tick would fail the same way).
      st.checkpointable = false;
      return std::nullopt;
    }
    auto& vmm = cluster_.node(placement.node).vmm();
    RankImage r;
    r.node = placement.node;
    r.num_pages = vmm.space(p.pid()).num_pages();
    r.cursor = *cursor;
    r.current_op = p.current_op_;
    r.op_active = p.op_active_;
    r.op_pos = p.op_pos_;
    r.cpu_time = p.stats_.cpu_time;
    if (comm != nullptr && p.state() == ProcState::kBlockedComm &&
        r.op_active && r.current_op.kind == Op::Kind::kComm) {
      // Consistent cut for the one piece of cross-rank state, the open
      // collective: if the collective this rank entered is still open
      // cluster-wide, rewind the rank to re-enter it on restore; if it
      // already completed, roll the rank forward past the comm op.
      auto& seq = img.comm_seqs[static_cast<std::size_t>(p.rank)];
      const std::uint64_t entered = seq - 1;
      if (comm->collective_open(entered)) {
        r.comm_rewind = true;
        seq = entered;
      } else {
        r.op_active = false;
      }
    }
    r.mem = vmm.snapshot_image(p.pid());
    img.ranks.push_back(std::move(r));
  }
  img.valid = true;
  return img;
}

void CheckpointManager::write_image(Job& job, JobState& st, JobImage img) {
  auto batch = std::make_shared<WriteBatch>();
  batch->gen = st.gen;
  // Raw image size per node. Incremental epochs write the pages dirtied in
  // memory plus those swapped out since the last commit (capped at the live
  // set); full epochs (and epoch 1, whose baseline is the costless epoch-0
  // image) write everything live.
  std::map<int, std::int64_t> node_pages;  // ordered -> deterministic submits
  const auto& placements = job.processes();
  for (std::size_t i = 0; i < img.ranks.size(); ++i) {
    const RankImage& rank = img.ranks[i];
    std::int64_t pages = rank.mem.live_pages;
    if (params_.incremental && st.image.valid && st.image.taken_at >= 0) {
      const int node = placements[i].node;
      const Pid pid = placements[i].process->pid();
      const auto& sp = cluster_.node(node).vmm().space(pid).stats();
      // A space the baseline was not read from (a restore or a migration
      // created it since) has swapped out nothing before this image.
      const SwapOutBaseline& base = st.out_baseline[i];
      const std::uint64_t since =
          base.node == node && base.pid == pid ? base.pages : 0;
      const auto delta = static_cast<std::int64_t>(sp.pages_swapped_out) -
                         static_cast<std::int64_t>(since);
      pages = std::min(pages,
                       rank.mem.dirty_pages + std::max<std::int64_t>(delta, 0));
    }
    node_pages[rank.node] += pages;
    batch->raw_pages += static_cast<std::uint64_t>(pages);
  }
  batch->img = std::move(img);

  for (const auto& [node_index, pages] : node_pages) {
    if (pages <= 0) continue;
    auto& node = cluster_.node(node_index);
    const double ratio = compression_ratio(node_index);
    std::int64_t blocks = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(pages) * ratio));
    blocks = std::max<std::int64_t>(blocks, 1);
    // The checkpoint region lives past the swap partition. A disk that is
    // exactly swap-sized has no such region; wrap over the whole device
    // instead — the disk model stores no data, so only the seek/transfer
    // timing matters, and all submits must stay in range.
    const BlockNum past_swap = node.swap().block_of(0) + node.swap().num_slots();
    const BlockNum capacity = node.disk().model().params().num_blocks;
    const BlockNum region_lo = past_swap < capacity ? past_swap : 0;
    const std::int64_t span = capacity - region_lo;
    auto& cursor = ckpt_cursor_[static_cast<std::size_t>(node_index)];
    if (tracer_ != nullptr) {
      batch->spans.push_back(std::make_shared<TraceSpan>(tracer_->async_span(
          trace_track(node_index, kTrackSched), "ckpt", "checkpoint",
          {{"job", static_cast<double>(job.id())},
           {"pages", static_cast<double>(pages)},
           {"blocks", static_cast<double>(blocks)}})));
    }
    while (blocks > 0) {
      const std::int64_t len =
          std::min({blocks, params_.max_io_run, span - cursor});
      ++batch->outstanding;
      submit_ckpt_write(job, node_index, region_lo + cursor, len, 0, batch);
      cursor = (cursor + len) % span;
      blocks -= len;
    }
  }
  finish_ckpt_write(job, batch);  // drop the submission sentinel
}

void CheckpointManager::submit_ckpt_write(
    Job& job, int node, BlockNum start, BlockNum nblocks, int attempt,
    const std::shared_ptr<WriteBatch>& batch) {
  auto on_done = [this, &job, node, start, nblocks, attempt,
                  batch](IoResult result) {
    if (result.ok) {
      finish_ckpt_write(job, batch);
      return;
    }
    JobState& st = state_of(job);
    if (st.gen != batch->gen || job.done()) {
      finish_ckpt_write(job, batch);
      return;
    }
    if (attempt >= params_.max_retries) {
      batch->failed = true;
      finish_ckpt_write(job, batch);
      return;
    }
    ++stats_.ckpt_io_retries;
    if (tracer_ != nullptr) {
      tracer_->instant(trace_track(node, kTrackSched), "ckpt", "retry",
                       {{"job", static_cast<double>(job.id())},
                        {"attempt", static_cast<double>(attempt + 1)}});
    }
    const SimDuration backoff =
        std::min(params_.retry_base << attempt, params_.retry_cap);
    cluster_.sim().after(backoff, [this, &job, node, start, nblocks, attempt,
                                   batch] {
      submit_ckpt_write(job, node, start, nblocks, attempt + 1, batch);
    });
  };
  FaultInjector* injector = cluster_.fault_injector();
  if (injector != nullptr && injector->on_ckpt_write(node)) {
    // Injected failure: surface it after a token latency so the retry
    // ladder's backoff is exercised in simulated time.
    cluster_.sim().after(kMillisecond,
                         [on_done] { on_done(IoResult::error()); });
    return;
  }
  cluster_.node(node).disk().submit(
      {start, nblocks, /*write=*/true, IoPriority::kForeground,
       std::move(on_done)});
}

void CheckpointManager::finish_ckpt_write(
    Job& job, const std::shared_ptr<WriteBatch>& batch) {
  if (--batch->outstanding > 0) return;
  batch->spans.clear();  // close the per-node checkpoint spans
  JobState& st = state_of(job);
  // A casualty bumped the generation (and cleared ckpt_in_flight) while the
  // writes were in flight: the image describes a world that no longer
  // exists, so drop it.
  if (st.gen != batch->gen) return;
  st.ckpt_in_flight = false;
  if (job.done()) return;
  if (batch->failed) {
    ++stats_.checkpoint_failures;
    cluster_.node(job.processes().front().node)
        .vmm()
        .log()
        .warn("job %d checkpoint abandoned after I/O retries; keeping the "
              "previous image",
              job.id());
    return;
  }
  st.image = std::move(batch->img);
  ++stats_.checkpoints_taken;
  stats_.bytes_checkpointed +=
      batch->raw_pages * static_cast<std::uint64_t>(kPageBytes);
  const auto& placements = job.processes();
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const int node = placements[i].node;
    const Pid pid = placements[i].process->pid();
    st.out_baseline[i] = {
        node, pid,
        cluster_.node(node).vmm().space(pid).stats().pages_swapped_out};
  }
}

bool CheckpointManager::on_job_casualty(Job& job, const char* reason) {
  if (!started_) return false;
  JobState& st = state_of(job);
  if (job.done()) return false;
  if (st.restoring) {
    // A second casualty mid-restore (e.g. a staging target crashed).
    // Supersede the in-flight staging — its completions will release the
    // staged spaces — and replan from scratch once this event settles.
    sched_.suspend_job(job);
    ++st.gen;
    const std::uint64_t gen = st.gen;
    cluster_.sim().after(0, [this, &job, gen] {
      JobState& s = state_of(job);
      if (s.gen != gen || !s.restoring || job.done()) return;
      plan_and_stage(job);
    });
    return true;
  }
  if (!st.checkpointable || !st.image.valid ||
      st.restarts >= params_.max_restarts_per_job) {
    return false;
  }
  cluster_.node(job.processes().front().node)
      .vmm()
      .log()
      .info("job %d casualty (%s); restarting from checkpoint t=%lld (restart "
            "%d)",
            job.id(), reason, static_cast<long long>(st.image.taken_at),
            st.restarts + 1);
  begin_restore(job, st, reason);
  return true;
}

void CheckpointManager::begin_restore(Job& job, JobState& st,
                                      const char* reason) {
  (void)reason;
  ++st.restarts;
  ++stats_.restarts_started;
  if (params_.lost_work == LostWorkModel::kWall) {
    stats_.lost_work += cluster_.sim().now() - st.image.taken_at;
  } else {
    const auto& placements = job.processes();
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const SimDuration burned = placements[i].process->stats().cpu_time -
                                 st.image.ranks[i].cpu_time;
      if (burned > 0) stats_.lost_work += burned;
    }
  }
  st.ckpt_in_flight = false;  // any in-flight image write is now void
  ++st.gen;
  st.restoring = true;
  st.bad_nodes.clear();
  sched_.suspend_job(job);
  if (tracer_ != nullptr) {
    st.restore_span = std::make_shared<TraceSpan>(tracer_->async_span(
        trace_track(job.processes().front().node, kTrackSched), "ckpt",
        "restore",
        {{"job", static_cast<double>(job.id())},
         {"restart", static_cast<double>(st.restarts)}}));
  }
  // Defer planning one event: the casualty handler (node teardown, fencing)
  // may still be mid-flight, and planning wants settled node state.
  const std::uint64_t gen = st.gen;
  cluster_.sim().after(0, [this, &job, gen] {
    JobState& s = state_of(job);
    if (s.gen != gen || !s.restoring || job.done()) return;
    plan_and_stage(job);
  });
}

void CheckpointManager::plan_and_stage(Job& job) {
  JobState& st = state_of(job);
  std::vector<std::int64_t> rank_pages;
  rank_pages.reserve(st.image.ranks.size());
  for (const RankImage& rank : st.image.ranks)
    rank_pages.push_back(rank.mem.live_pages);
  std::vector<RestartCandidate> candidates;
  for (int n = 0; n < cluster_.size(); ++n) {
    if (!sched_.node_alive(n) || st.bad_nodes.contains(n)) continue;
    auto& node = cluster_.node(n);
    if (node.disk().failed()) continue;
    RestartCandidate cand;
    cand.node = n;
    cand.free_swap_slots = node.swap().free_slots();
    cand.usable_frames = node.vmm().frames().usable_frames();
    cand.min_frames = node.vmm().params().freepages_high + params_.frame_headroom;
    candidates.push_back(cand);
  }
  auto plan =
      RestartPlanner::plan(rank_pages, std::move(candidates), params_.placement);
  if (!plan) {
    give_up_restore(job, st, "no feasible placement on surviving nodes");
    return;
  }
  stage(job, st, *plan);
}

void CheckpointManager::stage(Job& job, JobState& st,
                              const std::vector<int>& targets) {
  std::vector<GangScheduler::StagedRank> ranks;
  ranks.reserve(st.image.ranks.size());
  for (std::size_t i = 0; i < st.image.ranks.size(); ++i) {
    const RankImage& rank = st.image.ranks[i];
    ranks.push_back({targets[i], -1, rank.num_pages, &rank.mem});
  }
  using End = GangScheduler::StagingEnd;
  const bool sent = sched_.stage_job(
      job, ranks, params_.max_io_run, [this, &job](End end, int node) {
        JobState& s = state_of(job);
        if (end == End::kStaged) {
          finish_restore(job, s);
        } else if (end == End::kFailed) {
          // Also when the planner saw enough swap slots but a concurrent
          // consumer raced us: replan without the node.
          cluster_.node(job.processes().front().node)
              .vmm()
              .log()
              .warn("job %d image staging failed on node %d; replanning "
                    "without it",
                    job.id(), node);
          s.bad_nodes.insert(node);
          plan_and_stage(job);
        }
      });
  if (sent) {
    stats_.pages_staged +=
        static_cast<std::uint64_t>(st.image.total_live_pages());
  }
}

void CheckpointManager::finish_restore(Job& job, JobState& st) {
  // stage_job re-homed the processes; rewind each one to its image.
  MpiComm* comm = comm_of_ ? comm_of_(job.id()) : nullptr;
  const auto& placements = job.processes();
  for (std::size_t i = 0; i < placements.size(); ++i) {
    Process& p = *placements[i].process;
    const RankImage& rank = st.image.ranks[i];
    const bool ok = p.program().restore_cursor(rank.cursor);
    assert(ok && "a checkpointable program must accept its own cursor");
    (void)ok;
    p.current_op_ = rank.current_op;
    p.op_active_ = rank.op_active;
    p.op_pos_ = rank.op_pos;
    if (p.op_active_ && p.current_op_.kind == Op::Kind::kAccess &&
        cluster_.node(placements[i].node).cpu().params().batched_touch) {
      p.touch_plan_ = p.current_op_.access.prepare();
    }
  }
  if (comm != nullptr) comm->reset_for_restart(st.image.comm_seqs);
  st.restoring = false;
  st.bad_nodes.clear();
  st.restore_span.reset();
  cluster_.node(placements.front().node)
      .vmm()
      .log()
      .info("job %d restored from checkpoint t=%lld; resuming", job.id(),
            static_cast<long long>(st.image.taken_at));
  sched_.resume_restarted_job(job);
}

void CheckpointManager::give_up_restore(Job& job, JobState& st,
                                        const char* why) {
  st.restoring = false;
  ++st.gen;
  ++stats_.restarts_failed;
  st.restore_span.reset();
  cluster_.node(job.processes().front().node)
      .vmm()
      .log()
      .warn("job %d restart abandoned: %s", job.id(), why);
  sched_.abandon_job(job);
}

double CheckpointManager::compression_ratio(int node) const {
  if (const TierManager* tier = cluster_.node(node).tier()) {
    const auto& pool_stats = tier->pool().stats();
    if (pool_stats.pages_stored > 0) {
      const double ratio =
          static_cast<double>(pool_stats.bytes_stored) /
          (static_cast<double>(pool_stats.pages_stored) *
           static_cast<double>(kPageBytes));
      return std::clamp(ratio, 0.05, 1.0);
    }
  }
  return 1.0;
}

const JobImage* CheckpointManager::image(int job_id) const {
  const auto index = static_cast<std::size_t>(job_id);
  if (index >= states_.size() || !states_[index].image.valid) return nullptr;
  return &states_[index].image;
}

int CheckpointManager::restarts_of(int job_id) const {
  const auto index = static_cast<std::size_t>(job_id);
  return index < states_.size() ? states_[index].restarts : 0;
}

CheckpointManager::JobState& CheckpointManager::state_of(const Job& job) {
  return states_[static_cast<std::size_t>(job.id())];
}

}  // namespace apsim
