#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "gang/gang_scheduler.hpp"
#include "net/mpi.hpp"
#include "recover/job_image.hpp"
#include "recover/restart_planner.hpp"

/// \file checkpoint_manager.hpp
/// Coordinated checkpoint/restart for gang-scheduled jobs. Periodically (and
/// aligned to settled switch generations, so a checkpoint never tears a gang
/// mid-switch) the manager snapshots each job — program cursors, in-flight
/// ops, the open-collective cut, and the live-page layout of every address
/// space — and writes the image through the disk model into a dedicated
/// region beyond the swap partition, so checkpoint overhead is real I/O that
/// shows up in makespan. On a node crash, fencing, or unrecoverable page
/// loss the manager intercepts the gang scheduler's fail path, suspends the
/// job, re-places its ranks on surviving nodes, stages the image into their
/// swap partitions (again as real I/O), rewinds program/comm cursors, and
/// puts the job back into the rotation. With checkpoint_interval = 0 the
/// harness never constructs a manager: no events, no RNG draws, bit-identical
/// runs — the golden suites pin that.

namespace apsim {

struct CheckpointParams {
  /// Time between coordinated checkpoints. Must be > 0 (the harness gates
  /// construction on it).
  SimDuration interval = 60 * kSecond;

  /// Incremental images: size each epoch's write as dirty pages plus pages
  /// swapped out since the last commit, instead of the full live set.
  bool incremental = true;

  /// Retry ladder for checkpoint image writes: capped exponential backoff,
  /// at most max_retries re-issues per request before the whole checkpoint
  /// attempt is abandoned (the previous image stays valid).
  int max_retries = 3;
  SimDuration retry_base = 10 * kMillisecond;
  SimDuration retry_cap = 160 * kMillisecond;

  RestartPlacement placement = RestartPlacement::kSpread;
  LostWorkModel lost_work = LostWorkModel::kCpu;

  /// Give up on a job after this many restarts (crash loops must terminate).
  int max_restarts_per_job = 8;

  /// Longest contiguous run for image/staging writes, in blocks.
  std::int64_t max_io_run = 512;

  /// A restart target must have usable_frames >= freepages_high + headroom.
  std::int64_t frame_headroom = 64;
};

class CheckpointManager : public RecoveryHook {
 public:
  /// Installs itself as the scheduler's recovery hook; the destructor
  /// uninstalls it, so the manager must outlive no scheduler it serves.
  CheckpointManager(Cluster& cluster, GangScheduler& sched,
                    CheckpointParams params);
  ~CheckpointManager() override;

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Resolver from job id to its communicator (nullptr for single-rank
  /// jobs), for the open-collective cut and the sequence rewind; restored
  /// ranks are rebound through the scheduler's resolver
  /// (GangScheduler::set_comm_resolver). Install before start().
  void set_comm_resolver(std::function<MpiComm*(int)> resolver) {
    comm_of_ = std::move(resolver);
  }

  /// Attach the run's tracer (nullptr = untraced): per-node "ckpt" spans
  /// for image writes, per-job "restore" spans, retry instants.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Take the epoch-0 (from-scratch) images and arm the periodic tick.
  /// Call after GangScheduler::start().
  void start();

  /// RecoveryHook: intercept a job casualty. Returns true when a restart
  /// was started (or is already in progress) for the job.
  bool on_job_casualty(Job& job, const char* reason) override;

  struct Stats {
    std::uint64_t checkpoints_taken = 0;    ///< committed job images
    std::uint64_t checkpoint_failures = 0;  ///< attempts lost to I/O errors
    std::uint64_t ckpt_io_retries = 0;      ///< image-write re-issues
    std::uint64_t bytes_checkpointed = 0;   ///< raw (pre-compression) bytes
    std::uint64_t pages_staged = 0;         ///< image pages written on restore
    int restarts_started = 0;
    int restarts_failed = 0;                ///< give-ups (no placement/staging)
    SimDuration lost_work = 0;              ///< per lost_work model
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Last committed image for a job (nullptr when none yet).
  [[nodiscard]] const JobImage* image(int job_id) const;
  /// Completed restarts of a job.
  [[nodiscard]] int restarts_of(int job_id) const;

 private:
  /// One rank's pages_swapped_out at the last commit, and the address
  /// space it was read from.
  struct SwapOutBaseline {
    int node = -1;
    Pid pid = kNoPid;
    std::uint64_t pages = 0;
  };

  struct JobState {
    JobImage image;
    bool checkpointable = true;
    bool ckpt_in_flight = false;
    bool restoring = false;
    std::uint64_t gen = 0;  ///< attempt generation; bumps invalidate in-flight work
    int restarts = 0;
    std::set<int> bad_nodes;  ///< staging failed there during this restart
    std::vector<SwapOutBaseline> out_baseline;  ///< per rank
    std::shared_ptr<TraceSpan> restore_span;
  };

  /// Shared aggregate for one checkpoint attempt's disk writes.
  struct WriteBatch {
    std::uint64_t gen = 0;
    int outstanding = 1;  ///< +1 sentinel until all requests are submitted
    bool failed = false;
    JobImage img;                 ///< pending image, committed on success
    std::uint64_t raw_pages = 0;  ///< pre-compression page count
    std::vector<std::shared_ptr<TraceSpan>> spans;
  };

  void arm_tick();
  void tick();
  void checkpoint_job(Job& job, JobState& st);
  [[nodiscard]] std::optional<JobImage> snapshot_job(Job& job, JobState& st);
  void write_image(Job& job, JobState& st, JobImage img);
  void submit_ckpt_write(Job& job, int node, BlockNum start, BlockNum nblocks,
                         int attempt, const std::shared_ptr<WriteBatch>& batch);
  void finish_ckpt_write(Job& job, const std::shared_ptr<WriteBatch>& batch);

  void begin_restore(Job& job, JobState& st, const char* reason);
  void plan_and_stage(Job& job);
  /// Stage the image onto \p targets through GangScheduler::stage_job.
  void stage(Job& job, JobState& st, const std::vector<int>& targets);
  /// Rewind the re-homed processes to the image and resume the job.
  void finish_restore(Job& job, JobState& st);
  void give_up_restore(Job& job, JobState& st, const char* why);

  [[nodiscard]] double compression_ratio(int node) const;
  [[nodiscard]] JobState& state_of(const Job& job);

  Cluster& cluster_;
  GangScheduler& sched_;
  CheckpointParams params_;
  std::function<MpiComm*(int)> comm_of_;
  Tracer* tracer_ = nullptr;
  std::vector<JobState> states_;
  /// Per-node rotating write cursor within the checkpoint disk region.
  std::vector<std::int64_t> ckpt_cursor_;
  int settle_defers_ = 0;
  bool started_ = false;
  Stats stats_;
};

}  // namespace apsim
