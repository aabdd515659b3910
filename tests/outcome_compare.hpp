#pragma once

// One RunOutcome comparator for every suite that asks whether two runs are
// the same run: thread counts, repeats, observers switched on, inert knobs,
// the reclaim oracles. It compares everything a run computes — the label,
// every cluster-wide counter and every per-job field — so a suite cannot
// miss a counter it forgot to list. Observer outputs (trace, traces,
// switch_phases) stay with the suites that check them. A field added to
// RunOutcome or JobOutcome belongs here too.

#include <gtest/gtest.h>

#include <cstddef>

#include "metrics/experiment.hpp"

namespace apsim {

inline void expect_same_outcome(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    SCOPED_TRACE("job " + a.jobs[j].name);
    const JobOutcome& ja = a.jobs[j];
    const JobOutcome& jb = b.jobs[j];
    EXPECT_EQ(ja.name, jb.name);
    EXPECT_EQ(ja.completion, jb.completion);
    EXPECT_EQ(ja.failed, jb.failed);
    EXPECT_EQ(ja.recovered, jb.recovered);
    EXPECT_EQ(ja.major_faults, jb.major_faults);
    EXPECT_EQ(ja.minor_faults, jb.minor_faults);
    EXPECT_EQ(ja.pages_swapped_in, jb.pages_swapped_in);
    EXPECT_EQ(ja.pages_swapped_out, jb.pages_swapped_out);
    EXPECT_EQ(ja.false_evictions, jb.false_evictions);
    EXPECT_EQ(ja.cpu_time, jb.cpu_time);
    EXPECT_EQ(ja.fault_wait, jb.fault_wait);
    EXPECT_EQ(ja.comm_wait, jb.comm_wait);
    EXPECT_EQ(ja.arrival, jb.arrival);
    EXPECT_EQ(ja.slowdown, jb.slowdown);
  }
  EXPECT_EQ(a.pages_swapped_in, b.pages_swapped_in);
  EXPECT_EQ(a.pages_swapped_out, b.pages_swapped_out);
  EXPECT_EQ(a.major_faults, b.major_faults);
  EXPECT_EQ(a.false_evictions, b.false_evictions);
  EXPECT_EQ(a.pages_recorded, b.pages_recorded);
  EXPECT_EQ(a.pages_replayed, b.pages_replayed);
  EXPECT_EQ(a.bg_pages_written, b.bg_pages_written);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.tier_pool_hits, b.tier_pool_hits);
  EXPECT_EQ(a.tier_pool_misses, b.tier_pool_misses);
  EXPECT_EQ(a.tier_pages_stored, b.tier_pages_stored);
  EXPECT_EQ(a.tier_bytes_stored, b.tier_bytes_stored);
  EXPECT_EQ(a.tier_writeback_pages, b.tier_writeback_pages);
  EXPECT_EQ(a.jobs_failed, b.jobs_failed);
  EXPECT_EQ(a.nodes_failed, b.nodes_failed);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.pages_unrecoverable, b.pages_unrecoverable);
  EXPECT_EQ(a.signal_retransmits, b.signal_retransmits);
  EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
  EXPECT_EQ(a.checkpoint_failures, b.checkpoint_failures);
  EXPECT_EQ(a.ckpt_io_retries, b.ckpt_io_retries);
  EXPECT_EQ(a.bytes_checkpointed, b.bytes_checkpointed);
  EXPECT_EQ(a.pages_staged, b.pages_staged);
  EXPECT_EQ(a.jobs_recovered, b.jobs_recovered);
  EXPECT_EQ(a.restarts_failed, b.restarts_failed);
  EXPECT_EQ(a.lost_pages_recovered, b.lost_pages_recovered);
  EXPECT_EQ(a.lost_pages_fatal, b.lost_pages_fatal);
  EXPECT_EQ(a.lost_work_ms, b.lost_work_ms);
  EXPECT_EQ(a.disk_blocks_written, b.disk_blocks_written);
  EXPECT_EQ(a.disk_blocks_read, b.disk_blocks_read);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_EQ(a.p99_slowdown, b.p99_slowdown);
  EXPECT_EQ(a.jobs_migrated, b.jobs_migrated);
  EXPECT_EQ(a.migration_bytes, b.migration_bytes);
  EXPECT_EQ(a.autotune_ticks, b.autotune_ticks);
  EXPECT_EQ(a.autotune_adjustments, b.autotune_adjustments);
  EXPECT_EQ(a.autotune_policy_switches, b.autotune_policy_switches);
}

}  // namespace apsim
