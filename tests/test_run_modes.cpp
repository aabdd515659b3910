// Run mode x optional subsystem: every run mode (fixed-set gang, batch
// baseline, open arrival stream) goes through the one run assembly in
// harness/runner.cpp, so each observer must show its output in every mode
// and leave the run itself untouched:
//   - trace_json = "-": events are recorded and every span is closed;
//   - capture_traces: one paging trace per node;
//   - tier_mb > 0 under memory pressure: the pool admits pages.
// The gang-only subsystems (checkpointing, the control plane) are pinned by
// test_recover and test_control on fixed-set gang runs, and their rejection
// in the other modes by ConfigValidate.* and
// Scenario.OpenArrivalConfigRejectsBatchMode.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "harness/runner.hpp"
#include "outcome_compare.hpp"

namespace apsim {
namespace {

enum class Mode { kFixedGang, kBatch, kOpenStream };

std::string mode_name(Mode mode) {
  switch (mode) {
    case Mode::kFixedGang:
      return "FixedGang";
    case Mode::kBatch:
      return "Batch";
    case Mode::kOpenStream:
      return "OpenStream";
  }
  return "?";
}

void PrintTo(Mode mode, std::ostream* os) { *os << mode_name(mode); }

/// A two-node run of each mode that pages: two LU.W gangs (8.2 MB per
/// rank), or their batch baseline, against 10 MB of usable memory, or a
/// Poisson stream of one- and two-rank jobs of 6-14 MB per rank against
/// 12 MB.
ExperimentConfig mode_config(Mode mode) {
  ExperimentConfig config;
  config.nodes = 2;
  config.node_memory_mb = 64.0;
  if (mode == Mode::kOpenStream) {
    config.usable_memory_mb = 12.0;
    config.instances = 6;
    config.quantum = kSecond / 2;
    config.arrival_process = "poisson";
    config.arrival_mean_s = 0.5;
    config.open_max_width = 2;
    config.open_min_pages = 1536;
    config.open_max_pages = 3584;
    config.open_min_iterations = 4;
    config.open_max_iterations = 10;
    return config;
  }
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kW;
  config.instances = 2;
  config.quantum = 2 * kSecond;
  config.iterations_scale = 0.1;
  config.usable_memory_mb = 10.0;
  config.batch_mode = mode == Mode::kBatch;
  return config;
}

/// Synchronous spans nest per track and close; async spans pair by id.
void expect_balanced_spans(const Tracer& tracer) {
  std::map<std::int32_t, long> sync_depth;
  std::map<std::uint64_t, long> async_open;
  for (const TraceEvent& ev : tracer.events()) {
    switch (ev.kind) {
      case TraceEventKind::kBegin:
        ++sync_depth[ev.track];
        break;
      case TraceEventKind::kEnd:
        ASSERT_GT(sync_depth[ev.track], 0) << "track " << ev.track;
        --sync_depth[ev.track];
        break;
      case TraceEventKind::kAsyncBegin:
        ASSERT_EQ(async_open[ev.id]++, 0) << "async id " << ev.id;
        break;
      case TraceEventKind::kAsyncEnd:
        ASSERT_EQ(async_open[ev.id]--, 1) << "async id " << ev.id;
        break;
      case TraceEventKind::kInstant:
      case TraceEventKind::kCounter:
        break;
    }
  }
  for (const auto& [track, depth] : sync_depth) {
    EXPECT_EQ(depth, 0) << "track " << track << " ended with open spans";
  }
  for (const auto& [id, open] : async_open) {
    EXPECT_EQ(open, 0) << "async id " << id << " never closed";
  }
}

struct RunModes : ::testing::TestWithParam<Mode> {};

TEST_P(RunModes, TracerRecordsBalancedSpansWithoutChangingTheRun) {
  const ExperimentConfig plain = mode_config(GetParam());
  ExperimentConfig traced = plain;
  traced.trace_json = "-";
  const RunOutcome off = run_config(plain);
  const RunOutcome on = run_config(traced);
  EXPECT_EQ(off.trace, nullptr);
  ASSERT_NE(on.trace, nullptr);
  EXPECT_GT(on.trace->events().size(), 0u);
  EXPECT_FALSE(on.switch_phases.empty());
  expect_balanced_spans(*on.trace);
  expect_same_outcome(off, on);
}

TEST_P(RunModes, CaptureTracesRecordsOneTracePerNode) {
  const ExperimentConfig plain = mode_config(GetParam());
  ExperimentConfig captured = plain;
  captured.capture_traces = true;
  const RunOutcome off = run_config(plain);
  const RunOutcome on = run_config(captured);
  ASSERT_GT(on.makespan, 0);
  EXPECT_EQ(on.jobs_failed, 0);
  EXPECT_GT(on.pages_swapped_out, 0u);
  EXPECT_TRUE(off.traces.empty());
  ASSERT_EQ(on.traces.size(), static_cast<std::size_t>(plain.nodes));
  double paged_out = 0.0;
  for (const PagingTrace& trace : on.traces) {
    paged_out += trace.pages_out.total();
  }
  EXPECT_EQ(paged_out, static_cast<double>(on.pages_swapped_out));
  expect_same_outcome(off, on);
}

TEST_P(RunModes, TierStoresPagesUnderMemoryPressure) {
  ExperimentConfig config = mode_config(GetParam());
  config.tier_mb = 4.0;
  const RunOutcome out = run_config(config);
  ASSERT_GT(out.makespan, 0);
  EXPECT_GT(out.pages_swapped_out, 0u);
  EXPECT_GT(out.tier_pages_stored, 0u);
  EXPECT_GT(out.tier_bytes_stored, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, RunModes,
    ::testing::Values(Mode::kFixedGang, Mode::kBatch, Mode::kOpenStream),
    [](const auto& info) { return mode_name(info.param); });

/// run_gang on the open-arrival config of test_policy_conformance runs the
/// stream, not the fixed NPB set (six LU.B jobs that overflow the swap
/// device at this size).
TEST(RunGang, HonoursArrivalProcess) {
  ExperimentConfig config;
  config.nodes = 2;
  config.instances = 6;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.quantum = kSecond / 2;
  config.arrival_process = "poisson";
  config.arrival_mean_s = 0.5;
  config.open_max_width = 2;
  config.open_min_pages = 512;
  config.open_max_pages = 1024;
  config.open_min_iterations = 4;
  config.open_max_iterations = 10;
  const RunOutcome gang = run_gang(config);
  const RunOutcome reference = run_config(config);
  expect_same_outcome(gang, reference);
  ASSERT_EQ(gang.jobs.size(), 6u);
  EXPECT_EQ(gang.jobs_failed, 0);
  EXPECT_GT(gang.makespan, 0);
  EXPECT_LT(gang.makespan, 60 * kSecond);
  EXPECT_GT(gang.mean_slowdown, 0.0);
}

/// evaluate()'s batch baseline drops what only the gang run can observe,
/// so a traced, checkpointed, autotuned config still evaluates.
TEST(Evaluate, BaselineRunsWithoutGangOnlySubsystems) {
  ExperimentConfig config = mode_config(Mode::kFixedGang);
  config.trace_json = "-";
  config.capture_traces = true;
  config.checkpoint_interval = 3 * kSecond;
  config.autotune = true;
  const EvaluatedRun result = evaluate(config);
  ASSERT_GT(result.gang.makespan, 0);
  ASSERT_GT(result.batch.makespan, 0);
  EXPECT_NE(result.gang.trace, nullptr);
  EXPECT_GT(result.gang.checkpoints_taken, 0u);
  EXPECT_GT(result.gang.autotune_ticks, 0u);
  EXPECT_EQ(result.batch.trace, nullptr);
  EXPECT_TRUE(result.batch.traces.empty());
  EXPECT_EQ(result.batch.checkpoints_taken, 0u);
  EXPECT_EQ(result.batch.autotune_ticks, 0u);
}

}  // namespace
}  // namespace apsim
