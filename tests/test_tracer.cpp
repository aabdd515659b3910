// Unit and integration tests for the switch-phase tracer: recording
// primitives, the event cap, Chrome JSON export, phase statistics, and the
// end-to-end properties the subsystem promises — deterministic event streams,
// bit-identical outcomes with tracing off, and balanced, monotonically
// timestamped spans covering every gang switch.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "metrics/tracer.hpp"
#include "outcome_compare.hpp"

namespace apsim {
namespace {

// ---------------------------------------------------------------------------
// Tracer primitives with a hand-cranked clock.

struct ManualClock {
  SimTime t = 0;
  static SimTime read(const void* ctx) {
    return static_cast<const ManualClock*>(ctx)->t;
  }
};

TEST(Tracer, SyncSpanRecordsBeginEndPair) {
  ManualClock clock;
  Tracer tracer(&clock, ManualClock::read);
  {
    clock.t = 100;
    TraceSpan span = tracer.span(0, "switch", "sigstop", {{"pid", 7.0}});
    clock.t = 250;
  }
  ASSERT_EQ(tracer.events().size(), 2u);
  const TraceEvent& begin = tracer.events()[0];
  const TraceEvent& end = tracer.events()[1];
  EXPECT_EQ(begin.kind, TraceEventKind::kBegin);
  EXPECT_EQ(begin.ts, 100);
  EXPECT_EQ(tracer.string(begin.cat), "switch");
  EXPECT_EQ(tracer.string(begin.name), "sigstop");
  ASSERT_EQ(begin.num_args, 1);
  EXPECT_EQ(tracer.string(begin.args[0].first), "pid");
  EXPECT_DOUBLE_EQ(begin.args[0].second, 7.0);
  EXPECT_EQ(end.kind, TraceEventKind::kEnd);
  EXPECT_EQ(end.ts, 250);
}

TEST(Tracer, EndIsIdempotentAndMoveTransfersOwnership) {
  ManualClock clock;
  Tracer tracer(&clock, ManualClock::read);
  TraceSpan span = tracer.span(0, "c", "n");
  TraceSpan moved = std::move(span);
  EXPECT_FALSE(span.active());  // NOLINT(bugprone-use-after-move): on purpose
  span.end();                   // inert, records nothing
  moved.end();
  moved.end();  // second end is a no-op
  EXPECT_EQ(tracer.events().size(), 2u);
}

TEST(Tracer, AsyncSpansGetDistinctIds) {
  ManualClock clock;
  Tracer tracer(&clock, ManualClock::read);
  TraceSpan a = tracer.async_span(0, "switch", "page_out");
  TraceSpan b = tracer.async_span(0, "switch", "page_out");
  a.end();
  b.end();
  ASSERT_EQ(tracer.events().size(), 4u);
  const std::uint64_t id_a = tracer.events()[0].id;
  const std::uint64_t id_b = tracer.events()[1].id;
  EXPECT_NE(id_a, 0u);
  EXPECT_NE(id_b, 0u);
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(tracer.events()[2].id, id_a);  // ends pair by id
  EXPECT_EQ(tracer.events()[3].id, id_b);
}

TEST(Tracer, PhaseStatsSummarizeCompletedSpans) {
  ManualClock clock;
  Tracer tracer(&clock, ManualClock::read);
  for (SimTime width : {kSecond, 3 * kSecond}) {
    clock.t = 0;
    TraceSpan span = tracer.span(0, "switch", "page_in");
    clock.t = width;
    span.end();
  }
  const auto stats = tracer.phase_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].category, "switch");
  EXPECT_EQ(stats[0].name, "page_in");
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_DOUBLE_EQ(stats[0].total_s, 4.0);
  EXPECT_DOUBLE_EQ(stats[0].mean_s, 2.0);
  EXPECT_DOUBLE_EQ(stats[0].min_s, 1.0);
  EXPECT_DOUBLE_EQ(stats[0].max_s, 3.0);
  EXPECT_GT(stats[0].p95_s, stats[0].min_s);
}

TEST(Tracer, EventCapDropsNewWorkButKeepsEndsBalanced) {
  ManualClock clock;
  Tracer tracer(&clock, ManualClock::read, /*max_events=*/3);
  TraceSpan a = tracer.span(0, "c", "a");      // stored (1)
  TraceSpan b = tracer.span(0, "c", "b");      // stored (2)
  tracer.instant(0, "c", "i1");                // stored (3) — at capacity now
  tracer.instant(0, "c", "i2");                // dropped
  TraceSpan c = tracer.span(0, "c", "c");      // begin dropped
  c.end();                                     // nothing to balance: skipped
  b.end();                                     // forced past the cap
  a.end();                                     // forced past the cap
  EXPECT_GE(tracer.dropped(), 2u);
  int begins = 0;
  int ends = 0;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.kind == TraceEventKind::kBegin) ++begins;
    if (ev.kind == TraceEventKind::kEnd) ++ends;
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  // Stats still cover the dropped span.
  ASSERT_EQ(tracer.phase_stats().size(), 3u);
}

TEST(Tracer, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Tracer, ChromeJsonIsStructurallySound) {
  ManualClock clock;
  Tracer tracer(&clock, ManualClock::read);
  tracer.set_track_name(0, "node0 switch");
  clock.t = 1500;  // 1.5 us
  TraceSpan sync = tracer.span(0, "switch", "sigstop");
  TraceSpan async = tracer.async_span(0, "switch", "page_out", {{"out", 1.0}});
  tracer.instant(0, "vmm", "major_fault", {{"vpage", 42.0}});
  tracer.counter(0, "disk", "queue_depth", 3.0);
  clock.t = 2500;
  sync.end();
  async.end();
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("node0 switch"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  // Every ph letter appears the right number of times, async pairs share ids.
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), 1u);
  EXPECT_EQ(count("\"ph\":\"E\""), 1u);
  EXPECT_EQ(count("\"ph\":\"b\""), 1u);
  EXPECT_EQ(count("\"ph\":\"e\""), 1u);
  EXPECT_EQ(count("\"ph\":\"i\""), 1u);
  EXPECT_EQ(count("\"ph\":\"C\""), 1u);
  EXPECT_EQ(count("\"id\":\"0x"), 2u);
  // The whole document balances its brackets (cheap well-formedness check;
  // string values never contain braces thanks to json_escape + numeric args).
  EXPECT_EQ(count("{"), count("}"));
  EXPECT_EQ(count("["), count("]"));
}

// ---------------------------------------------------------------------------
// End-to-end: the traced switch path of a two-job gang run.

ExperimentConfig tiny(PolicySet policy = PolicySet::parse("so/ao/ai/bg")) {
  ExperimentConfig config;
  config.app = NpbApp::kLU;
  config.cls = NpbClass::kW;
  config.nodes = 1;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;
  config.policy = policy;
  config.quantum = 4 * kSecond;
  config.iterations_scale = 0.2;
  return config;
}

/// Assert the stream is well formed: timestamps never go backwards, sync
/// begin/end nest per track, async begin/end pair by id. Returns the number
/// of completed async ("switch", "switch") spans.
int validate_events(const Tracer& tracer) {
  SimTime last_ts = 0;
  std::map<int, int> sync_depth;
  std::map<std::uint64_t, int> async_open;
  int switch_spans = 0;
  for (const TraceEvent& ev : tracer.events()) {
    EXPECT_GE(ev.ts, last_ts);  // append order == sim time order
    last_ts = ev.ts;
    switch (ev.kind) {
      case TraceEventKind::kBegin:
        ++sync_depth[ev.track];
        break;
      case TraceEventKind::kEnd:
        EXPECT_GT(sync_depth[ev.track], 0) << "E without B on a track";
        --sync_depth[ev.track];
        break;
      case TraceEventKind::kAsyncBegin:
        EXPECT_EQ(async_open.count(ev.id), 0u) << "async id reused while open";
        async_open[ev.id] = 1;
        break;
      case TraceEventKind::kAsyncEnd:
        EXPECT_EQ(async_open.count(ev.id), 1u) << "async end without begin";
        async_open.erase(ev.id);
        if (tracer.string(ev.cat) == "switch" &&
            tracer.string(ev.name) == "switch") {
          ++switch_spans;
        }
        break;
      case TraceEventKind::kInstant:
      case TraceEventKind::kCounter:
        break;
    }
  }
  for (const auto& [track, depth] : sync_depth) {
    EXPECT_EQ(depth, 0) << "unclosed sync span on track " << track;
  }
  EXPECT_TRUE(async_open.empty()) << "unclosed async spans";
  return switch_spans;
}

TEST(TracerRun, SpansCoverEveryGangSwitch) {
  auto config = tiny();
  config.trace_json = "-";
  const RunOutcome out = run_gang(config);
  ASSERT_NE(out.trace, nullptr);
  ASSERT_GT(out.switches, 0);
  EXPECT_EQ(out.trace->dropped(), 0u);

  const int switch_spans = validate_events(*out.trace);
  // One "switch" span per delivered switch action: every quantum-expiry
  // switch plus the initial slot activation and job-finish reschedules.
  EXPECT_GE(switch_spans, out.switches);

  // The phase summary exposes the full Figure 5 phase set.
  std::map<std::string, std::uint64_t> counts;
  for (const auto& phase : out.switch_phases) {
    counts[phase.category + "/" + phase.name] = phase.count;
  }
  EXPECT_EQ(counts.at("switch/switch"),
            static_cast<std::uint64_t>(switch_spans));
  EXPECT_GT(counts.at("switch/stop_bgwrite"), 0u);
  EXPECT_GT(counts.at("switch/sigstop"), 0u);
  EXPECT_GT(counts.at("switch/sigcont"), 0u);
  EXPECT_GT(counts.at("switch/page_out"), 0u);
  EXPECT_GT(counts.at("switch/page_in"), 0u);
}

TEST(TracerRun, EventStreamIsDeterministicAcrossReruns) {
  auto config = tiny();
  config.trace_json = "-";
  const RunOutcome first = run_gang(config);
  const RunOutcome second = run_gang(config);
  ASSERT_NE(first.trace, nullptr);
  ASSERT_NE(second.trace, nullptr);
  const auto& a = first.trace->events();
  const auto& b = second.trace->events();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ts, b[i].ts) << "event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].track, b[i].track) << "event " << i;
    EXPECT_EQ(a[i].id, b[i].id) << "event " << i;
    EXPECT_EQ(first.trace->string(a[i].cat), second.trace->string(b[i].cat));
    EXPECT_EQ(first.trace->string(a[i].name), second.trace->string(b[i].name));
  }
}

TEST(TracerRun, TracingOffProducesIdenticalOutcome) {
  auto config = tiny();
  const RunOutcome plain = run_gang(config);  // trace_json unset
  config.trace_json = "-";
  const RunOutcome traced = run_gang(config);

  EXPECT_EQ(plain.trace, nullptr);
  EXPECT_TRUE(plain.switch_phases.empty());
  EXPECT_NE(traced.trace, nullptr);

  // The tracer only records: every model-visible quantity matches exactly.
  expect_same_outcome(plain, traced);
}

TEST(TracerRun, WritesChromeJsonFile) {
  auto config = tiny();
  const std::string path = testing::TempDir() + "apsim_trace_test.json";
  config.trace_json = path;
  const RunOutcome out = run_gang(config);
  ASSERT_NE(out.trace, nullptr);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"switch\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TracerRun, ChaosRunWithTracerStaysQuiescentAndBalanced) {
  auto config = tiny();
  config.trace_json = "-";
  config.faults.add(FaultSpec::parse("disk_transient start_s=2 end_s=20 p=0.05"));
  config.faults.add(FaultSpec::parse("signal_drop start_s=2 end_s=20 p=0.3"));
  const RunOutcome out = run_gang(config);
  // The run reached a terminal state (all jobs finished or failed) and the
  // event stream is still well formed: fault paths close their spans too.
  ASSERT_NE(out.trace, nullptr);
  validate_events(*out.trace);
  EXPECT_FALSE(out.switch_phases.empty());
}

}  // namespace
}  // namespace apsim
