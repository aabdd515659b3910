// Perf-regression harness for the simulator substrate. Times the event-queue
// hot path (schedule / cancel / pop, random times, same-time bursts) for the
// current slab-pool EventQueue *and* for an in-bench copy of the legacy
// shared_ptr-flag + std::function queue, so the reported speedup is measured
// against the exact pre-overhaul implementation on the same machine and
// build flags. On top of the microbenchmarks it times a demand-paging fault
// storm through the full Vmm and one small fig7-style gang run, so macro
// regressions (allocation creep anywhere on the event path) show up even
// when the queue microbenches stay flat.
//
// Results are written as JSON (default: BENCH_perf.json in the working
// directory) so the perf trajectory is tracked in-repo from run to run:
//
//   jq '.results[] | {name, speedup}' BENCH_perf.json
//
// An end-to-end macro section times small fig7-style and fig8-style gang
// runs with the batched touch engine against the scalar per-touch loop
// (ExperimentConfig::scalar_touch) and records the worse of the two as
// `endtoend_speedup`. The `zipf_rank` row times the touch engine's zipf
// draws, hash plus ZipfTable::rank, against hash plus the direct zipf_rank.
//
// `--smoke` shrinks the workloads for CI (seconds, not minutes);
// `--min-speedup X` exits non-zero when the schedule/pop speedup vs the
// legacy queue falls below X (the CI perf-smoke gate);
// `--min-endtoend-speedup X` gates the batched-touch macro speedup the same
// way; `--scalar` runs the fig7 macro bench on the scalar path for manual
// A/B comparisons; `--out PATH` moves the JSON.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "disk/disk.hpp"
#include "disk/swap_device.hpp"
#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "mem/page_table.hpp"
#include "mem/touch_plan.hpp"
#include "mem/vmm.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workloads/spec.hpp"

namespace {

using namespace apsim;

// ---------------------------------------------------------------------------
// The pre-overhaul event queue, verbatim: one std::function plus one
// shared_ptr<bool> cancellation flag per entry, callables sifted through the
// heap. Kept here (not in src/) so the comparison baseline cannot drift.

namespace legacy {

class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool pending() const {
    auto p = flag_.lock();
    return p != nullptr && !*p;
  }

  explicit EventHandle(std::weak_ptr<bool> flag) : flag_(std::move(flag)) {}
  std::weak_ptr<bool> flag_;
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventHandle schedule(SimTime when, Callback fn) {
    Entry entry;
    entry.time = when;
    entry.seq = seq_++;
    entry.fn = std::move(fn);
    entry.cancelled = std::make_shared<bool>(false);
    EventHandle handle{std::weak_ptr<bool>(entry.cancelled)};
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++live_;
    return handle;
  }

  void cancel(const EventHandle& handle) {
    if (auto flag = handle.flag_.lock(); flag && !*flag) {
      *flag = true;
      --live_;
    }
  }

  [[nodiscard]] bool empty() const {
    drop_cancelled_top();
    return heap_.empty();
  }

  struct Popped {
    SimTime time;
    Callback fn;
  };

  [[nodiscard]] Popped pop() {
    drop_cancelled_top();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    --live_;
    *entry.cancelled = true;
    return Popped{entry.time, std::move(entry.fn)};
  }

 private:
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Callback fn;
    std::shared_ptr<bool> cancelled;

    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void drop_cancelled_top() const {
    auto& heap = heap_;
    while (!heap.empty() && *heap.front().cancelled) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
    }
  }

  mutable std::vector<Entry> heap_;
  std::uint64_t seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// Timing helpers

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Median wall time of \p reps runs of \p fn, in milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    fn();
    times.push_back(now_ms() - t0);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Median wall times of \p reps runs each of \p fn_a and \p fn_b, in
/// milliseconds. The two alternate run by run, so transient host load
/// drifts into both medians alike instead of skewing their ratio.
template <typename FnA, typename FnB>
std::pair<double, double> interleaved_median_ms(int reps, FnA&& fn_a,
                                                FnB&& fn_b) {
  std::vector<double> a;
  std::vector<double> b;
  for (int r = 0; r < reps; ++r) {
    a.push_back(median_ms(1, fn_a));
    b.push_back(median_ms(1, fn_b));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return {a[a.size() / 2], b[b.size() / 2]};
}

struct Result {
  std::string name;
  std::int64_t items = 0;        ///< events processed per run
  double new_ms = 0.0;           ///< current implementation, median wall ms
  double legacy_ms = -1.0;       ///< legacy queue, median wall ms (-1: n/a)
  double extra = -1.0;           ///< benchmark-specific metric (-1: n/a)
  const char* extra_name = "";

  [[nodiscard]] double mops(double ms) const {
    return ms > 0.0 ? static_cast<double>(items) / ms / 1e3 : 0.0;
  }
  [[nodiscard]] double speedup() const {
    return (legacy_ms > 0.0 && new_ms > 0.0) ? legacy_ms / new_ms : -1.0;
  }
};

// Dispatch counter shared by the queue microbench workloads: each popped
// callback bumps it, so neither queue can dead-code the callable away.
std::uint64_t g_dispatched = 0;

/// Workload A — the shape a running simulation actually has: a bounded
/// pending set (one event per process plus in-flight I/O, hundreds not
/// hundreds of thousands) churning through schedule/pop pairs. Prefill
/// `depth` events, then each iteration pops the earliest and schedules a
/// successor a random delay later, exactly like a dispatched callback
/// re-arming itself.
template <typename Queue>
void steady_state_churn(std::int64_t n, std::int64_t depth) {
  Queue queue;
  Rng rng(42);
  for (std::int64_t i = 0; i < depth; ++i) {
    (void)queue.schedule(static_cast<SimTime>(rng.next_below(1 << 16)),
                         [] { ++g_dispatched; });
  }
  for (std::int64_t i = 0; i < n; ++i) {
    auto popped = queue.pop();
    popped.fn();
    (void)queue.schedule(popped.time +
                             static_cast<SimTime>(1 + rng.next_below(1 << 16)),
                         [] { ++g_dispatched; });
  }
  while (!queue.empty()) queue.pop().fn();
}

/// Workload A': bulk fill-then-drain with a six-figure pending set — far
/// past any real run, so it isolates the heap-sift cost on huge heaps
/// (informational; the regression gate uses the steady-state shape).
template <typename Queue>
void schedule_pop_bulk(std::int64_t n) {
  Queue queue;
  Rng rng(42);
  for (std::int64_t i = 0; i < n; ++i) {
    (void)queue.schedule(static_cast<SimTime>(rng.next_below(1 << 20)),
                         [] { ++g_dispatched; });
  }
  while (!queue.empty()) queue.pop().fn();
}

/// Workload B: schedule N, cancel every other via its handle, pop the rest —
/// the switch-watchdog / retry-ladder pattern (most timers are cancelled).
template <typename Queue>
void schedule_cancel_pop(std::int64_t n) {
  Queue queue;
  Rng rng(43);
  using Handle = decltype(queue.schedule(0, [] {}));
  std::vector<Handle> handles;
  handles.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    handles.push_back(queue.schedule(
        static_cast<SimTime>(rng.next_below(1 << 20)), [] { ++g_dispatched; }));
  }
  for (std::int64_t i = 0; i < n; i += 2) {
    queue.cancel(handles[static_cast<std::size_t>(i)]);
  }
  while (!queue.empty()) queue.pop().fn();
}

/// Workload C: bursts of same-instant events (gang switches, signal
/// broadcasts, waiter releases) — the batched-pop fast path.
template <typename Queue>
void same_time_bursts(std::int64_t n) {
  Queue queue;
  constexpr std::int64_t kBurst = 256;
  for (std::int64_t t = 0; t * kBurst < n; ++t) {
    for (std::int64_t i = 0; i < kBurst; ++i) {
      (void)queue.schedule(static_cast<SimTime>(t) * 1000,
                           [] { ++g_dispatched; });
    }
  }
  while (!queue.empty()) queue.pop().fn();
}

template <typename Fn>
Result compare_queues(const char* name, std::int64_t items, int reps,
                      Fn&& run_new, Fn&& run_legacy) {
  Result res;
  res.name = name;
  res.items = items;
  std::tie(res.new_ms, res.legacy_ms) =
      interleaved_median_ms(reps, run_new, run_legacy);
  return res;
}

// ---------------------------------------------------------------------------
// Page-metadata sweeps: the SoA bitmap table against the pre-migration
// array-of-structs layout, kept here verbatim so the comparison baseline
// cannot drift. The workloads are the two hot sweep shapes of the VMM:
// the reclaim policies' full-table present scan and the background writer's
// dirty-candidate scan.

namespace legacy_aos {

struct Pte {
  FrameNum frame = kNoFrame;
  SwapSlot slot = kNoSwapSlot;
  SimTime last_ref = 0;
  std::uint32_t epoch = 0;
  std::uint8_t age = 0;
  bool present = false;
  bool referenced = false;
  bool dirty = false;
  bool io_busy = false;
  bool ever_touched = false;
};

}  // namespace legacy_aos

/// Sparse residency pattern shared by both layouts: runs of 8 present pages
/// every 64 (a post-reclaim table is mostly holes), every fourth present
/// page dirty — the shape word-at-a-time scans are built for.
bool pattern_present(std::int64_t v) { return (v & 63) < 8; }
bool pattern_dirty(std::int64_t v) { return pattern_present(v) && (v & 3) == 0; }

Result page_scan_sweep(bool smoke, int reps) {
  Result res;
  res.name = "page_scan_sweep";
  const std::int64_t npages = smoke ? (1 << 18) : (1 << 20);
  const int sweeps = 8;
  res.items = npages * sweeps * 2;  // one present + one dirty sweep each

  PageTable pt(npages);
  std::vector<legacy_aos::Pte> aos(static_cast<std::size_t>(npages));
  for (std::int64_t v = 0; v < npages; ++v) {
    if (!pattern_present(v)) continue;
    Pte pte = pt.at(v);
    pte.set_present(true);
    pte.set_frame(v);
    pte.set_last_ref(v);
    auto& a = aos[static_cast<std::size_t>(v)];
    a.present = true;
    a.frame = v;
    a.last_ref = v;
    if (pattern_dirty(v)) {
      pte.set_dirty(true);
      a.dirty = true;
    }
  }

  res.new_ms = median_ms(reps, [&] {
    std::uint64_t sum = 0;
    for (int s = 0; s < sweeps; ++s) {
      for (VPage v = pt.next_present(0); v < npages;
           v = pt.next_present(v + 1)) {
        sum += static_cast<std::uint64_t>(pt.at(v).last_ref());
      }
      for (VPage v = pt.next_dirty_candidate(0); v < npages;
           v = pt.next_dirty_candidate(v + 1)) {
        sum += static_cast<std::uint64_t>(v);
      }
    }
    g_dispatched += sum;
  });
  res.legacy_ms = median_ms(reps, [&] {
    std::uint64_t sum = 0;
    for (int s = 0; s < sweeps; ++s) {
      for (std::int64_t v = 0; v < npages; ++v) {
        const auto& p = aos[static_cast<std::size_t>(v)];
        if (p.present) sum += static_cast<std::uint64_t>(p.last_ref);
      }
      for (std::int64_t v = 0; v < npages; ++v) {
        const auto& p = aos[static_cast<std::size_t>(v)];
        if (p.present && p.dirty && !p.io_busy) {
          sum += static_cast<std::uint64_t>(v);
        }
      }
    }
    g_dispatched += sum;
  });
  return res;
}

/// Zipf draws as the touch engine makes them, over CG.B's 4-node matrix
/// region (n = 26,127, theta 1.0): hash plus ZipfTable::rank against hash
/// plus the direct zipf_rank, alternating repetition by repetition. The
/// table is built before timing, as the process-wide memo keeps it across a
/// run's ops. Aborts if any rank differs; `mixed_bucket_share` is the share
/// of buckets (and of draws, which fall uniformly over buckets) that fall
/// back to zipf_rank.
Result zipf_rank_draws(bool smoke, int reps) {
  Result res;
  res.name = "zipf_rank";
  constexpr std::int64_t kPages = 26127;
  constexpr double kTheta = 1.0;
  constexpr std::uint64_t kSeed = 0x2F1B;
  const std::int64_t draws = smoke ? (1 << 20) : (1 << 23);
  const ZipfTable& table = zipf_table(kPages, kTheta);
  const double hn = table.hn();
  for (std::int64_t i = 0; i < draws; ++i) {
    const std::uint64_t h = touch_hash(kSeed, i);
    if (table.rank(h) != zipf_rank(h, kPages, kTheta, hn)) {
      std::fprintf(stderr, "FATAL: zipf_rank: the table and zipf_rank differ "
                           "at draw %lld\n", static_cast<long long>(i));
      std::exit(1);
    }
  }
  std::tie(res.new_ms, res.legacy_ms) = interleaved_median_ms(
      reps,
      [&] {
        std::int64_t sum = 0;
        for (std::int64_t i = 0; i < draws; ++i) {
          sum += table.rank(touch_hash(kSeed, i));
        }
        g_dispatched += static_cast<std::uint64_t>(sum);
      },
      [&] {
        std::int64_t sum = 0;
        for (std::int64_t i = 0; i < draws; ++i) {
          sum += zipf_rank(touch_hash(kSeed, i), kPages, kTheta, hn);
        }
        g_dispatched += static_cast<std::uint64_t>(sum);
      });
  res.items = draws;
  res.extra = static_cast<double>(table.mixed_buckets()) /
              static_cast<double>(std::int64_t{1} << table.bits());
  res.extra_name = "mixed_bucket_share";
  return res;
}

/// Fault storm through the real Vmm: one process twice the size of memory,
/// swept touch-by-touch so every miss takes the full fault path (alloc,
/// read-ahead, reclaim, event-queue round trips). Exercises the whole
/// allocation diet, not just the queue.
Result fault_storm(std::int64_t frames, std::int64_t sweeps, int reps) {
  Result res;
  res.name = "fault_storm";
  std::uint64_t events = 0;
  res.new_ms = median_ms(reps, [&] {
    Simulator sim;
    Disk disk(sim, DiskParams{.num_blocks = 1 << 22});
    SwapDevice swap(disk, 0, 1 << 22);
    VmmParams params;
    params.total_frames = frames;
    params.freepages_min = 64;
    params.freepages_low = 96;
    params.freepages_high = 128;
    Vmm vmm(sim, swap, params);
    const std::int64_t npages = frames * 2;
    const Pid pid = vmm.create_process(npages);
    auto& as = vmm.space(pid);

    // Self-scheduling sweep: touch pages in order; on a miss, fault and
    // resume the sweep from the event queue (exactly what the CPU executor
    // does, minus the compute cost model).
    std::int64_t touched = 0;
    const std::int64_t total = npages * sweeps;
    std::function<void()> step = [&] {
      while (touched < total) {
        const VPage v = touched % npages;
        if (vmm.touch(as, v, (touched & 7) == 0)) {
          ++touched;
          continue;
        }
        vmm.fault(pid, v, (touched & 7) == 0, [&] {
          ++touched;
          step();
        });
        return;
      }
      sim.stop();
    };
    sim.after(0, [&] { step(); });
    (void)sim.run();
    events = sim.events_dispatched();
    vmm.release_process(pid);
  });
  res.items = static_cast<std::int64_t>(events);
  res.extra = static_cast<double>(frames * 2 * sweeps);
  res.extra_name = "touches";
  return res;
}

/// One small fig7-style serial gang run end to end (build, run, collect) —
/// the unit every sweep multiplies.
Result fig7_small(double scale, int reps, bool scalar_touch) {
  Result res;
  res.name = "fig7_small_run";
  ExperimentConfig config;
  config.app = NpbApp::kIS;
  config.cls = NpbClass::kW;
  config.nodes = 1;
  config.instances = 2;
  config.node_memory_mb = 64.0;
  config.usable_memory_mb = 22.0;  // overcommitted: every switch pages
  config.quantum = 4 * kSecond;
  config.iterations_scale = scale;
  config.scalar_touch = scalar_touch;
  RunOutcome last;
  res.new_ms = median_ms(reps, [&] { last = run_gang(config); });
  res.items = static_cast<std::int64_t>(last.major_faults);
  res.extra = last.makespan_s();
  res.extra_name = "makespan_s";
  return res;
}

/// Rough total page touches of a config (per-rank cycle touches x ranks x
/// instances x iterations, plus the init sweeps) — the throughput unit of
/// the end-to-end benches.
std::int64_t estimate_touches(const ExperimentConfig& config) {
  const WorkloadSpec spec = npb_spec(config.app, config.cls);
  const auto npages = static_cast<double>(spec.footprint_pages(config.nodes));
  double per_cycle = 0.0;
  for (const auto& phase : spec.phases) {
    per_cycle += phase.touches_factor * phase.region_len * npages;
  }
  const double iterations =
      static_cast<double>(spec.iterations) * config.iterations_scale;
  const double ranks =
      static_cast<double>(config.nodes) * config.instances;
  return static_cast<std::int64_t>(ranks * (iterations * per_cycle + npages));
}

/// End-to-end macro bench: a small fig7-style (serial) or fig8-style
/// (parallel) gang run timed with the batched touch engine against the
/// scalar per-touch loop. The config is memory-adequate — after the init
/// sweep both instances stay resident — so host wall time is dominated by
/// the access hot loop, which is exactly the path the batched engine
/// replaces; the overcommitted shapes are covered by fig7_small above.
/// Aborts if the two engines disagree on any outcome counter: the speedup
/// is only meaningful while behaviour is bit-identical.
Result endtoend_fig(const char* name, int nodes, double scale, int reps) {
  Result res;
  res.name = name;
  ExperimentConfig config;
  config.app = NpbApp::kLU;  // strongly sequential: the common NPB shape
  config.cls = NpbClass::kW;
  config.nodes = nodes;
  config.instances = 2;
  config.node_memory_mb = 128.0;
  config.usable_memory_mb = 96.0;  // both instances fit once initialized
  config.quantum = 4 * kSecond;
  config.iterations_scale = scale;
  config.seed = 7;
  ExperimentConfig scalar_config = config;
  scalar_config.scalar_touch = true;
  RunOutcome batched;
  RunOutcome scalar;
  std::tie(res.new_ms, res.legacy_ms) = interleaved_median_ms(
      reps, [&] { batched = run_gang(config); },
      [&] { scalar = run_gang(scalar_config); });
  if (batched.makespan != scalar.makespan ||
      batched.pages_swapped_in != scalar.pages_swapped_in ||
      batched.pages_swapped_out != scalar.pages_swapped_out ||
      batched.major_faults != scalar.major_faults ||
      batched.false_evictions != scalar.false_evictions ||
      batched.switches != scalar.switches) {
    std::fprintf(stderr,
                 "FATAL: %s: batched and scalar engines diverged "
                 "(makespan %lld vs %lld)\n",
                 name, static_cast<long long>(batched.makespan),
                 static_cast<long long>(scalar.makespan));
    std::exit(1);
  }
  res.items = estimate_touches(config);
  res.extra = batched.makespan_s();
  res.extra_name = "makespan_s";
  return res;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void write_json(const std::string& path, const std::vector<Result>& results,
                bool smoke, int reps, int queue_reps,
                double schedule_pop_speedup, double endtoend_speedup) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"perf_substrate\",\n"
     << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
     << "  \"repetitions\": " << reps << ",\n"
     << "  \"queue_repetitions\": " << queue_reps << ",\n"
     << "  \"schedule_pop_speedup_vs_legacy\": "
     << json_number(schedule_pop_speedup) << ",\n"
     << "  \"endtoend_speedup\": " << json_number(endtoend_speedup) << ",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    os << "    {\"name\": \"" << r.name << "\", \"items\": " << r.items
       << ", \"wall_ms\": " << json_number(r.new_ms)
       << ", \"mitems_per_s\": " << json_number(r.mops(r.new_ms));
    if (r.legacy_ms >= 0.0) {
      os << ", \"legacy_wall_ms\": " << json_number(r.legacy_ms)
         << ", \"legacy_mitems_per_s\": " << json_number(r.mops(r.legacy_ms))
         << ", \"speedup\": " << json_number(r.speedup());
    }
    if (r.extra >= 0.0) {
      os << ", \"" << r.extra_name << "\": " << json_number(r.extra);
    }
    os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool scalar = false;
  double min_speedup = 0.0;
  double min_endtoend_speedup = 0.0;
  std::string out = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--scalar") == 0) {
      // Run the fig7 macro bench on the scalar per-touch path (the
      // pre-batching engine) for manual A/B comparisons.
      scalar = true;
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-endtoend-speedup") == 0 &&
               i + 1 < argc) {
      min_endtoend_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--scalar] [--min-speedup X] "
                   "[--min-endtoend-speedup X] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::int64_t n = smoke ? (1 << 14) : (1 << 17);
  const int reps = smoke ? 3 : 7;
  // The schedule/pop rows feed the --min-speedup gate, and one run takes a
  // few ms: enough repetitions keep one host hiccup from moving the ratio.
  // The zipf_rank row's runs are as short, so it takes as many.
  const int queue_reps = std::max(reps, 31);
  std::vector<Result> results;

  std::printf("perf_substrate (%s): %lld events/run, median of %d "
              "(queue rows: %d)\n\n",
              smoke ? "smoke" : "full", static_cast<long long>(n), reps,
              queue_reps);

  // Real runs keep the pending set small (one event per process plus
  // in-flight I/O), so the gate workload churns a bounded window.
  const std::int64_t depth = smoke ? (1 << 10) : (1 << 12);
  results.push_back(compare_queues(
      "schedule_pop_churn", n, queue_reps,
      std::function<void()>(
          [n, depth] { steady_state_churn<EventQueue>(n, depth); }),
      std::function<void()>(
          [n, depth] { steady_state_churn<legacy::EventQueue>(n, depth); })));
  results.push_back(compare_queues(
      "schedule_pop_bulk", n, queue_reps,
      std::function<void()>([n] { schedule_pop_bulk<EventQueue>(n); }),
      std::function<void()>(
          [n] { schedule_pop_bulk<legacy::EventQueue>(n); })));
  results.push_back(compare_queues(
      "schedule_cancel_pop", n, queue_reps,
      std::function<void()>([n] { schedule_cancel_pop<EventQueue>(n); }),
      std::function<void()>(
          [n] { schedule_cancel_pop<legacy::EventQueue>(n); })));
  results.push_back(compare_queues(
      "same_time_bursts", n, queue_reps,
      std::function<void()>([n] { same_time_bursts<EventQueue>(n); }),
      std::function<void()>(
          [n] { same_time_bursts<legacy::EventQueue>(n); })));

  results.push_back(page_scan_sweep(smoke, reps));
  results.push_back(zipf_rank_draws(smoke, queue_reps));
  results.push_back(
      fault_storm(smoke ? 2048 : 8192, smoke ? 2 : 4, smoke ? 2 : 3));
  results.push_back(fig7_small(smoke ? 0.25 : 0.5, smoke ? 1 : 3, scalar));

  // End-to-end macro section: batched touch engine vs the scalar loop on
  // fig7-style (serial) and fig8-style (2-node parallel) runs.
  results.push_back(
      endtoend_fig("endtoend_fig7", 1, smoke ? 0.5 : 1.0, smoke ? 7 : 9));
  results.push_back(
      endtoend_fig("endtoend_fig8", 2, smoke ? 0.5 : 1.0, smoke ? 7 : 9));

  for (const Result& r : results) {
    if (r.legacy_ms >= 0.0) {
      std::printf("%-22s %9.2f ms  (%6.2f Mitems/s)  legacy %9.2f ms  "
                  "speedup %.2fx%s\n",
                  r.name.c_str(), r.new_ms, r.mops(r.new_ms), r.legacy_ms,
                  r.speedup(),
                  r.extra >= 0.0 ? ("  " + std::string(r.extra_name) + "=" +
                                    json_number(r.extra))
                                       .c_str()
                                 : "");
    } else {
      std::printf("%-22s %9.2f ms  (%lld items%s%s)\n", r.name.c_str(),
                  r.new_ms, static_cast<long long>(r.items),
                  r.extra >= 0.0 ? ", " : "",
                  r.extra >= 0.0
                      ? (std::string(r.extra_name) + "=" + json_number(r.extra))
                            .c_str()
                      : "");
    }
  }

  const double gate = results[0].speedup();  // schedule_pop_churn
  // End-to-end gate: the worse of the fig7/fig8 macro speedups.
  double endtoend = -1.0;
  for (const Result& r : results) {
    if (r.name.rfind("endtoend_", 0) != 0) continue;
    const double s = r.speedup();
    if (endtoend < 0.0 || s < endtoend) endtoend = s;
  }
  write_json(out, results, smoke, reps, queue_reps, gate, endtoend);
  std::printf("\nwrote %s (schedule/pop speedup vs legacy queue: %.2fx, "
              "end-to-end batched-touch speedup: %.2fx)\n",
              out.c_str(), gate, endtoend);
  if (min_speedup > 0.0 && gate < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: schedule/pop speedup %.2fx below required %.2fx\n",
                 gate, min_speedup);
    return 1;
  }
  if (min_endtoend_speedup > 0.0 && endtoend < min_endtoend_speedup) {
    std::fprintf(stderr,
                 "FAIL: end-to-end speedup %.2fx below required %.2fx\n",
                 endtoend, min_endtoend_speedup);
    return 1;
  }
  return 0;
}
