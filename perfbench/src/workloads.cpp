#include "workloads.hpp"

#include <cstring>
#include <stdexcept>

#include "fault/fault_plan.hpp"

namespace perfbench {

using namespace apsim;

namespace {

/// Paper Figure 7 / Figure 8 shape: class B, two instances, 1 GB nodes with
/// part of the memory wired down, 5-minute quanta.
ExperimentConfig figure_config(NpbApp app, int nodes, double usable_mb,
                               std::uint64_t seed) {
  ExperimentConfig c;
  c.app = app;
  c.cls = NpbClass::kB;
  c.nodes = nodes;
  c.instances = 2;
  c.node_memory_mb = 1024.0;
  c.usable_memory_mb = usable_mb;
  c.quantum = 5 * kMinute;
  c.seed = seed;
  return c;
}

/// One app under orig, so/ao/ai/bg and batch.
void add_paper_triple(Workload& w, NpbApp app, const ExperimentConfig& base) {
  const std::string key(to_string(app));
  ExperimentConfig orig = base;
  orig.policy = PolicySet::original();
  ExperimentConfig adaptive = base;
  adaptive.policy = PolicySet::parse("so/ao/ai/bg");
  ExperimentConfig batch = base;
  batch.policy = PolicySet::original();
  batch.batch_mode = true;
  w.runs.push_back({key + "/orig", key, Role::kOrig, orig});
  w.runs.push_back({key + "/so/ao/ai/bg", key, Role::kAdaptive, adaptive});
  w.runs.push_back({key + "/batch", key, Role::kBatch, batch});
}

/// Figure 7: serial class B on one node, usable memory per app chosen so
/// two instances overcommit it (lightly for IS).
void serial_paging(Workload& w) {
  const std::pair<NpbApp, double> apps[] = {
      {NpbApp::kLU, 230.0}, {NpbApp::kMG, 750.0}, {NpbApp::kIS, 276.0}};
  for (const auto& [app, usable] : apps) {
    add_paper_triple(w, app, figure_config(app, 1, usable, w.seed));
  }
  w.paper_reduction_pct = {{"LU", 84.0}, {"MG", 93.0}, {"IS", 19.0}};
}

/// Figure 8 CG on four nodes: both jobs fit in memory, so nothing pages in.
void parallel_resident(Workload& w) {
  ExperimentConfig base = figure_config(NpbApp::kCG, 4, 350.0, w.seed);
  base.iterations_scale = 4.0;
  add_paper_triple(w, NpbApp::kCG, base);
}

/// Open Poisson stream of short one- and two-rank jobs from two tenants on
/// two nodes, run under every built-in scheduler policy. Arrivals outpace
/// the two nodes, so a backlog of a few dozen jobs builds up and the
/// policies' orderings show in the slowdowns. Memory is ample (200 MB usable
/// against 2-4 MB per rank): with policy_matrix's 22 MB nodes and 6-14 MB
/// ranks, matrix and dfrs fall into paging collapse on some arrival draws
/// and not on others, so host time and makespan would swing several-fold
/// from seed to seed. 240 jobs average out the arrival draw.
void open_stream(Workload& w) {
  ExperimentConfig base;
  base.nodes = 2;
  base.instances = 240;
  base.node_memory_mb = 256.0;
  base.usable_memory_mb = 200.0;
  base.quantum = kSecond / 2;
  base.arrival_process = "poisson";
  base.arrival_mean_s = 0.25;
  base.open_max_width = 2;
  base.open_min_pages = 512;
  base.open_max_pages = 1024;
  base.open_min_iterations = 30;
  base.open_max_iterations = 80;
  base.num_tenants = 2;
  base.deadline_slack = 3.0;
  base.horizon = 36000 * kSecond;
  base.seed = w.seed;
  for (const char* policy :
       {"matrix", "admission", "backfill", "gang-edf", "dfrs"}) {
    ExperimentConfig c = base;
    c.sched_policy = policy;
    w.runs.push_back({policy, "", Role::kStream, c});
  }
}

/// The two-node LU.W gang of examples/scenarios/chaos_recover.ini at half
/// length, with a compressed tier and dyn-thresh autotuning: node 1 crashes
/// at 20 s, both jobs restart from their 3 s checkpoints on node 0, and a
/// window of transient disk errors hits node 0 while it pages for both. One
/// run's host time moves by about 12% with the seed, so the workload runs
/// 32 copies seeded apart and averages the fault draw out.
void chaos_recover(Workload& w) {
  constexpr int kCopies = 32;
  for (int i = 0; i < kCopies; ++i) {
    ExperimentConfig c;
    c.app = NpbApp::kLU;
    c.cls = NpbClass::kW;
    c.nodes = 2;
    c.instances = 2;
    c.node_memory_mb = 64.0;
    c.usable_memory_mb = 22.0;
    c.quantum = 4 * kSecond;
    c.iterations_scale = 0.5;
    c.checkpoint_interval = 3 * kSecond;
    c.tier_mb = 4.0;
    c.autotune = true;
    c.autotune_controller = "dyn-thresh";
    c.faults.add(FaultSpec::parse("node_crash node=1 at_s=20"));
    c.faults.add(
        FaultSpec::parse("disk_transient node=0 start_s=30 end_s=60 p=0.01"));
    c.seed = w.seed * 1000 + static_cast<std::uint64_t>(i);
    w.runs.push_back({"chaos#" + std::to_string(i), "", Role::kChaos, c});
  }
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.seed = seed;
  if (name == "serial_paging") {
    serial_paging(w);
  } else if (name == "parallel_resident") {
    parallel_resident(w);
  } else if (name == "open_stream") {
    open_stream(w);
  } else if (name == "chaos_recover") {
    chaos_recover(w);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  for (auto& run : w.runs) {
    run.config.label = w.name + ":" + run.name;
    run.config.validate();
  }
  return w;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

std::uint64_t outcome_digest(const RunOutcome& o) {
  Fnv f;
  f.add(o.makespan);
  f.add(o.jobs.size());
  for (const auto& j : o.jobs) {
    f.add(j.completion);
    f.add(j.failed);
    f.add(j.recovered);
    f.add(j.major_faults);
    f.add(j.minor_faults);
    f.add(j.pages_swapped_in);
    f.add(j.pages_swapped_out);
    f.add(j.false_evictions);
    f.add(j.cpu_time);
    f.add(j.fault_wait);
    f.add(j.comm_wait);
    f.add(j.arrival);
    f.add(j.slowdown);
  }
  for (auto v : {o.pages_swapped_in, o.pages_swapped_out, o.major_faults,
                 o.false_evictions, o.pages_recorded, o.pages_replayed,
                 o.bg_pages_written, o.tier_pool_hits, o.tier_pool_misses,
                 o.tier_pages_stored, o.tier_bytes_stored,
                 o.tier_writeback_pages, o.io_errors, o.io_retries,
                 o.pages_unrecoverable, o.signal_retransmits,
                 o.checkpoints_taken, o.checkpoint_failures, o.ckpt_io_retries,
                 o.bytes_checkpointed, o.pages_staged, o.lost_pages_recovered,
                 o.lost_pages_fatal, o.disk_blocks_written, o.disk_blocks_read,
                 o.migration_bytes, o.autotune_ticks, o.autotune_adjustments,
                 o.autotune_policy_switches}) {
    f.add(v);
  }
  for (int v : {o.switches, o.jobs_failed, o.nodes_failed, o.jobs_recovered,
                o.restarts_failed, o.jobs_migrated}) {
    f.add(v);
  }
  for (double v : {o.lost_work_ms, o.mean_slowdown, o.p99_slowdown}) f.add(v);
  return f.h;
}

}  // namespace perfbench
