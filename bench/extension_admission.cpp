// Extension: memory-aware admission control (Batat & Feitelson, cited in
// the paper's related work) vs adaptive paging. Admission control refuses
// to timeshare jobs whose combined working sets overcommit memory — great
// throughput, but a short job arriving next to a long one waits for the
// whole long job. Adaptive paging keeps the timesharing (responsiveness)
// while removing most of its paging cost. One long LU job plus one short
// IS-sized job on one node.

#include <cstdio>

#include "cluster/cluster.hpp"
#include "gang/gang_scheduler.hpp"
#include "metrics/table.hpp"
#include "workloads/npb.hpp"

namespace {

using namespace apsim;

struct Result {
  double short_completion_s = 0.0;
  double long_completion_s = 0.0;
  double makespan_s = 0.0;
};

Result run(const PolicySet& policy, bool admission, bool batch) {
  NodeParams node;
  node.vmm.total_frames = mb_to_pages(1024.0);
  node.wired_mb = 1024.0 - 230.0;
  node.swap_slots = mb_to_pages(1024.0);
  node.disk.num_blocks = node.swap_slots;
  Cluster cluster(1, node);

  const WorkloadSpec long_spec = npb_spec(NpbApp::kLU, NpbClass::kB);
  WorkloadSpec short_spec = npb_spec(NpbApp::kIS, NpbClass::kB);

  std::vector<std::unique_ptr<Process>> procs;
  auto add = [&](auto& scheduler, const char* name, const WorkloadSpec& spec,
                 double iterations_scale) -> Job& {
    Job& job = scheduler.create_job(name);
    NpbBuildOptions options;
    options.iterations_scale = iterations_scale;
    const Pid pid =
        cluster.node(0).vmm().create_process(spec.footprint_pages(1));
    procs.push_back(std::make_unique<Process>(name, pid,
                                              build_npb_program(spec, options)));
    cluster.node(0).cpu().attach(*procs.back());
    job.add_process(0, *procs.back());
    job.declared_ws_pages = spec.expected_ws_pages(1);
    return job;
  };

  Result result;
  if (batch) {
    BatchRunner runner(cluster);
    add(runner, "long-LU", long_spec, 1.0);
    add(runner, "short-IS", short_spec, 0.3);
    runner.start();
    cluster.sim().run_until([&] { return runner.all_finished(); },
                            24 * 3600 * kSecond);
    result.long_completion_s = to_seconds(runner.jobs()[0]->finished_at());
    result.short_completion_s = to_seconds(runner.jobs()[1]->finished_at());
    result.makespan_s = to_seconds(runner.makespan());
  } else {
    GangParams params;
    params.quantum = 2 * kMinute;
    params.pager.policy = policy;
    params.sched_policy = admission ? "admission" : "matrix";
    GangScheduler scheduler(cluster, params);
    add(scheduler, "long-LU", long_spec, 1.0);
    add(scheduler, "short-IS", short_spec, 0.3);
    scheduler.start();
    cluster.sim().run_until([&] { return scheduler.all_finished(); },
                            24 * 3600 * kSecond);
    result.long_completion_s = to_seconds(scheduler.jobs()[0]->finished_at());
    result.short_completion_s = to_seconds(scheduler.jobs()[1]->finished_at());
    result.makespan_s = to_seconds(scheduler.makespan());
  }
  return result;
}

}  // namespace

int main() {
  std::printf("Admission control vs adaptive paging: long LU.B + short IS job "
              "on one node, 230 MB usable, 2 min quanta\n\n");

  const Result batch = run(apsim::PolicySet::original(), false, true);
  const Result admission = run(apsim::PolicySet::original(), true, false);
  const Result gang_orig = run(apsim::PolicySet::original(), false, false);
  const Result gang_adaptive = run(apsim::PolicySet::all(), false, false);

  apsim::Table table({"scheduler", "short-job completion (s)",
                      "long-job completion (s)", "makespan (s)"});
  auto row = [&](const char* name, const Result& r) {
    table.add_row({name, apsim::Table::fmt(r.short_completion_s, 0),
                   apsim::Table::fmt(r.long_completion_s, 0),
                   apsim::Table::fmt(r.makespan_s, 0)});
  };
  row("batch (run-to-completion)", batch);
  row("gang + admission control", admission);
  row("gang, original paging", gang_orig);
  row("gang, adaptive so/ao/ai/bg", gang_adaptive);
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape check: admission control serializes the jobs (short job waits "
      "for the long\none), matching batch; gang scheduling gets the short "
      "job out early, and adaptive\npaging keeps that responsiveness at a "
      "fraction of the original paging cost.\n");
  return 0;
}
