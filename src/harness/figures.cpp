#include "harness/figures.hpp"

#include <cassert>
#include <map>
#include <sstream>

#include "cluster/cluster.hpp"
#include "gang/gang_scheduler.hpp"
#include "metrics/trace.hpp"
#include "workloads/generator.hpp"

namespace apsim {

void print_figure(std::ostream& os, const FigureResult& figure) {
  os << "== " << figure.title << " ==\n\n";
  for (const auto& panel : figure.panels) {
    os << panel.title << '\n';
    panel.table.print(os);
    os << '\n';
  }
  if (!figure.notes.empty()) os << figure.notes << '\n';
}

ExperimentConfig figure_base(NpbApp app, int nodes, double usable_mb,
                             PolicySet policy) {
  ExperimentConfig config;
  config.app = app;
  config.cls = NpbClass::kB;
  config.nodes = nodes;
  config.instances = 2;
  config.node_memory_mb = 1024.0;
  config.usable_memory_mb = usable_mb;
  config.policy = policy;
  config.quantum = 5 * kMinute;
  config.seed = 42;
  return config;
}

double fig7_usable_mb(NpbApp app) {
  // Per-app usable memory for the serial class-B experiments (paper: "some
  // memory wired down with mlock"; exact amounts unpublished, chosen here so
  // that two instances overcommit memory in proportion to the app's
  // footprint, lightly for IS).
  switch (app) {
    case NpbApp::kLU: return 230.0;  // footprint 190
    case NpbApp::kSP: return 400.0;  // footprint 330
    case NpbApp::kCG: return 610.0;  // footprint 420
    case NpbApp::kIS: return 276.0;  // footprint 150: light overcommit
    case NpbApp::kMG: return 750.0;  // footprint 460
  }
  return 512.0;
}

double fig8_usable_mb(NpbApp app, int nodes) {
  assert(nodes == 2 || nodes == 4);
  if (nodes == 2) {
    switch (app) {
      case NpbApp::kLU: return 160.0;  // per-proc ~103
      case NpbApp::kCG: return 420.0;  // per-proc ~227
      case NpbApp::kIS: return 110.0;  // per-proc ~81
      case NpbApp::kMG: return 330.0;  // per-proc ~248
      case NpbApp::kSP: return 240.0;  // (not in the paper's 2-machine set)
    }
  } else {
    switch (app) {
      case NpbApp::kLU: return 88.0;   // per-proc ~51
      case NpbApp::kSP: return 120.0;  // per-proc ~89
      case NpbApp::kCG: return 350.0;  // per-proc ~113: both jobs fit -> no paging
      case NpbApp::kIS: return 56.0;   // per-proc ~41
      case NpbApp::kMG: return 170.0;  // (not in the paper's 4-machine set)
    }
  }
  return 256.0;
}

namespace {

const PolicySet kAllPolicies = PolicySet::all();

[[nodiscard]] std::string app_name(NpbApp app) {
  return std::string(to_string(app));
}

/// Index outcomes of a mixed gang/batch config list by label.
[[nodiscard]] std::map<std::string, RunOutcome> run_indexed(
    std::vector<ExperimentConfig> configs, unsigned threads) {
  auto outcomes = parallel_map<RunOutcome>(
      configs, [](const ExperimentConfig& c) { return run_config(c); },
      threads);
  std::map<std::string, RunOutcome> by_label;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    by_label.emplace(configs[i].label, std::move(outcomes[i]));
  }
  return by_label;
}

}  // namespace

// ---------------------------------------------------------------------------
// Figure 7: serial benchmarks

FigureResult run_fig7(unsigned threads, bool scalar_touch) {
  const NpbApp apps[] = {NpbApp::kLU, NpbApp::kSP, NpbApp::kCG, NpbApp::kIS,
                         NpbApp::kMG};
  // Paper-reported paging reductions with so/ao/ai/bg (Figure 7c).
  const std::map<NpbApp, double> paper_reduction = {
      {NpbApp::kLU, 0.84}, {NpbApp::kSP, 0.78}, {NpbApp::kCG, 0.68},
      {NpbApp::kIS, 0.19}, {NpbApp::kMG, 0.93}};

  std::vector<ExperimentConfig> configs;
  for (NpbApp app : apps) {
    const double usable = fig7_usable_mb(app);
    auto orig = figure_base(app, 1, usable, PolicySet::original());
    orig.label = app_name(app) + "/orig";
    auto adaptive = figure_base(app, 1, usable, kAllPolicies);
    adaptive.label = app_name(app) + "/all";
    auto batch = figure_base(app, 1, usable, PolicySet::original());
    batch.batch_mode = true;
    batch.label = app_name(app) + "/batch";
    configs.push_back(orig);
    configs.push_back(adaptive);
    configs.push_back(batch);
  }
  for (auto& config : configs) config.scalar_touch = scalar_touch;
  auto results = run_indexed(std::move(configs), threads);

  FigureResult figure;
  figure.title =
      "Figure 7: serial NPB class B, 2 instances, 1 node, 5 min quanta";

  Table completion({"app", "orig (s)", "so/ao/ai/bg (s)", "batch (s)"});
  Table overhead({"app", "overhead orig", "overhead so/ao/ai/bg"});
  Table reduction({"app", "paging reduction", "paper"});
  for (NpbApp app : apps) {
    const auto& orig = results.at(app_name(app) + "/orig");
    const auto& adaptive = results.at(app_name(app) + "/all");
    const auto& batch = results.at(app_name(app) + "/batch");
    completion.add_row({app_name(app), Table::fmt(mean_completion_s(orig), 0),
                        Table::fmt(mean_completion_s(adaptive), 0),
                        Table::fmt(mean_completion_s(batch), 0)});
    const double ov_orig = switching_overhead(orig.makespan, batch.makespan);
    const double ov_adpt =
        switching_overhead(adaptive.makespan, batch.makespan);
    overhead.add_row({app_name(app), Table::pct(ov_orig), Table::pct(ov_adpt)});
    reduction.add_row({app_name(app),
                       Table::pct(paging_reduction(ov_adpt, ov_orig)),
                       Table::pct(paper_reduction.at(app))});
  }
  figure.panels.push_back({"(a) job completion time", completion});
  figure.panels.push_back({"(b) job switching overhead", overhead});
  figure.panels.push_back({"(c) reduction in paging overhead", reduction});
  figure.notes =
      "Paper (b): overhead >= ~50% for SP/CG/IS/MG and 26% for LU under the\n"
      "original kernel, dropping to 5%-37% with all adaptive policies.";
  return figure;
}

// ---------------------------------------------------------------------------
// Figure 8: parallel benchmarks

FigureResult run_fig8(unsigned threads, bool scalar_touch) {
  struct Entry {
    NpbApp app;
    int nodes;
    double paper_reduction;  // < 0: not reported
  };
  const Entry entries[] = {
      {NpbApp::kLU, 2, 0.61}, {NpbApp::kCG, 2, 0.38},
      {NpbApp::kIS, 2, 0.72}, {NpbApp::kMG, 2, -1.0},
      {NpbApp::kLU, 4, 0.43}, {NpbApp::kSP, 4, 0.70},
      {NpbApp::kCG, 4, 0.07}, {NpbApp::kIS, 4, 0.57},
  };

  std::vector<ExperimentConfig> configs;
  for (const auto& entry : entries) {
    const double usable = fig8_usable_mb(entry.app, entry.nodes);
    const std::string key =
        app_name(entry.app) + "@" + std::to_string(entry.nodes);
    auto orig = figure_base(entry.app, entry.nodes, usable,
                            PolicySet::original());
    auto adaptive = figure_base(entry.app, entry.nodes, usable, kAllPolicies);
    auto batch = figure_base(entry.app, entry.nodes, usable,
                             PolicySet::original());
    batch.batch_mode = true;
    // Run enough timesteps that each parallel job spans several quanta, as
    // the paper's parallel runs did (dividing the serial iteration count by
    // the rank count would end inside the first quantum).
    orig.iterations_scale = entry.nodes;
    adaptive.iterations_scale = entry.nodes;
    batch.iterations_scale = entry.nodes;
    if (entry.app == NpbApp::kSP && entry.nodes == 4) {
      // SP needs a 7-minute quantum on 4 machines (paper 4.2).
      orig.quantum_override = 7 * kMinute;
      adaptive.quantum_override = 7 * kMinute;
    }
    orig.label = key + "/orig";
    adaptive.label = key + "/all";
    batch.label = key + "/batch";
    configs.push_back(orig);
    configs.push_back(adaptive);
    configs.push_back(batch);
  }
  for (auto& config : configs) config.scalar_touch = scalar_touch;
  auto results = run_indexed(std::move(configs), threads);

  FigureResult figure;
  figure.title = "Figure 8: parallel NPB class B, 2 instances, 2 and 4 nodes";
  for (int nodes : {2, 4}) {
    Table completion({"app", "orig (s)", "so/ao/ai/bg (s)", "batch (s)"});
    Table overhead({"app", "overhead orig", "overhead so/ao/ai/bg"});
    Table reduction({"app", "paging reduction", "paper"});
    for (const auto& entry : entries) {
      if (entry.nodes != nodes) continue;
      const std::string key =
          app_name(entry.app) + "@" + std::to_string(entry.nodes);
      const auto& orig = results.at(key + "/orig");
      const auto& adaptive = results.at(key + "/all");
      const auto& batch = results.at(key + "/batch");
      completion.add_row({app_name(entry.app),
                          Table::fmt(mean_completion_s(orig), 0),
                          Table::fmt(mean_completion_s(adaptive), 0),
                          Table::fmt(mean_completion_s(batch), 0)});
      const double ov_orig =
          switching_overhead(orig.makespan, batch.makespan);
      const double ov_adpt =
          switching_overhead(adaptive.makespan, batch.makespan);
      overhead.add_row(
          {app_name(entry.app), Table::pct(ov_orig), Table::pct(ov_adpt)});
      reduction.add_row({app_name(entry.app),
                         Table::pct(paging_reduction(ov_adpt, ov_orig)),
                         entry.paper_reduction >= 0
                             ? Table::pct(entry.paper_reduction)
                             : "(graph only)"});
    }
    const std::string suffix = " (" + std::to_string(nodes) + " machines)";
    figure.panels.push_back({"(a/d) job completion time" + suffix, completion});
    figure.panels.push_back({"(b/e) job switching overhead" + suffix, overhead});
    figure.panels.push_back({"(c/f) reduction in paging overhead" + suffix,
                             reduction});
  }
  figure.notes =
      "Paper: SP runs with a 7-minute quantum on 4 machines; CG on 4 machines\n"
      "fits in memory and shows almost no paging to reduce.";
  return figure;
}

// ---------------------------------------------------------------------------
// Figure 9: LU mechanism ablation

FigureResult run_fig9(unsigned threads) {
  struct Setup {
    const char* name;
    int nodes;
    double usable_mb;
    double paper_reduction_all;  // so/ao/ai/bg vs orig (Figure 9c)
  };
  const Setup setups[] = {
      // Memory per setup is stressed harder than Figure 8 (the paper notes
      // different input sizes / locking were used; its Figure 9 shows 55-75%
      // original overhead for the parallel runs).
      {"serial", 1, 230.0, 0.83},
      {"2 machines", 2, 115.0, 0.61},
      {"4 machines", 4, 58.0, 0.71},
  };
  const char* combos[] = {"orig", "ai", "so", "so/ao", "so/ao/bg",
                          "so/ao/ai/bg"};

  std::vector<ExperimentConfig> configs;
  for (const auto& setup : setups) {
    for (const char* combo : combos) {
      auto config = figure_base(NpbApp::kLU, setup.nodes, setup.usable_mb,
                                PolicySet::parse(combo));
      config.iterations_scale = setup.nodes;
      config.label = std::string(setup.name) + "/" + combo;
      configs.push_back(config);
    }
    auto batch = figure_base(NpbApp::kLU, setup.nodes, setup.usable_mb,
                             PolicySet::original());
    batch.iterations_scale = setup.nodes;
    batch.batch_mode = true;
    batch.label = std::string(setup.name) + "/batch";
    configs.push_back(batch);
  }
  auto results = run_indexed(std::move(configs), threads);

  FigureResult figure;
  figure.title = "Figure 9: LU, effect of each adaptive paging mechanism";

  Table completion({"policy", "serial (s)", "2 machines (s)", "4 machines (s)"});
  Table overhead({"policy", "serial", "2 machines", "4 machines"});
  Table reduction({"policy", "serial", "2 machines", "4 machines"});
  std::map<std::string, double> orig_overhead;
  for (const auto& setup : setups) {
    const auto& orig = results.at(std::string(setup.name) + "/orig");
    const auto& batch = results.at(std::string(setup.name) + "/batch");
    orig_overhead[setup.name] =
        switching_overhead(orig.makespan, batch.makespan);
  }
  {
    std::vector<std::string> row{"batch"};
    for (const auto& setup : setups) {
      row.push_back(Table::fmt(
          mean_completion_s(results.at(std::string(setup.name) + "/batch")),
          0));
    }
    completion.add_row(std::move(row));
  }
  for (const char* combo : combos) {
    std::vector<std::string> crow{combo};
    std::vector<std::string> orow{combo};
    std::vector<std::string> rrow{combo};
    for (const auto& setup : setups) {
      const auto& run = results.at(std::string(setup.name) + "/" + combo);
      const auto& batch = results.at(std::string(setup.name) + "/batch");
      const double ov = switching_overhead(run.makespan, batch.makespan);
      crow.push_back(Table::fmt(mean_completion_s(run), 0));
      orow.push_back(Table::pct(ov));
      rrow.push_back(Table::pct(paging_reduction(ov, orig_overhead[setup.name])));
    }
    completion.add_row(std::move(crow));
    overhead.add_row(std::move(orow));
    reduction.add_row(std::move(rrow));
  }
  {
    std::vector<std::string> paper_row{"paper (so/ao/ai/bg)"};
    for (const auto& setup : setups) {
      paper_row.push_back(Table::pct(setup.paper_reduction_all));
    }
    reduction.add_row(std::move(paper_row));
  }
  figure.panels.push_back({"(a) completion time", completion});
  figure.panels.push_back({"(b) paging overhead", overhead});
  figure.panels.push_back({"(c) reduction in paging overhead", reduction});
  figure.notes =
      "Paper: adaptive page-in and selective page-out are individually the\n"
      "strongest mechanisms (>65% reduction each); the full combination\n"
      "reaches 83%/61%/71% for serial/2-machine/4-machine runs.";
  return figure;
}

// ---------------------------------------------------------------------------
// Figure 6: paging-activity traces

FigureResult run_fig6(unsigned threads) {
  const char* combos[] = {"orig", "so", "so/ao", "so/ao/ai/bg"};
  std::vector<ExperimentConfig> configs;
  for (const char* combo : combos) {
    ExperimentConfig config;
    config.app = NpbApp::kLU;
    config.cls = NpbClass::kC;
    config.nodes = 4;
    config.instances = 2;
    config.usable_memory_mb = 350.0;
    config.policy = PolicySet::parse(combo);
    config.quantum = 5 * kMinute;
    config.capture_traces = true;
    config.horizon = 50 * kMinute;  // the paper plots the first 50 minutes
    config.seed = 42;
    config.label = combo;
    configs.push_back(config);
  }
  auto results = run_indexed(std::move(configs), threads);

  FigureResult figure;
  figure.title =
      "Figure 6: paging traces, 2x LU class C on 4 machines (350 MB, 300 s "
      "quanta, first 50 min)";

  Table summary({"policy", "pages in", "pages out",
                 "in-burst conc. (top 30s)", "out-burst conc. (top 30s)"});
  std::ostringstream notes;
  for (const char* combo : combos) {
    const auto& run = results.at(combo);
    assert(!run.traces.empty());
    const auto& trace = run.traces.front();  // node 0, as in the paper's plot
    summary.add_row(
        {combo, Table::fmt(trace.pages_in.total(), 0),
         Table::fmt(trace.pages_out.total(), 0),
         Table::pct(burst_concentration(trace.pages_in, 30)),
         Table::pct(burst_concentration(trace.pages_out, 30))});
    AsciiChartOptions chart;
    chart.columns = 100;
    chart.rows = 6;
    chart.t_end = 50 * kMinute;
    notes << "--- policy " << combo << " (node 0) ---\n"
          << render_ascii_trace(trace, chart) << '\n';
  }
  figure.panels.push_back(
      {"trace summary per policy (node 0)", summary});
  figure.notes = notes.str() +
                 "Burst concentration = share of paging volume inside the 30 "
                 "busiest seconds;\nadaptive policies compact paging into "
                 "switch-time bursts (paper Figure 1/6).";
  return figure;
}

// ---------------------------------------------------------------------------
// Section 1 motivation (Moreira et al.)

namespace {

/// One gang-scheduled run of three 45 MB sweep jobs on a single machine
/// with the given usable memory; returns the mean job completion (s).
[[nodiscard]] double run_moreira(double memory_mb) {
  NodeParams node;
  node.vmm.total_frames = mb_to_pages(memory_mb);
  node.wired_mb = 36.0;  // OS, daemons, buffers — as on the paper's nodes
  node.swap_slots = mb_to_pages(2048.0);
  node.disk.num_blocks = node.swap_slots;
  Cluster cluster(1, node);

  ExperimentConfig config;
  config.quantum = 10 * kSecond;
  GangScheduler scheduler(cluster, config.make_gang_params());

  std::vector<std::unique_ptr<Process>> processes;
  constexpr int kJobs = 3;
  for (int j = 0; j < kJobs; ++j) {
    Job& job = scheduler.create_job("job" + std::to_string(j));
    SweepOptions sweep;
    sweep.pages = mb_to_pages(45.0);
    sweep.iterations = 400;  // each job spans many quanta
    sweep.compute_per_touch = 60 * kMicrosecond;
    const Pid pid = cluster.node(0).vmm().create_process(sweep.pages);
    auto process = std::make_unique<Process>("job" + std::to_string(j), pid,
                                             make_sweep_program(sweep));
    cluster.node(0).cpu().attach(*process);
    job.add_process(0, *process);
    processes.push_back(std::move(process));
  }
  scheduler.start();
  const bool finished = cluster.sim().run_until(
      [&scheduler] { return scheduler.all_finished(); },
      200 * 3600 * kSecond);
  if (!finished) return -1.0;
  double sum = 0.0;
  for (const auto& job : scheduler.jobs()) {
    sum += to_seconds(job->finished_at());
  }
  return sum / kJobs;
}

}  // namespace

FigureResult run_motivation(unsigned /*threads*/) {
  const double small = run_moreira(128.0);
  const double large = run_moreira(256.0);

  FigureResult figure;
  figure.title =
      "Section 1 motivation (Moreira et al.): 3 jobs x 45 MB, 128 vs 256 MB";
  Table table({"memory", "avg completion (s)", "vs 256 MB"});
  table.add_row({"256 MB", Table::fmt(large, 0), "1.0x"});
  table.add_row({"128 MB", Table::fmt(small, 0),
                 Table::fmt(small / large, 1) + "x"});
  figure.panels.push_back({"average job completion", table});
  figure.notes =
      "Paper reports ~3.5x slower average completion on the 128 MB system;\n"
      "the ratio above should be well above 1 and of that order.";
  return figure;
}

}  // namespace apsim
