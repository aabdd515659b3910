// The repository benchmark binary. Runs one workload from a seed and writes
// its metrics as JSON to the file named by --out, so that nothing the
// library logs on stdout or stderr can mix with them.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  --out PATH
//
// --trace 0 times as many whole passes over the workload's runs through the
// public run_config entry point as fit in S seconds (at least one) and
// reports the end-to-end metrics (medians over passes). --trace 1 runs every
// config once through run_config and once through the traced assembly
// (traced.hpp), checks that both give the same outcome, and reports
// per-layer metrics.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out;
};

struct RunRecord {
  std::string name;
  std::vector<double> host_s;
  apsim::RunOutcome outcome;  ///< first pass
  std::uint64_t digest = 0;
  RunVerdict verdict;
};

struct Report {
  int passes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<Metric> model;
  std::vector<RunRecord> runs;
};

void note(Report& report, RunRecord& rec, const RunVerdict& v) {
  ++report.attempted;
  if (!v.failed()) return;
  ++report.failed;
  report.failures.push_back(rec.name + ": " + v.describe());
  rec.verdict.horizon |= v.horizon;
  rec.verdict.lost_job |= v.lost_job;
  rec.verdict.digest_mismatch |= v.digest_mismatch;
}

/// The simulated (model) metrics of a workload, from one outcome per run.
/// Runs that failed contribute nothing; in particular a run that stopped at
/// its horizon has no makespan and is never summed as 0.
std::vector<Metric> model_metrics(const Workload& w,
                                  const std::vector<RunRecord>& runs) {
  std::vector<Metric> m;
  double makespan = 0.0;
  double lost_work = 0.0;
  std::map<std::string, AppMakespans> apps;
  std::vector<std::vector<double>> slowdowns;
  bool have_chaos = false;
  bool have_stream = false;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& spec = w.runs[i];
    const auto& o = runs[i].outcome;
    if (runs[i].verdict.failed()) continue;
    const double s = o.makespan_s();
    switch (spec.role) {
      case Role::kOrig: apps[spec.app].orig_s = s; break;
      case Role::kAdaptive: apps[spec.app].adaptive_s = s; break;
      case Role::kBatch: apps[spec.app].batch_s = s; break;
      case Role::kStream: {
        have_stream = true;
        std::vector<double> per_job;
        for (const auto& j : o.jobs) per_job.push_back(j.slowdown);
        slowdowns.push_back(std::move(per_job));
        break;
      }
      case Role::kChaos:
        have_chaos = true;
        lost_work += o.lost_work_ms / 1000.0;
        break;
    }
    if (spec.role != Role::kBatch) makespan += s;
  }
  m.push_back({"makespan_s", makespan, "s"});
  if (!apps.empty()) {
    std::vector<AppMakespans> list;
    for (auto& [app, a] : apps) {
      for (const auto& [ref_app, ref] : w.paper_reduction_pct) {
        if (ref_app == app) a.paper_reduction_pct = ref;
      }
      list.push_back(a);
    }
    const PaperScore score = score_against_paper(list);
    m.push_back({"switch_overhead_pct", score.switch_overhead_pct, "%"});
    if (!w.paper_reduction_pct.empty()) {
      m.push_back({"paging_reduction_pct", score.paging_reduction_pct, "%"});
      m.push_back({"paper_err_pp", score.paper_err_pp, "pp"});
    }
  }
  if (have_stream) {
    const PooledSlowdown pooled = pool_slowdowns(slowdowns);
    m.push_back({"slowdown_mean", pooled.mean, "ratio"});
    m.push_back({"slowdown_p99", pooled.p99.value, "ratio"});
    m.push_back({"slowdown.n", static_cast<double>(pooled.p99.samples),
                 "count"});
  }
  if (have_chaos) m.push_back({"lost_work_s", lost_work, "s"});
  return m;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Tracing off: set-up passes, then as many whole measured passes as fit in
/// the time budget (at least one).
Report run_untraced(const Workload& w, double budget_s) {
  Report report;
  // At least five set-up passes, more while they take under a second, so
  // the millisecond-scale set-up of small workloads still gets a stable
  // median.
  std::vector<double> setup_s;
  const auto setup_begin = Clock::now();
  while (setup_s.size() < 5 ||
         (seconds_since(setup_begin) < 1.0 && setup_s.size() < 200)) {
    double sum = 0.0;
    for (const auto& spec : w.runs) {
      apsim::ExperimentConfig c = spec.config;
      c.horizon = 1;  // build everything, dispatch nothing past t = 1 ns
      const auto start = Clock::now();
      (void)apsim::run_config(c);
      sum += seconds_since(start);
    }
    setup_s.push_back(sum);
  }

  report.runs.resize(w.runs.size());
  std::vector<double> pass_wall;
  std::vector<double> pass_max;
  const auto begin = Clock::now();
  while (report.passes == 0 ||
         (seconds_since(begin) + pass_wall.back() <= budget_s &&
          report.passes < 1000)) {
    double wall = 0.0;
    double slowest = 0.0;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
      RunRecord& rec = report.runs[i];
      const auto start = Clock::now();
      apsim::RunOutcome out = apsim::run_config(w.runs[i].config);
      const double host = seconds_since(start);
      const std::uint64_t digest = outcome_digest(out);
      if (report.passes == 0) {
        rec.name = w.runs[i].name;
        rec.digest = digest;
        rec.outcome = std::move(out);
      }
      const auto& first = rec.outcome;
      note(report, rec,
           classify_run(first.makespan, first.jobs_failed, digest, rec.digest));
      rec.host_s.push_back(host);
      wall += host;
      slowest = std::max(slowest, host);
    }
    pass_wall.push_back(wall);
    pass_max.push_back(slowest);
    ++report.passes;
  }

  report.metrics = {
      {"wall_s", median(pass_wall), "s"},
      {"run_s.max", median(pass_max), "s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  report.model = model_metrics(w, report.runs);
  return report;
}

/// Tracing on: each config once untraced and once traced; the two outcomes
/// must agree exactly.
Report run_traced(const Workload& w) {
  Report report;
  report.passes = 1;
  report.runs.resize(w.runs.size());
  TracedRuns tracing;
  double untraced_s = 0.0;
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    RunRecord& rec = report.runs[i];
    rec.name = w.runs[i].name;
    const auto start = Clock::now();
    rec.outcome = apsim::run_config(w.runs[i].config);
    const double host = seconds_since(start);
    untraced_s += host;
    rec.host_s.push_back(host);
    rec.digest = outcome_digest(rec.outcome);
    const apsim::RunOutcome traced = tracing.run(w.runs[i].config);
    RunVerdict v = classify_run(rec.outcome.makespan, rec.outcome.jobs_failed,
                                outcome_digest(traced), rec.digest);
    note(report, rec, v);
  }
  report.metrics = tracing.metrics(untraced_s);
  report.model = model_metrics(w, report.runs);
  return report;
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void json_metrics(std::ostream& os, const std::vector<Metric>& metrics) {
  os << '[';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"name\": ";
    json_string(os, metrics[i].name);
    os << ", \"value\": ";
    json_number(os, metrics[i].value);
    os << ", \"unit\": ";
    json_string(os, metrics[i].unit);
    os << '}';
  }
  os << ']';
}

void write_report(std::ostream& os, const Options& opt, const Report& r) {
  os << "{\"workload\": ";
  json_string(os, opt.workload);
  os << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
     << ", \"passes\": " << r.passes << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) os << ", ";
    json_string(os, r.failures[i]);
  }
  os << "],\n \"build\": {\"compiler\": ";
  json_string(os, PERFBENCH_COMPILER);
  os << ", \"build_type\": ";
  json_string(os, PERFBENCH_BUILD_TYPE);
  os << ", \"flags\": ";
  json_string(os, PERFBENCH_FLAGS);
  os << "},\n \"metrics\": ";
  json_metrics(os, r.metrics);
  os << ",\n \"model\": ";
  json_metrics(os, r.model);
  os << ",\n \"runs\": [";
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    const RunRecord& rec = r.runs[i];
    if (i > 0) os << ",\n  ";
    os << "{\"name\": ";
    json_string(os, rec.name);
    os << ", \"host_s\": ";
    json_number(os, median(rec.host_s));
    os << ", \"makespan_s\": ";
    json_number(os, rec.outcome.makespan_s());
    os << ", \"digest\": \"" << std::hex << rec.digest << std::dec
       << "\", \"verdict\": ";
    json_string(os, rec.verdict.describe());
    os << '}';
  }
  os << "]}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] --out PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(value);
    } else if (arg == "--out") {
      opt.out = value;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.out.empty()) return usage();
  try {
    const Workload w = make_workload(opt.workload, opt.seed);
    const Report report =
        opt.trace != 0 ? run_traced(w) : run_untraced(w, opt.seconds);
    std::ofstream os(opt.out);
    if (!os) throw std::runtime_error("cannot write " + opt.out);
    write_report(os, opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
