// Scheduler-policy zoo under open arrivals: every registered policy
// (matrix, admission, backfill, gang-edf, dfrs) runs the same open job
// streams — a saturated Poisson arrival process, a diurnal day/night
// stream, and a Poisson stream with straggler ranks — and the bench
// reports makespan plus mean/p99 bounded slowdown per (policy x arrival)
// cell. Every cell runs twice and the pair must be bit-identical, so the
// process exits nonzero only on a determinism mismatch, never on a
// performance regression. Results go to BENCH_policy.json.
//
// Usage: policy_matrix [--smoke] [--out PATH]
//   --smoke   fewer/shorter jobs (used by CI)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gang/policy_registry.hpp"
#include "harness/runner.hpp"
#include "metrics/table.hpp"

namespace {

using namespace apsim;

struct Scenario {
  const char* name;
  ExperimentConfig config;
};

std::vector<Scenario> scenarios(bool smoke) {
  // The saturated base case: two nodes, fig7-style memory pressure (22 MB
  // usable), jobs whose joint footprints overcommit a node, and arrivals
  // fast enough that work queues up. Time-sharing policies pay switch
  // paging here; run-to-completion and memory-aware ones should not.
  ExperimentConfig base;
  base.nodes = 2;
  base.instances = smoke ? 10 : 24;
  base.node_memory_mb = 64.0;
  base.usable_memory_mb = 22.0;
  base.quantum = kSecond / 2;
  base.arrival_process = "poisson";
  base.arrival_mean_s = smoke ? 0.5 : 1.0;
  base.open_max_width = 2;
  base.open_min_pages = 1536;
  base.open_max_pages = 3584;
  base.open_min_iterations = smoke ? 15 : 30;
  base.open_max_iterations = smoke ? 40 : 80;
  base.num_tenants = 2;
  base.deadline_slack = 3.0;  // gang-edf has deadlines to order by
  base.horizon = 3600 * kSecond;

  std::vector<Scenario> out;
  out.push_back({"poisson-saturated", base});

  ExperimentConfig diurnal = base;
  diurnal.arrival_process = "diurnal";
  diurnal.arrival_mean_s = smoke ? 0.4 : 0.8;
  diurnal.diurnal_period_s = 60.0;
  diurnal.diurnal_low_frac = 0.1;
  out.push_back({"diurnal", diurnal});

  ExperimentConfig straggler = base;
  straggler.straggler_fraction = 0.25;
  straggler.straggler_slowdown = 4.0;
  out.push_back({"poisson-stragglers", straggler});

  return out;
}

struct Row {
  std::string scenario;
  std::string policy;
  double makespan_s = 0.0;
  double mean_slowdown = 0.0;
  double p99_slowdown = 0.0;
  std::uint64_t major_faults = 0;
  int jobs_failed = 0;
  int jobs_migrated = 0;
  bool reproduced = false;
  bool wins_mean_slowdown = false;  ///< vs the matrix baseline of the cell
};

/// The determinism gate: two runs of the same config must agree bit for bit.
bool same_run(const RunOutcome& a, const RunOutcome& b) {
  if (a.makespan != b.makespan || a.major_faults != b.major_faults ||
      a.pages_swapped_in != b.pages_swapped_in ||
      a.pages_swapped_out != b.pages_swapped_out ||
      a.mean_slowdown != b.mean_slowdown ||
      a.p99_slowdown != b.p99_slowdown ||
      a.jobs_migrated != b.jobs_migrated ||
      a.migration_bytes != b.migration_bytes ||
      a.jobs.size() != b.jobs.size()) {
    return false;
  }
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    if (a.jobs[j].completion != b.jobs[j].completion ||
        a.jobs[j].arrival != b.jobs[j].arrival ||
        a.jobs[j].slowdown != b.jobs[j].slowdown) {
      return false;
    }
  }
  return true;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                bool smoke, bool deterministic) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"policy_matrix\",\n"
     << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
     << "  \"deterministic\": " << (deterministic ? "true" : "false") << ",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"scenario\": \"" << r.scenario << "\", \"policy\": \""
       << r.policy << "\", \"makespan_s\": " << json_number(r.makespan_s)
       << ", \"mean_slowdown\": " << json_number(r.mean_slowdown)
       << ", \"p99_slowdown\": " << json_number(r.p99_slowdown)
       << ", \"major_faults\": " << r.major_faults
       << ", \"jobs_failed\": " << r.jobs_failed
       << ", \"jobs_migrated\": " << r.jobs_migrated
       << ", \"reproduced\": " << (r.reproduced ? "true" : "false")
       << ", \"wins_mean_slowdown\": "
       << (r.wins_mean_slowdown ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_policy.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: policy_matrix [--smoke] [--out PATH]\n");
      return 2;
    }
  }

  std::printf("Scheduler-policy zoo under open arrivals%s\n"
              "(every cell runs twice; pairs must be bit-identical)\n\n",
              smoke ? " (smoke)" : "");

  const std::vector<std::string> policies = sched_policy_names();
  std::vector<Row> rows;
  bool deterministic = true;

  for (const Scenario& scenario : scenarios(smoke)) {
    Table table({"policy", "makespan (s)", "mean slowdown", "p99 slowdown",
                 "major faults", "failed", "migrated", "reproduced"});
    double matrix_mean_slowdown = 0.0;
    for (const std::string& policy : policies) {
      ExperimentConfig config = scenario.config;
      config.sched_policy = policy;
      // Consolidation migration is dfrs's policy-visible primitive; the
      // others never ask for it.
      config.auto_migrate = policy == "dfrs";
      const RunOutcome first = run_config(config);
      const RunOutcome second = run_config(config);

      Row row;
      row.scenario = scenario.name;
      row.policy = policy;
      row.makespan_s = to_seconds(first.makespan);
      row.mean_slowdown = first.mean_slowdown;
      row.p99_slowdown = first.p99_slowdown;
      row.major_faults = first.major_faults;
      row.jobs_failed = first.jobs_failed;
      row.jobs_migrated = first.jobs_migrated;
      row.reproduced = same_run(first, second);
      if (!row.reproduced) deterministic = false;

      if (policy == "matrix") {
        matrix_mean_slowdown = row.mean_slowdown;
      } else {
        row.wins_mean_slowdown = row.mean_slowdown < matrix_mean_slowdown;
      }
      table.add_row({row.policy, Table::fmt(row.makespan_s, 1),
                     Table::fmt(row.mean_slowdown, 2),
                     Table::fmt(row.p99_slowdown, 2),
                     std::to_string(row.major_faults),
                     std::to_string(row.jobs_failed),
                     std::to_string(row.jobs_migrated),
                     row.reproduced ? "yes" : "NO"});
      rows.push_back(row);
    }
    std::printf("%s: %s\n%s\n\n", scenario.name,
                scenario.config.describe().c_str(), table.to_string().c_str());
  }

  write_json(out_path, rows, smoke, deterministic);
  std::printf("wrote %s\n", out_path.c_str());

  int winners = 0;
  for (const Row& r : rows) {
    if (r.wins_mean_slowdown) ++winners;
  }
  std::printf("policies beating matrix on mean slowdown: %d of %zu rows\n",
              winners, rows.size());

  if (!deterministic) {
    std::fprintf(stderr, "FAIL: a cell did not reproduce bit-for-bit\n");
    return 1;
  }
  return 0;
}
