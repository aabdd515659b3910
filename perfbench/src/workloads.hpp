#pragma once

/// \file workloads.hpp
/// The benchmark's workloads, written out here rather than borrowed from the
/// figure harness, so a refactor of src/harness cannot move what is timed.
/// Each workload is a fixed list of runs; the seed generates every config's
/// simulator seed (and so every access pattern, arrival stream and fault
/// draw), and nothing else reaches the library but the ExperimentConfig.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/config.hpp"
#include "metrics/experiment.hpp"

namespace perfbench {

/// What a run contributes to the workload's model metrics.
enum class Role {
  kOrig,      ///< gang run under the original kernel
  kAdaptive,  ///< gang run under so/ao/ai/bg
  kBatch,     ///< back-to-back baseline of the same jobs
  kStream,    ///< one scheduler policy on the open arrival stream
  kChaos,     ///< one seeded crash-and-recover run
};

struct RunSpec {
  std::string name;  ///< unique within the workload, e.g. "LU/orig"
  std::string app;   ///< key for the paper reference ("" when none)
  Role role = Role::kOrig;
  apsim::ExperimentConfig config;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<RunSpec> runs;
  /// Paper Figure 7c paging reductions, in percent, by app (serial only).
  std::vector<std::pair<std::string, double>> paper_reduction_pct;
};

/// Build workload \p name from \p seed. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed);

/// FNV-1a digest of a run's makespan and every RunOutcome counter (labels,
/// traces and the tracer handle excluded). Two runs of one config must agree.
[[nodiscard]] std::uint64_t outcome_digest(const apsim::RunOutcome& out);

}  // namespace perfbench
