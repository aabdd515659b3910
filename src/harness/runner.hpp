#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "harness/config.hpp"
#include "metrics/experiment.hpp"

/// \file runner.hpp
/// Builds the cluster + workloads for a configuration, runs it gang- or
/// batch-scheduled, and extracts the outcome. Every mode goes through one
/// assembly: cluster, scheduler, jobs from a job source (the fixed NPB set,
/// or the open arrival stream when config.arrival_process is set), the
/// optional subsystems (tracer, checkpointing, control plane), the run, and
/// one collect. Sweeps run one Simulator per worker thread (shared-nothing),
/// so experiments scale with host cores while every individual simulation
/// stays deterministic.

namespace apsim {

/// Run the configuration: its jobs under the gang scheduler with its
/// PolicySet and sched_policy, or back to back when config.batch_mode is
/// set (the zero-switching baseline). Throws std::invalid_argument if
/// config.validate() does.
[[nodiscard]] RunOutcome run_config(const ExperimentConfig& config);

/// run_config with batch_mode forced off.
[[nodiscard]] RunOutcome run_gang(const ExperimentConfig& config);

/// run_config with batch_mode forced on.
[[nodiscard]] RunOutcome run_batch(const ExperimentConfig& config);

/// Gang run plus batch baseline plus the derived paper metrics. The
/// baseline runs without traces, checkpoints or the control plane.
struct EvaluatedRun {
  RunOutcome gang;
  RunOutcome batch;
  double overhead = 0.0;  ///< switching_overhead(gang, batch)
};
[[nodiscard]] EvaluatedRun evaluate(const ExperimentConfig& config);

/// Run \p body(i) for every i in [0, n) on up to \p threads workers (0 =
/// hardware concurrency), self-scheduling over indices. The shared-nothing
/// worker pool behind parallel_map; \p body must be thread-safe for distinct
/// indices.
void parallel_indices(std::size_t n, unsigned threads,
                      const std::function<void(std::size_t)>& body);

/// Map \p configs through \p fn on up to \p threads workers (0 = hardware
/// concurrency), preserving order. \p fn must be thread-safe for distinct
/// configs (run_gang/run_batch/evaluate are: each run builds its own
/// Simulator and touches no shared state).
template <typename Result>
[[nodiscard]] std::vector<Result> parallel_map(
    const std::vector<ExperimentConfig>& configs,
    const std::function<Result(const ExperimentConfig&)>& fn,
    unsigned threads = 0) {
  std::vector<Result> results(configs.size());
  parallel_indices(configs.size(), threads,
                   [&](std::size_t i) { results[i] = fn(configs[i]); });
  return results;
}

}  // namespace apsim
