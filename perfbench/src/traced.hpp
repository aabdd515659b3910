#pragma once

/// \file traced.hpp
/// The traced run. It assembles each run from the library's public classes
/// the same way run_config does, and measures every layer from outside:
/// host-time spans around the benchmark's own construction calls, a host
/// timestamp in the run_until predicate after every event, a timed comm
/// handler around MpiComm::enter, a delegating SchedulerPolicy, and each
/// module's public Stats. An event's host time counts toward every layer
/// whose counters it advanced. Switch phases come from the library Tracer.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "metrics/experiment.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Accumulates per-layer totals over the runs of one workload.
class TracedRuns {
 public:
  TracedRuns();
  ~TracedRuns();
  TracedRuns(const TracedRuns&) = delete;
  TracedRuns& operator=(const TracedRuns&) = delete;

  /// Build and run \p config traced. Returns the outcome, which must equal
  /// run_config(config)'s field for field.
  apsim::RunOutcome run(const apsim::ExperimentConfig& config);

  /// Host seconds of the last run() (construction through collection).
  [[nodiscard]] double last_host_s() const { return last_host_s_; }

  /// Per-layer metrics over every run so far. \p untraced_host_s is the
  /// host time the same runs took through run_config, the base for the
  /// rate metrics and the tracing overhead.
  [[nodiscard]] std::vector<Metric> metrics(double untraced_host_s) const;

 private:
  struct Totals;
  std::unique_ptr<Totals> totals_;
  double last_host_s_ = 0.0;
};

}  // namespace perfbench
