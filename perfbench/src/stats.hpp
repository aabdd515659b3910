#pragma once

/// \file stats.hpp
/// The benchmark's own arithmetic, independent of the simulator library so
/// that a refactor of src/ cannot change how a number is derived: paper
/// metrics from makespans, pooled bounded slowdown, percentiles with their
/// sample counts, run-failure classification and the attribution of one
/// event's host time to the layers whose counters it advanced.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile together with the samples it was drawn from:
/// `above` samples lie strictly beyond the chosen rank, so a reader can tell
/// a p99 backed by ten tail samples from one that is simply the maximum.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t above = 0;
};

/// Nearest-rank percentile \p q (0 < q <= 100) of \p values.
template <typename T>
Percentile percentile(std::vector<T> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  p.value = static_cast<double>(values[rank - 1]);
  p.above = values.size() - rank;
  return p;
}

inline double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Switching overhead of a gang run against the batch baseline of the same
/// jobs, in percent: (T_gang - T_batch) / T_gang (the paper's Figure 7b).
inline double overhead_pct(double gang_s, double batch_s) {
  return gang_s > 0.0 ? 100.0 * (gang_s - batch_s) / gang_s : 0.0;
}

/// Paging reduction of a policy against the original kernel, in percent:
/// 1 - overhead_policy / overhead_orig (the paper's Figure 7c).
inline double reduction_pct(double overhead_policy_pct,
                            double overhead_orig_pct) {
  return overhead_orig_pct > 0.0
             ? 100.0 * (1.0 - overhead_policy_pct / overhead_orig_pct)
             : 0.0;
}

/// One application's paper comparison: gang makespans under the original
/// kernel and under the adaptive policy, the batch baseline, and the
/// reduction the paper reports for it.
struct AppMakespans {
  double orig_s = 0.0;
  double adaptive_s = 0.0;
  double batch_s = 0.0;
  double paper_reduction_pct = 0.0;
};

struct PaperScore {
  double switch_overhead_pct = 0.0;   ///< mean adaptive overhead over apps
  double paging_reduction_pct = 0.0;  ///< mean reduction over apps
  double paper_err_pp = 0.0;          ///< mean |reduction - paper| over apps
};

inline PaperScore score_against_paper(const std::vector<AppMakespans>& apps) {
  PaperScore s;
  if (apps.empty()) return s;
  for (const auto& a : apps) {
    const double ov_adaptive = overhead_pct(a.adaptive_s, a.batch_s);
    const double reduction =
        reduction_pct(ov_adaptive, overhead_pct(a.orig_s, a.batch_s));
    s.switch_overhead_pct += ov_adaptive;
    s.paging_reduction_pct += reduction;
    s.paper_err_pp += std::fabs(reduction - a.paper_reduction_pct);
  }
  const auto n = static_cast<double>(apps.size());
  s.switch_overhead_pct /= n;
  s.paging_reduction_pct /= n;
  s.paper_err_pp /= n;
  return s;
}

struct PooledSlowdown {
  double mean = 0.0;
  Percentile p99;
};

/// Pool per-job bounded slowdowns, max(1, response / max(estimate, 10 s)),
/// from several runs (one vector per run).
/// Jobs that did not complete carry a slowdown of 0 and are left out.
inline PooledSlowdown pool_slowdowns(
    const std::vector<std::vector<double>>& per_run) {
  std::vector<double> all;
  for (const auto& run : per_run) {
    for (double s : run) {
      if (s > 0.0) all.push_back(s);
    }
  }
  PooledSlowdown pooled;
  pooled.mean = mean(all);
  pooled.p99 = percentile(all, 99.0);
  return pooled;
}

/// Why a run counts as failed. A run can fail for several reasons at once.
struct RunVerdict {
  bool horizon = false;          ///< stopped before every job was done
  bool lost_job = false;         ///< a job failed and was never recovered
  bool digest_mismatch = false;  ///< differs from a run of the same config

  [[nodiscard]] bool failed() const {
    return horizon || lost_job || digest_mismatch;
  }
  [[nodiscard]] std::string describe() const {
    std::string out;
    auto add = [&out](const char* what) {
      if (!out.empty()) out += ",";
      out += what;
    };
    if (horizon) add("horizon");
    if (lost_job) add("lost_job");
    if (digest_mismatch) add("digest_mismatch");
    return out.empty() ? "ok" : out;
  }
};

/// Classify one run. \p makespan_ns < 0 means the simulation stopped (horizon
/// or drained queue) before every job reached a terminal state; such a run
/// has no makespan at all and must never be reported as one.
inline RunVerdict classify_run(std::int64_t makespan_ns, int jobs_failed,
                               std::uint64_t digest,
                               std::uint64_t reference_digest) {
  RunVerdict v;
  v.horizon = makespan_ns < 0;
  v.lost_job = jobs_failed > 0;
  v.digest_mismatch = digest != reference_digest;
  return v;
}

/// Attributes each event's host time to every layer whose counter signature
/// the event changed. A signature is any value that moves whenever one of
/// the layer's public counters moves (a sum of monotone counters).
class LayerAttribution {
 public:
  explicit LayerAttribution(std::size_t layers)
      : last_(layers, 0), host_ns_(layers, 0.0) {}

  /// Record the signatures before the first event.
  void prime(const std::vector<std::uint64_t>& signatures) {
    last_ = signatures;
  }

  /// One event took \p host_ns and left the layers at \p signatures.
  void observe(double host_ns, const std::vector<std::uint64_t>& signatures) {
    bool any = false;
    for (std::size_t i = 0; i < last_.size(); ++i) {
      if (signatures[i] != last_[i]) {
        host_ns_[i] += host_ns;
        any = true;
      }
    }
    if (!any) unattributed_ns_ += host_ns;
    last_ = signatures;
  }

  [[nodiscard]] double host_ms(std::size_t layer) const {
    return host_ns_[layer] / 1e6;
  }
  [[nodiscard]] double unattributed_ms() const {
    return unattributed_ns_ / 1e6;
  }

 private:
  std::vector<std::uint64_t> last_;
  std::vector<double> host_ns_;
  double unattributed_ns_ = 0.0;
};

}  // namespace perfbench
