#pragma once

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/config.hpp"

/// \file scenario.hpp
/// Text scenario files: one ExperimentConfig per `[run]` section, simple
/// `key = value` lines, `#` comments. Lets users sweep configurations from
/// the command line (examples/run_scenario) without recompiling.
///
/// ```ini
/// # defaults apply to every following run until overridden
/// [defaults]
/// app = LU
/// class = B
/// nodes = 1
/// usable_mb = 230
/// quantum_s = 300
///
/// [run]
/// label = original
/// policy = orig
///
/// [run]
/// label = adaptive
/// policy = so/ao/ai/bg
/// batch = false
/// ```
///
/// Recognised keys: app, class, nodes, instances, memory_mb, usable_mb,
/// policy, quantum_s, quantum_override_s, page_cluster, bg_start_frac,
/// pass_ws_hint, seed, iterations_scale, capture_traces, trace_json (switch
/// tracer output path, "-" = in-memory only), batch, scalar_touch (force the
/// scalar per-touch access loop; perf baseline, bit-identical output), label,
/// horizon_s, fault (repeatable; see FaultSpec::parse), watchdog_ms,
/// swap_mb, tier_mb, tier_ratio_model (mixed/text/zero/incompressible),
/// tier_writeback, io_retry_limit, io_retry_base_ms, io_retry_cap_ms,
/// stalled_retry_limit, write_failure_streak, checkpoint_interval_s (0 =
/// checkpoint/restart off), ckpt_incremental, ckpt_max_retries,
/// restart_placement (spread/packed), lost_work_model (cpu/wall),
/// reclaim_policy (clock-lru/exact-lru/fifo/mglru/s3-fifo), reclaim_batch,
/// max_prefetch_run, sched_policy (matrix/admission/backfill/gang-edf/dfrs),
/// dfrs_mem_frac, dfrs_max_share, auto_migrate, arrival (none/poisson/
/// diurnal; an open stream), arrival_mean_s, diurnal_period_s,
/// diurnal_low_frac, tenants, straggler_fraction, straggler_slowdown,
/// deadline_slack, job_width_max, job_pages_min, job_pages_max,
/// job_iterations_min, job_iterations_max, autotune, autotune_controller
/// (dyn-thresh/hill-climb), autotune_interval_s, autotune_policy.

namespace apsim {

/// Parse a scenario stream. Throws std::invalid_argument with a
/// line-numbered message on malformed input.
[[nodiscard]] std::vector<ExperimentConfig> parse_scenario(std::istream& in);

/// Convenience overload over a string.
[[nodiscard]] std::vector<ExperimentConfig> parse_scenario(
    std::string_view text);

/// Apply one key/value pair to a config (exposed for tests). Throws on
/// unknown keys or unparsable values.
void apply_scenario_key(ExperimentConfig& config, std::string_view key,
                        std::string_view value);

}  // namespace apsim
