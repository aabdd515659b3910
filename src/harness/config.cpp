#include "harness/config.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "control/controller.hpp"
#include "gang/gang_scheduler.hpp"
#include "gang/policy_registry.hpp"
#include "mem/reclaim_registry.hpp"
#include "workloads/generator.hpp"

namespace apsim {

void ExperimentConfig::validate() const {
  auto fail = [](const std::string& message) {
    throw std::invalid_argument("config: " + message);
  };
  if (nodes < 1) fail("nodes must be >= 1, got " + std::to_string(nodes));
  if (instances < 1) {
    fail("instances must be >= 1, got " + std::to_string(instances));
  }
  if (quantum <= 0) {
    fail("quantum must be positive, got " + std::to_string(quantum) + " ns");
  }
  if (quantum_override && *quantum_override <= 0) {
    fail("quantum_override must be positive, got " +
         std::to_string(*quantum_override) + " ns");
  }
  if (bg_start_frac < 0.0 || bg_start_frac > 1.0) {
    fail("bg_start_frac must be in [0, 1], got " +
         std::to_string(bg_start_frac));
  }
  if (node_memory_mb <= 0.0) {
    fail("node_memory_mb must be positive, got " +
         std::to_string(node_memory_mb));
  }
  if (usable_memory_mb <= 0.0) {
    fail("usable_memory_mb must be positive, got " +
         std::to_string(usable_memory_mb));
  }
  if (usable_memory_mb > node_memory_mb) {
    fail("usable_memory_mb (" + std::to_string(usable_memory_mb) +
         ") exceeds node_memory_mb (" + std::to_string(node_memory_mb) + ")");
  }
  const VmmParams vmm_defaults;
  if (mb_to_pages(usable_memory_mb) <= vmm_defaults.freepages_high) {
    fail("usable memory of " + std::to_string(usable_memory_mb) +
         " MB leaves no frames above the freepages.high watermark");
  }
  if (page_cluster < 1) {
    fail("page_cluster must be >= 1, got " + std::to_string(page_cluster));
  }
  if (iterations_scale <= 0.0) {
    fail("iterations_scale must be positive, got " +
         std::to_string(iterations_scale));
  }
  if (horizon <= 0) {
    fail("horizon must be positive, got " + std::to_string(horizon) + " ns");
  }
  if (swap_mb < 0.0) {
    fail("swap_mb must be >= 0, got " + std::to_string(swap_mb));
  }
  if (swap_mb > 0.0 && swap_mb < node_memory_mb - usable_memory_mb) {
    fail("swap of " + std::to_string(swap_mb) +
         " MB is smaller than the wired-down memory (" +
         std::to_string(node_memory_mb - usable_memory_mb) + " MB)");
  }
  if (tier_mb < 0.0) {
    fail("tier_mb must be >= 0, got " + std::to_string(tier_mb));
  }
  if (tier_mb > 0.0 &&
      mb_to_pages(usable_memory_mb) - mb_to_pages(tier_mb) <=
          vmm_defaults.freepages_high) {
    fail("tier pool of " + std::to_string(tier_mb) +
         " MB leaves no usable frames above the freepages.high watermark");
  }
  if (io_retry_limit < 0) {
    fail("io_retry_limit must be >= 0, got " + std::to_string(io_retry_limit));
  }
  if (io_retry_base <= 0) {
    fail("io_retry_base must be positive, got " +
         std::to_string(io_retry_base) + " ns");
  }
  if (io_retry_cap < io_retry_base) {
    fail("io_retry_cap must be >= io_retry_base, got cap " +
         std::to_string(io_retry_cap) + " ns < base " +
         std::to_string(io_retry_base) + " ns");
  }
  if (stalled_fault_retry_limit < 1) {
    fail("stalled_fault_retry_limit must be >= 1, got " +
         std::to_string(stalled_fault_retry_limit));
  }
  if (write_failure_streak_limit < 1) {
    fail("write_failure_streak_limit must be >= 1, got " +
         std::to_string(write_failure_streak_limit));
  }
  if (checkpoint_interval < 0) {
    fail("checkpoint_interval must be >= 0, got " +
         std::to_string(checkpoint_interval) + " ns");
  }
  if (ckpt_max_retries < 0) {
    fail("ckpt_max_retries must be >= 0, got " +
         std::to_string(ckpt_max_retries));
  }
  if (!is_reclaim_policy(reclaim_policy)) {
    fail("unknown reclaim_policy '" + reclaim_policy + "'; " +
         reclaim_policy_names_hint());
  }
  if (reclaim_batch < 1) {
    fail("reclaim_batch must be >= 1, got " + std::to_string(reclaim_batch));
  }
  if (max_prefetch_run < 1) {
    fail("max_prefetch_run must be >= 1, got " +
         std::to_string(max_prefetch_run));
  }
  if (!is_sched_policy(sched_policy)) {
    fail("unknown sched_policy '" + sched_policy + "'; " +
         sched_policy_names_hint());
  }
  if (dfrs_mem_frac <= 0.0 || dfrs_mem_frac > 1.0) {
    fail("dfrs_mem_frac must be in (0, 1], got " +
         std::to_string(dfrs_mem_frac));
  }
  if (dfrs_max_share < 1) {
    fail("dfrs_max_share must be >= 1, got " + std::to_string(dfrs_max_share));
  }
  if (arrival_process != "none") {
    // Throws with the valid names on a bad value.
    static_cast<void>(parse_arrival_process(arrival_process));
    if (arrival_mean_s <= 0.0) {
      fail("arrival_mean_s must be positive, got " +
           std::to_string(arrival_mean_s));
    }
    if (diurnal_period_s <= 0.0) {
      fail("diurnal_period_s must be positive, got " +
           std::to_string(diurnal_period_s));
    }
    if (diurnal_low_frac <= 0.0 || diurnal_low_frac > 1.0) {
      fail("diurnal_low_frac must be in (0, 1], got " +
           std::to_string(diurnal_low_frac));
    }
    if (num_tenants < 1) {
      fail("num_tenants must be >= 1, got " + std::to_string(num_tenants));
    }
    if (straggler_fraction < 0.0 || straggler_fraction > 1.0) {
      fail("straggler_fraction must be in [0, 1], got " +
           std::to_string(straggler_fraction));
    }
    if (straggler_slowdown < 1.0) {
      fail("straggler_slowdown must be >= 1, got " +
           std::to_string(straggler_slowdown));
    }
    if (deadline_slack < 0.0) {
      fail("deadline_slack must be >= 0, got " +
           std::to_string(deadline_slack));
    }
    if (open_max_width < 1 || open_max_width > nodes) {
      fail("open_max_width must be in [1, nodes], got " +
           std::to_string(open_max_width));
    }
    if (open_min_pages < 1 || open_min_pages > open_max_pages) {
      fail("open page bounds must satisfy 1 <= min <= max, got [" +
           std::to_string(open_min_pages) + ", " +
           std::to_string(open_max_pages) + "]");
    }
    if (open_min_iterations < 1 || open_min_iterations > open_max_iterations) {
      fail("open iteration bounds must satisfy 1 <= min <= max, got [" +
           std::to_string(open_min_iterations) + ", " +
           std::to_string(open_max_iterations) + "]");
    }
    if (batch_mode) fail("open arrivals have no batch baseline mode");
  }
  // Checkpointing and the control plane bind to a GangScheduler, which the
  // batch baseline lacks. An open stream submits jobs the checkpoint state
  // (sized at start()) does not cover, and both tickers stop for good the
  // first time every job has finished: before the first arrival, or in any
  // idle gap.
  const char* unsupported_mode = batch_mode                   ? "batch_mode"
                                 : arrival_process != "none" ? "open arrivals"
                                                             : nullptr;
  if (unsupported_mode && checkpoint_interval > 0) {
    fail(std::string("checkpoint_interval is not supported with ") +
         unsupported_mode);
  }
  if (unsupported_mode && autotune) {
    fail(std::string("autotune is not supported with ") + unsupported_mode);
  }
  if (!is_controller(autotune_controller)) {
    fail("unknown autotune_controller '" + autotune_controller + "'; " +
         controller_names_hint());
  }
  if (autotune_interval <= 0) {
    fail("autotune_interval must be positive, got " +
         std::to_string(autotune_interval) + " ns");
  }
}

std::string ExperimentConfig::describe() const {
  if (!label.empty()) return label;
  std::string out;
  if (arrival_process != "none") {
    out += arrival_process;
    out += " x";
    out += std::to_string(instances);
    out += " on ";
    out += std::to_string(nodes);
    out += " node(s), ";
    out += sched_policy;
    return out;
  }
  out += to_string(app);
  out += '.';
  out += to_string(cls);
  out += " x";
  out += std::to_string(instances);
  out += " on ";
  out += std::to_string(nodes);
  out += " node(s), ";
  out += std::to_string(static_cast<int>(usable_memory_mb));
  out += "MB, ";
  out += policy.to_string();
  return out;
}

NodeParams ExperimentConfig::make_node_params() const {
  validate();
  NodeParams node;
  node.vmm.total_frames = mb_to_pages(node_memory_mb);
  node.vmm.page_cluster = page_cluster;
  node.vmm.page_aging = page_aging;
  node.vmm.reclaim_batch = reclaim_batch;
  node.vmm.max_prefetch_run = max_prefetch_run;
  node.vmm.io_retry_limit = io_retry_limit;
  node.vmm.io_retry_base = io_retry_base;
  node.vmm.io_retry_cap = io_retry_cap;
  node.vmm.stalled_fault_retry_limit = stalled_fault_retry_limit;
  node.vmm.write_failure_streak_limit = write_failure_streak_limit;
  node.cpu.batched_touch = !scalar_touch;
  node.wired_mb = node_memory_mb - usable_memory_mb;
  node.tier.pool_mb = tier_mb;
  node.tier.ratio_model = tier_ratio_model;
  node.tier.writeback = tier_writeback;
  if (swap_mb > 0.0) {
    node.swap_slots = mb_to_pages(swap_mb);
  } else if (arrival_process != "none") {
    // Open streams have no NPB footprint to size against; give every node
    // room for 1.5x the largest possible rank image per in-flight job.
    node.swap_slots = std::max<std::int64_t>(
        (3 * open_max_pages * instances) / 2, mb_to_pages(512.0));
  } else {
    // Swap partition sized like a 2002 installation: ~1.5x the anonymous
    // memory it must hold. Tight enough that slot churn from partially
    // re-dirtied footprints fragments the free map over time (defeating
    // block transfers for scatter-write workloads such as IS), roomy enough
    // never to run out.
    const WorkloadSpec spec = npb_spec(app, cls);
    const std::int64_t per_proc = spec.footprint_pages(nodes);
    node.swap_slots = std::max<std::int64_t>((3 * per_proc * instances) / 2,
                                             mb_to_pages(512.0));
  }
  node.disk.num_blocks = node.swap_slots;
  if (checkpoint_interval > 0) {
    // Checkpoint images live in a region past the swap partition on the
    // same device, so image writes contend with paging I/O for the head.
    node.disk.num_blocks = node.swap_slots * 2;
  }
  return node;
}

GangParams ExperimentConfig::make_gang_params() const {
  validate();
  GangParams params;
  params.quantum = quantum;
  params.bg_start_frac = bg_start_frac;
  params.pass_ws_hint = pass_ws_hint;
  params.pager.policy = policy;
  params.pager.reclaim_policy = reclaim_policy;
  params.sched_policy = sched_policy;
  params.policy_opts.dfrs_mem_frac = dfrs_mem_frac;
  params.policy_opts.dfrs_max_share = dfrs_max_share;
  params.policy_opts.auto_migrate = auto_migrate;
  if (switch_watchdog > 0) {
    params.switch_watchdog = switch_watchdog;
  } else if (switch_watchdog == 0 && faults.disturbs_control_plane()) {
    // Auto mode: the control plane is under attack, so arm the watchdog;
    // undisturbed runs keep it off and schedule no extra events.
    params.switch_watchdog = 50 * kMillisecond;
  }
  return params;
}

}  // namespace apsim
