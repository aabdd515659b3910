#include "harness/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cluster/cluster.hpp"
#include "control/control_plane.hpp"
#include "gang/gang_scheduler.hpp"
#include "mem/reclaim_registry.hpp"
#include "metrics/tracer.hpp"
#include "net/mpi.hpp"
#include "recover/checkpoint_manager.hpp"
#include "workloads/generator.hpp"
#include "workloads/npb.hpp"

namespace apsim {

namespace {

SimTime trace_clock(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now();
}

[[nodiscard]] OpenArrivalOptions open_options(const ExperimentConfig& c) {
  OpenArrivalOptions o;
  o.process = parse_arrival_process(c.arrival_process);
  o.num_jobs = c.instances;
  o.mean_interarrival_s = c.arrival_mean_s;
  o.diurnal_period_s = c.diurnal_period_s;
  o.diurnal_low_frac = c.diurnal_low_frac;
  o.num_tenants = c.num_tenants;
  o.straggler_fraction = c.straggler_fraction;
  o.straggler_slowdown = c.straggler_slowdown;
  o.max_width = c.open_max_width;
  o.min_pages = c.open_min_pages;
  o.max_pages = c.open_max_pages;
  o.min_iterations = c.open_min_iterations;
  o.max_iterations = c.open_max_iterations;
  o.deadline_slack = c.deadline_slack;
  o.seed = c.seed;
  return o;
}

[[nodiscard]] ExperimentConfig with_batch_mode(ExperimentConfig config,
                                               bool batch) {
  config.batch_mode = batch;
  return config;
}

/// One run of a configuration. Every run mode is assembled here: the
/// cluster, then the scheduler (a GangScheduler, or a BatchRunner for the
/// batch baseline), then the jobs from a job source — the fixed NPB set,
/// created before start(), or the open stream, whose jobs are created at
/// their arrival events — then the optional subsystems. Members are
/// declared in teardown order: the control plane and checkpoint manager go
/// before the scheduler they hook into, the scheduler before the processes
/// its jobs point at, and the cluster last.
struct Assembly {
  explicit Assembly(const ExperimentConfig& c)
      : config(c),
        open(c.arrival_process != "none"),
        cluster(std::make_unique<Cluster>(c.nodes, c.make_node_params(),
                                          c.make_net_params(), c.seed,
                                          c.faults)) {
    if (config.batch_mode) {
      // Batch mode has no AdaptivePager to compose policies through;
      // install a non-default base policy directly on each node's VMM.
      if (config.reclaim_policy != "clock-lru") {
        for (int n = 0; n < cluster->size(); ++n) {
          cluster->node(n).vmm().set_reclaim_policy(
              make_reclaim_policy(config.reclaim_policy));
        }
      }
      batch.emplace(*cluster);
    } else {
      gang.emplace(*cluster, config.make_gang_params());
      gang->set_comm_resolver([this](int job_id) { return comm_of(job_id); });
    }
    // CPUs are shared between jobs, and an open stream may place a rank of
    // any parallel job on any node, so every CPU dispatches collective
    // entries on the process's job id.
    for (int n = 0; n < cluster->size(); ++n) {
      cluster->node(n).cpu().set_comm_handler(
          [this](Process& p, const CommOp& op, std::function<void()> resume) {
            comm_by_job.at(p.job_id)->enter(p, op, std::move(resume));
          });
    }
  }

  // The comm handlers, resolvers and arrival events hold `this`.
  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  const ExperimentConfig& config;
  const bool open;  ///< job source: open stream (else the fixed NPB set)
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<Process>> processes;
  std::map<int, std::unique_ptr<MpiComm>> comm_by_job;
  std::vector<OpenJobSpec> arrivals;
  std::size_t pending_arrivals = 0;
  // Built in place: with the scheduler on the heap, glibc trimmed the freed
  // heap top after each run, and back-to-back set-ups of the chaos_recover
  // config faulted ~170 pages back in every time (3x the set-up time).
  std::optional<BatchRunner> batch;
  std::optional<GangScheduler> gang;
  std::shared_ptr<Tracer> tracer;
  std::unique_ptr<CheckpointManager> ckpt;
  std::unique_ptr<ControlPlane> plane;

  [[nodiscard]] MpiComm* comm_of(int job_id) const {
    const auto it = comm_by_job.find(job_id);
    return it == comm_by_job.end() ? nullptr : it->second.get();
  }

  /// Create one rank of \p job on \p node, bound to \p comm when the job
  /// spans several ranks.
  void add_rank(Job& job, MpiComm* comm, int rank, int node,
                std::int64_t pages, std::unique_ptr<Program> program) {
    auto& host = cluster->node(node);
    const Pid pid = host.vmm().create_process(pages);
    auto process = std::make_unique<Process>(
        job.name() + ":r" + std::to_string(rank), pid, std::move(program));
    host.cpu().attach(*process);
    if (comm) comm->bind(rank, *process, node);
    job.add_process(node, *process);
    processes.push_back(std::move(process));
  }

  /// The fixed job source: `instances` copies of the NPB benchmark, one
  /// rank per node, all created before start().
  void build_fixed_jobs() {
    const WorkloadSpec spec = npb_spec(config.app, config.cls);
    const std::int64_t npages = spec.footprint_pages(config.nodes);
    for (int j = 0; j < config.instances; ++j) {
      std::string name = std::string(to_string(config.app)) + "." +
                         std::string(to_string(config.cls)) + "#" +
                         std::to_string(j);
      Job& job = gang ? gang->create_job(std::move(name))
                      : batch->create_job(std::move(name));
      if (config.quantum_override) {
        job.quantum_override = config.quantum_override;
      }
      job.declared_ws_pages = spec.expected_ws_pages(config.nodes);
      std::unique_ptr<MpiComm> comm;
      if (config.nodes > 1) {
        comm = std::make_unique<MpiComm>(cluster->sim(), cluster->network(),
                                         config.nodes);
      }
      for (int n = 0; n < config.nodes; ++n) {
        NpbBuildOptions options;
        options.nprocs = config.nodes;
        options.seed = config.seed * 7919 +
                       static_cast<std::uint64_t>(j) * 131 +
                       static_cast<std::uint64_t>(n);
        options.iterations_scale = config.iterations_scale;
        add_rank(job, comm.get(), n, n, npages,
                 build_npb_program(spec, options));
      }
      if (comm) comm_by_job.emplace(job.id(), std::move(comm));
    }
  }

  /// The open job source: one arrival event per streamed job, each creating
  /// the job and handing it to the live schedule.
  void schedule_arrivals() {
    arrivals = make_open_arrivals(open_options(config), config.nodes);
    pending_arrivals = arrivals.size();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      cluster->sim().at(arrivals[i].arrival, [this, i] { arrive(i); });
    }
  }

  void arrive(std::size_t i) {
    const OpenJobSpec& spec = arrivals[i];
    const std::vector<int> nodes = spec.placement(config.nodes);
    Job& job = gang->submit_job("t" + std::to_string(spec.tenant) +
                                ".open#" + std::to_string(i));
    job.declared_ws_pages = spec.pages;
    job.deadline = spec.deadline;
    job.estimated_runtime = spec.estimated_runtime;
    job.tenant = spec.tenant;
    if (config.quantum_override) {
      job.quantum_override = config.quantum_override;
    }
    std::unique_ptr<MpiComm> comm;
    if (spec.width > 1) {
      comm = std::make_unique<MpiComm>(cluster->sim(), cluster->network(),
                                       spec.width);
    }
    for (int r = 0; r < spec.width; ++r) {
      add_rank(job, comm.get(), r, nodes[static_cast<std::size_t>(r)],
               spec.pages, make_open_job_program(spec, r));
    }
    if (comm) comm_by_job.emplace(job.id(), std::move(comm));
    gang->start_job(job);
    --pending_arrivals;
  }

  /// The optional subsystems. Each one left off constructs nothing at all,
  /// so its absence is bit-identical to a build without it; validate()
  /// admits checkpointing and the control plane only on fixed-set gang runs.
  void attach_subsystems() {
    if (!config.trace_json.empty()) {
      tracer = std::make_shared<Tracer>(&cluster->sim(), trace_clock);
      if (gang) gang->set_tracer(tracer.get());
      for (int n = 0; n < cluster->size(); ++n) {
        auto& node = cluster->node(n);
        const std::string prefix = "node" + std::to_string(n) + " ";
        if (gang) {
          const int track = trace_track(n, kTrackSched);
          gang->pager(n).set_tracer(tracer.get(), track);
          tracer->set_track_name(track, prefix + "switch");
        }
        node.vmm().set_tracer(tracer.get(), trace_track(n, kTrackVmm));
        node.disk().set_tracer(tracer.get(), trace_track(n, kTrackDisk));
        tracer->set_track_name(trace_track(n, kTrackVmm), prefix + "vmm");
        tracer->set_track_name(trace_track(n, kTrackDisk), prefix + "disk");
        if (TierManager* tier = node.tier()) {
          tier->set_tracer(tracer.get(), trace_track(n, kTrackTier));
          tracer->set_track_name(trace_track(n, kTrackTier), prefix + "tier");
        }
      }
    }
    if (config.checkpoint_interval > 0) {
      assert(gang && !open);
      CheckpointParams cparams;
      cparams.interval = config.checkpoint_interval;
      cparams.incremental = config.ckpt_incremental;
      cparams.max_retries = config.ckpt_max_retries;
      cparams.placement = config.restart_placement;
      cparams.lost_work = config.lost_work_model;
      ckpt = std::make_unique<CheckpointManager>(*cluster, *gang, cparams);
      ckpt->set_comm_resolver([this](int job_id) { return comm_of(job_id); });
      if (tracer) ckpt->set_tracer(tracer.get());
    }
    if (config.autotune) {
      assert(gang && !open);
      ControlPlaneParams pparams;
      pparams.controller = config.autotune_controller;
      pparams.interval = config.autotune_interval;
      pparams.tune_policy = config.autotune_policy;
      plane = std::make_unique<ControlPlane>(*cluster, *gang, pparams);
      if (tracer) plane->set_tracer(tracer.get());
    }
  }

  /// Run until the job source is exhausted and every job has finished;
  /// false if the horizon came first.
  [[nodiscard]] bool run_until_drained() {
    if (gang) {
      gang->start();
    } else {
      batch->start();
    }
    if (ckpt) ckpt->start();
    if (plane) plane->start();
    return cluster->sim().run_until(
        [this] {
          return pending_arrivals == 0 &&
                 (gang ? gang->all_finished() : batch->all_finished());
        },
        config.horizon);
  }

  /// Harvest per-job and cluster-wide statistics, plus whatever the
  /// attached subsystems observed, into a RunOutcome.
  [[nodiscard]] RunOutcome collect(bool finished) {
    RunOutcome out;
    out.label = config.describe();
    if (batch) {
      out.label += " [batch]";
      out.policy = "batch";
    } else {
      out.policy = open ? config.sched_policy : config.policy.to_string();
    }
    const auto& jobs = gang ? gang->jobs() : batch->jobs();
    out.makespan =
        finished ? (gang ? gang->makespan() : batch->makespan()) : -1;
    for (const auto& job : jobs) {
      JobOutcome jo;
      jo.name = job->name();
      jo.completion = job->finished_at();
      jo.failed = job->failed();
      if (jo.failed) ++out.jobs_failed;
      if (open) {
        jo.arrival = job->arrival;
        if (!jo.failed && jo.completion >= 0) {
          jo.slowdown = bounded_slowdown(job->arrival, jo.completion,
                                         job->estimated_runtime.value_or(0));
        }
      }
      for (const auto& placement : job->processes()) {
        const auto& proc = *placement.process;
        const auto& space =
            cluster->node(placement.node).vmm().space(proc.pid());
        jo.major_faults += space.stats().major_faults;
        jo.minor_faults += space.stats().minor_faults;
        jo.pages_swapped_in += space.stats().pages_swapped_in;
        jo.pages_swapped_out += space.stats().pages_swapped_out;
        jo.false_evictions += space.stats().false_evictions;
        jo.cpu_time += proc.stats().cpu_time;
        jo.fault_wait += proc.stats().fault_wait;
        jo.comm_wait += proc.stats().comm_wait;
      }
      out.pages_swapped_in += jo.pages_swapped_in;
      out.pages_swapped_out += jo.pages_swapped_out;
      out.major_faults += jo.major_faults;
      out.false_evictions += jo.false_evictions;
      out.jobs.push_back(std::move(jo));
    }
    if (open) finalize_slowdowns(out);
    for (int n = 0; n < cluster->size(); ++n) {
      auto& node = cluster->node(n);
      out.io_errors += node.disk().stats().io_errors;
      out.disk_blocks_written += node.disk().stats().blocks_written;
      out.disk_blocks_read += node.disk().stats().blocks_read;
      const auto& vstats = node.vmm().stats();
      out.io_retries += vstats.io_retries;
      out.pages_unrecoverable +=
          vstats.pages_unrecoverable + vstats.out_of_swap_faults;
      if (const TierManager* tier = node.tier()) {
        const auto& tstats = tier->stats();
        out.tier_pool_hits += tstats.pool_hits;
        out.tier_pool_misses += tstats.pool_misses;
        out.tier_writeback_pages += tstats.writeback_pages;
        const auto& pstats = tier->pool().stats();
        out.tier_pages_stored += pstats.pages_stored;
        out.tier_bytes_stored += pstats.bytes_stored;
      }
      if (config.capture_traces) {
        PagingTrace trace;
        trace.label = "node" + std::to_string(n);
        trace.pages_in = node.vmm().pagein_series();
        trace.pages_out = node.vmm().pageout_series();
        out.traces.push_back(std::move(trace));
      }
      if (gang) {
        const auto& pstats = gang->pager(n).stats();
        out.pages_recorded += pstats.pages_recorded;
        out.pages_replayed += pstats.pages_replayed;
        out.bg_pages_written += pstats.bg_pages_written;
      }
    }
    if (gang) {
      const auto& gstats = gang->stats();
      out.switches = gang->switches();
      out.nodes_failed = gstats.nodes_failed;
      out.signal_retransmits = gstats.signal_retransmits;
      out.jobs_recovered = gstats.jobs_recovered;
      out.lost_pages_recovered = gstats.lost_pages_recovered;
      out.lost_pages_fatal = gstats.lost_pages_fatal;
      out.jobs_migrated = gstats.jobs_migrated;
      out.migration_bytes = gstats.migration_bytes;
    }
    if (ckpt) {
      const auto& cstats = ckpt->stats();
      out.checkpoints_taken = cstats.checkpoints_taken;
      out.checkpoint_failures = cstats.checkpoint_failures;
      out.ckpt_io_retries = cstats.ckpt_io_retries;
      out.bytes_checkpointed = cstats.bytes_checkpointed;
      out.pages_staged = cstats.pages_staged;
      out.restarts_failed = cstats.restarts_failed;
      out.lost_work_ms = to_seconds(cstats.lost_work) * 1000.0;
      for (std::size_t i = 0; i < out.jobs.size(); ++i) {
        out.jobs[i].recovered = ckpt->restarts_of(jobs[i]->id()) > 0;
      }
    }
    if (plane) {
      const auto& pstats = plane->stats();
      out.autotune_ticks = pstats.ticks;
      out.autotune_adjustments = pstats.adjustments;
      out.autotune_policy_switches = pstats.policy_switches;
    }
    if (tracer) {
      // Phase statistics always; Chrome JSON unless the configured path is
      // the in-memory magic value "-".
      out.switch_phases = tracer->phase_stats();
      if (config.trace_json != "-") {
        std::ofstream os(config.trace_json);
        if (!os) {
          throw std::runtime_error("cannot open trace_json path '" +
                                   config.trace_json + "'");
        }
        tracer->write_chrome_json(os);
      }
      out.trace = std::move(tracer);
    }
    return out;
  }
};

}  // namespace

void parallel_indices(std::size_t n, unsigned threads,
                      const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(threads, static_cast<unsigned>(n));
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      body(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
}

RunOutcome run_config(const ExperimentConfig& config) {
  config.validate();
  Assembly assembly(config);
  if (assembly.open) {
    assembly.schedule_arrivals();
  } else {
    assembly.build_fixed_jobs();
  }
  assembly.attach_subsystems();
  const bool finished = assembly.run_until_drained();
  return assembly.collect(finished);
}

RunOutcome run_gang(const ExperimentConfig& config) {
  return run_config(with_batch_mode(config, false));
}

RunOutcome run_batch(const ExperimentConfig& config) {
  return run_config(with_batch_mode(config, true));
}

EvaluatedRun evaluate(const ExperimentConfig& config) {
  EvaluatedRun result;
  result.gang = run_gang(config);
  // The baseline only supplies a makespan: it observes nothing, and it has
  // no gang scheduler to checkpoint or tune.
  ExperimentConfig batch_config = config;
  batch_config.capture_traces = false;
  batch_config.trace_json.clear();
  batch_config.checkpoint_interval = 0;
  batch_config.autotune = false;
  result.batch = run_batch(batch_config);
  if (result.gang.makespan > 0 && result.batch.makespan > 0) {
    result.overhead =
        switching_overhead(result.gang.makespan, result.batch.makespan);
  }
  return result;
}

}  // namespace apsim
