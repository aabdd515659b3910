#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "control/control_plane.hpp"
#include "gang/gang_scheduler.hpp"
#include "gang/policy_registry.hpp"
#include "mem/reclaim_registry.hpp"
#include "metrics/tracer.hpp"
#include "net/mpi.hpp"
#include "recover/checkpoint_manager.hpp"
#include "stats.hpp"
#include "workloads/generator.hpp"
#include "workloads/npb.hpp"

namespace perfbench {

using namespace apsim;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Accumulates host nanoseconds of a scope into a counter.
class HostSpan {
 public:
  explicit HostSpan(double& sink_ns) : sink_(sink_ns), start_(Clock::now()) {}
  ~HostSpan() { sink_ += ns_between(start_, Clock::now()); }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  double& sink_;
  Clock::time_point start_;
};

/// Host time and call count of the scheduler-policy hooks of the current
/// traced run (the engine owns the policy, so the meter is reached through
/// this pointer; runs are sequential).
struct PolicyMeter {
  std::uint64_t calls = 0;
  double host_ns = 0.0;
};
PolicyMeter* g_policy_meter = nullptr;

template <typename Fn>
auto timed(Fn&& fn) {
  PolicyMeter* meter = g_policy_meter;
  if (meter == nullptr) return fn();
  ++meter->calls;
  HostSpan span(meter->host_ns);
  return fn();
}

/// Forwards every hook to a built-in policy, counting and timing the calls.
class TimedPolicy final : public SchedulerPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<SchedulerPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] int max_coscheduled() const override {
    return timed([&] { return inner_->max_coscheduled(); });
  }
  void admit(Job& job) override {
    timed([&] { inner_->admit(job); });
  }
  void remove(Job& job) override {
    timed([&] { inner_->remove(job); });
  }
  void detach(Job& job) override {
    timed([&] { inner_->detach(job); });
  }
  void readmit(Job& job) override {
    timed([&] { inner_->readmit(job); });
  }
  [[nodiscard]] bool is_admitted(const Job& job) const override {
    return timed([&] { return inner_->is_admitted(job); });
  }
  [[nodiscard]] int num_slots() const override {
    return timed([&] { return inner_->num_slots(); });
  }
  void jobs_at(int slot, int node, std::vector<int>& out) const override {
    timed([&] { inner_->jobs_at(slot, node, out); });
  }
  [[nodiscard]] std::vector<int> jobs_in_slot(int slot) const override {
    return timed([&] { return inner_->jobs_in_slot(slot); });
  }
  [[nodiscard]] int next_slot(int current) const override {
    return timed([&] { return inner_->next_slot(current); });
  }
  void note_active(int slot) override {
    timed([&] { inner_->note_active(slot); });
  }
  [[nodiscard]] int resolve_slot(int current) const override {
    return timed([&] { return inner_->resolve_slot(current); });
  }
  void on_node_failed(int node) override {
    timed([&] { inner_->on_node_failed(node); });
  }
  void on_departure() override {
    timed([&] { inner_->on_departure(); });
  }

 protected:
  void on_bind() override { inner_->bind(*ctx_); }

 private:
  std::unique_ptr<SchedulerPolicy> inner_;
};

constexpr const char* kTimedPrefix = "perfbench.";

/// Register a timed twin of every built-in policy (once per process).
void register_timed_policies() {
  static const bool done = [] {
    for (const std::string& name : sched_policy_names()) {
      register_sched_policy(kTimedPrefix + name, [name] {
        return std::make_unique<TimedPolicy>(make_sched_policy(name));
      });
    }
    return true;
  }();
  (void)done;
}

enum Layer : std::size_t {
  kProc,
  kMem,
  kDisk,
  kTier,
  kNet,
  kCore,
  kGang,
  kRecover,
  kControl,
  kFault,
  kLayers
};

std::uint64_t proc_sig(const Process& p) {
  const auto& s = p.stats();
  return s.slices + s.faults_taken + static_cast<std::uint64_t>(s.cpu_time) +
         static_cast<std::uint64_t>(s.fault_wait) +
         static_cast<std::uint64_t>(s.comm_wait) +
         static_cast<std::uint64_t>(s.stopped_time);
}

std::uint64_t space_sig(const AddressSpace& as) {
  const auto& s = as.stats();
  return s.minor_faults + s.major_faults + s.pages_swapped_in +
         s.pages_swapped_out + s.pages_clean_dropped + s.false_evictions;
}

/// Counter signatures of every layer of one run, read through the public
/// Stats after each event. Finished processes and released address spaces
/// are folded into a constant so the per-event cost tracks live state only.
class LayerProbe {
 public:
  Cluster* cluster = nullptr;
  GangScheduler* scheduler = nullptr;
  CheckpointManager* ckpt = nullptr;
  ControlPlane* plane = nullptr;
  const std::uint64_t* enter_calls = nullptr;
  const PolicyMeter* policy = nullptr;

  void add_process(const Process* p) { live_procs_.push_back(p); }
  void add_comm(const Job* job, const MpiComm* comm) {
    live_comms_.push_back({job, comm});
  }

  void signatures(std::vector<std::uint64_t>& sig) {
    sig.assign(kLayers, 0);
    std::uint64_t proc = retired_proc_;
    for (std::size_t i = 0; i < live_procs_.size();) {
      const std::uint64_t s = proc_sig(*live_procs_[i]);
      if (live_procs_[i]->finished()) {
        retired_proc_ += s;
        live_procs_[i] = live_procs_.back();
        live_procs_.pop_back();
      } else {
        ++i;
      }
      proc += s;
    }
    sig[kProc] = proc;

    const int n = cluster->size();
    if (spaces_.size() != static_cast<std::size_t>(n)) spaces_.resize(n);
    std::uint64_t mem = 0;
    for (int i = 0; i < n; ++i) {
      Node& node = cluster->node(i);
      Vmm& vmm = node.vmm();
      NodeSpaces& ns = spaces_[static_cast<std::size_t>(i)];
      const auto& pids = vmm.pids();
      for (; ns.seen < pids.size(); ++ns.seen) {
        ns.live.push_back(&vmm.space(pids[ns.seen]));
      }
      mem += ns.retired;
      for (std::size_t k = 0; k < ns.live.size();) {
        const AddressSpace& as = *ns.live[k];
        const std::uint64_t s = space_sig(as);
        if (!as.alive()) {
          ns.retired += s;
          ns.live[k] = ns.live.back();
          ns.live.pop_back();
        } else {
          ++k;
        }
        mem += s;
      }
      const auto& v = vmm.stats();
      mem += v.reclaim_steps + v.oom_waiter_releases + v.alloc_retries +
             v.io_read_failures + v.io_write_failures + v.io_retries +
             v.pages_unrecoverable + v.out_of_swap_faults + v.prefetch_aborts;

      const auto& d = node.disk().stats();
      sig[kDisk] += d.requests + d.services + d.blocks_read + d.blocks_written +
                    static_cast<std::uint64_t>(d.busy_time) + d.io_errors;
      if (const TierManager* tier = node.tier()) {
        const auto& t = tier->stats();
        const auto& p = tier->pool().stats();
        sig[kTier] += t.pool_hits + t.pool_misses + t.stores_rejected +
                      t.stores_faulted + t.writeback_pages +
                      t.writeback_failures + p.pages_stored + p.invalidations;
      }
      if (scheduler != nullptr) {
        const auto& c = scheduler->pager(i).stats();
        sig[kCore] += c.pages_recorded + c.pages_replayed + c.bg_pages_written +
                      c.aggressive_requests + c.switches + c.degradations;
      }
    }
    sig[kMem] = mem;

    const auto& net = cluster->network().stats();
    std::uint64_t comms = retired_comm_;
    for (std::size_t i = 0; i < live_comms_.size();) {
      const auto& m = live_comms_[i].second->stats();
      const std::uint64_t s = m.barriers + m.exchanges + m.allreduces;
      if (live_comms_[i].first->done()) {
        retired_comm_ += s;
        live_comms_[i] = live_comms_.back();
        live_comms_.pop_back();
      } else {
        ++i;
      }
      comms += s;
    }
    sig[kNet] = net.messages + net.bytes + *enter_calls + comms;
    if (scheduler != nullptr) {
      const auto& g = scheduler->stats();
      sig[kGang] = static_cast<std::uint64_t>(scheduler->switches()) +
                   g.signal_retransmits + static_cast<std::uint64_t>(
                       g.jobs_failed + g.nodes_failed + g.jobs_recovered +
                       g.jobs_migrated + g.migrations_failed) +
                   g.lost_pages_fatal + g.lost_pages_recovered +
                   g.migrated_pages + policy->calls;
    }
    if (ckpt != nullptr) {
      const auto& r = ckpt->stats();
      sig[kRecover] = r.checkpoints_taken + r.checkpoint_failures +
                      r.ckpt_io_retries + r.bytes_checkpointed +
                      r.pages_staged +
                      static_cast<std::uint64_t>(r.restarts_started +
                                                 r.restarts_failed) +
                      static_cast<std::uint64_t>(r.lost_work);
    }
    if (plane != nullptr) {
      const auto c = plane->stats();
      sig[kControl] = c.ticks + c.adjustments + c.policy_switches;
    }
    if (const FaultInjector* inj = cluster->fault_injector()) {
      const auto& f = inj->stats();
      sig[kFault] = f.disk_errors_injected + f.disk_requests_slowed +
                    f.signals_dropped + f.signals_delayed + f.node_crashes +
                    f.tier_stores_rejected + f.ckpt_writes_failed;
    }
  }

 private:
  struct NodeSpaces {
    std::size_t seen = 0;
    std::vector<const AddressSpace*> live;
    std::uint64_t retired = 0;
  };
  std::vector<const Process*> live_procs_;
  std::uint64_t retired_proc_ = 0;
  std::vector<std::pair<const Job*, const MpiComm*>> live_comms_;
  std::uint64_t retired_comm_ = 0;
  std::vector<NodeSpaces> spaces_;
};

SimTime trace_clock(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now();
}

/// Durations (seconds) of every completed async span named \p name.
void async_durations(const Tracer& tracer, std::string_view name,
                     std::vector<double>& out) {
  std::map<std::uint64_t, SimTime> open;
  for (const TraceEvent& ev : tracer.events()) {
    if (tracer.string(ev.name) != name) continue;
    if (ev.kind == TraceEventKind::kAsyncBegin) {
      open[ev.id] = ev.ts;
    } else if (ev.kind == TraceEventKind::kAsyncEnd) {
      const auto it = open.find(ev.id);
      if (it == open.end()) continue;
      out.push_back(to_seconds(ev.ts - it->second));
      open.erase(it);
    }
  }
}

GangParams gang_params(const ExperimentConfig& config) {
  GangParams params;
  params.quantum = config.quantum;
  params.bg_start_frac = config.bg_start_frac;
  params.pass_ws_hint = config.pass_ws_hint;
  params.pager.policy = config.policy;
  params.pager.reclaim_policy = config.reclaim_policy;
  params.sched_policy = kTimedPrefix + config.sched_policy;
  params.policy_opts.dfrs_mem_frac = config.dfrs_mem_frac;
  params.policy_opts.dfrs_max_share = config.dfrs_max_share;
  params.policy_opts.auto_migrate = config.auto_migrate;
  if (config.switch_watchdog > 0) {
    params.switch_watchdog = config.switch_watchdog;
  } else if (config.switch_watchdog == 0 &&
             config.faults.disturbs_control_plane()) {
    params.switch_watchdog = 50 * kMillisecond;
  }
  return params;
}

OpenArrivalOptions open_options(const ExperimentConfig& config) {
  OpenArrivalOptions o;
  o.process = parse_arrival_process(config.arrival_process);
  o.num_jobs = config.instances;
  o.mean_interarrival_s = config.arrival_mean_s;
  o.diurnal_period_s = config.diurnal_period_s;
  o.diurnal_low_frac = config.diurnal_low_frac;
  o.num_tenants = config.num_tenants;
  o.straggler_fraction = config.straggler_fraction;
  o.straggler_slowdown = config.straggler_slowdown;
  o.max_width = config.open_max_width;
  o.min_pages = config.open_min_pages;
  o.max_pages = config.open_max_pages;
  o.min_iterations = config.open_min_iterations;
  o.max_iterations = config.open_max_iterations;
  o.deadline_slack = config.deadline_slack;
  o.seed = config.seed;
  return o;
}

/// The objects of one traced run. Members are declared so that their
/// destruction order is run_gang's teardown order: control plane and
/// checkpoint manager before the scheduler they hook into, the scheduler
/// (with its pagers) before the tracer, and the cluster last.
struct Assembly {
  explicit Assembly(const ExperimentConfig& c)
      : config(c),
        batch(c.batch_mode),
        open(!c.batch_mode && c.arrival_process != "none") {}

  const ExperimentConfig& config;
  const bool batch;
  const bool open;  ///< open-arrival stream (run_open's assembly)
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<Process>> processes;
  std::map<int, std::unique_ptr<MpiComm>> comm_by_job;
  std::vector<OpenJobSpec> specs;
  std::size_t submitted = 0;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<BatchRunner> runner;
  std::unique_ptr<GangScheduler> scheduler;
  std::unique_ptr<CheckpointManager> ckpt;
  std::unique_ptr<ControlPlane> plane;

  [[nodiscard]] MpiComm* comm_of(int job_id) const {
    const auto it = comm_by_job.find(job_id);
    return it == comm_by_job.end() ? nullptr : it->second.get();
  }

  [[nodiscard]] bool all_done() const {
    if (open) return submitted == specs.size() && scheduler->all_finished();
    return scheduler ? scheduler->all_finished() : runner->all_finished();
  }

  /// Register one job's processes and communicator (run_gang's build_jobs
  /// and run_open's arrival handler share this tail).
  void adopt(Job& job, std::unique_ptr<MpiComm> comm, LayerProbe& probe) {
    for (const auto& placement : job.processes()) {
      probe.add_process(placement.process);
    }
    if (comm) {
      probe.add_comm(&job, comm.get());
      comm_by_job.emplace(job.id(), std::move(comm));
    }
  }

  /// The fixed NPB job set of run_gang / run_batch.
  void build_fixed_jobs(LayerProbe& probe) {
    const WorkloadSpec spec = npb_spec(config.app, config.cls);
    const std::int64_t npages = spec.footprint_pages(config.nodes);
    for (int j = 0; j < config.instances; ++j) {
      const std::string job_name = std::string(to_string(config.app)) + "." +
                                   std::string(to_string(config.cls)) + "#" +
                                   std::to_string(j);
      Job& job = batch ? runner->create_job(job_name)
                       : scheduler->create_job(job_name);
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
        auto& node = cluster->node(n);
        const Pid pid = node.vmm().create_process(npages);
        NpbBuildOptions options;
        options.nprocs = config.nodes;
        options.seed = config.seed * 7919 +
                       static_cast<std::uint64_t>(j) * 131 +
                       static_cast<std::uint64_t>(n);
        options.iterations_scale = config.iterations_scale;
        auto process = std::make_unique<Process>(
            job_name + ":r" + std::to_string(n), pid,
            build_npb_program(spec, options));
        node.cpu().attach(*process);
        if (comm) comm->bind(n, *process, n);
        job.add_process(n, *process);
        processes.push_back(std::move(process));
      }
      adopt(job, std::move(comm), probe);
    }
  }

  /// run_open's arrival events; each one's set-up time goes to \p jobs_ns.
  void schedule_open_arrivals(LayerProbe& probe, double& jobs_ns) {
    specs = make_open_arrivals(open_options(config), config.nodes);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const OpenJobSpec* spec = &specs[i];
      const std::string name = "t" + std::to_string(spec->tenant) + ".open#" +
                               std::to_string(i);
      cluster->sim().at(spec->arrival, [this, &probe, &jobs_ns, spec, name] {
        HostSpan span(jobs_ns);
        const std::vector<int> nodes = spec->placement(config.nodes);
        Job& job = scheduler->submit_job(name);
        job.declared_ws_pages = spec->pages;
        job.deadline = spec->deadline;
        job.estimated_runtime = spec->estimated_runtime;
        job.tenant = spec->tenant;
        if (config.quantum_override) {
          job.quantum_override = config.quantum_override;
        }
        std::unique_ptr<MpiComm> comm;
        if (spec->width > 1) {
          comm = std::make_unique<MpiComm>(cluster->sim(), cluster->network(),
                                           spec->width);
        }
        for (int r = 0; r < spec->width; ++r) {
          const int node_index = nodes[static_cast<std::size_t>(r)];
          auto& node = cluster->node(node_index);
          const Pid pid = node.vmm().create_process(spec->pages);
          auto process = std::make_unique<Process>(
              name + ":r" + std::to_string(r), pid,
              make_open_job_program(*spec, r));
          node.cpu().attach(*process);
          if (comm) comm->bind(r, *process, node_index);
          job.add_process(node_index, *process);
          processes.push_back(std::move(process));
        }
        adopt(job, std::move(comm), probe);
        scheduler->start_job(job);
        ++submitted;
      });
    }
  }

  /// The tracer on the switch path, and the checkpoint manager and control
  /// plane exactly when run_gang builds them (run_open builds neither).
  void attach_subsystems() {
    tracer = std::make_unique<Tracer>(&cluster->sim(), trace_clock);
    scheduler->set_tracer(tracer.get());
    for (int n = 0; n < cluster->size(); ++n) {
      scheduler->pager(n).set_tracer(tracer.get(), trace_track(n, kTrackSched));
    }
    if (open) return;
    if (config.checkpoint_interval > 0) {
      CheckpointParams cparams;
      cparams.interval = config.checkpoint_interval;
      cparams.incremental = config.ckpt_incremental;
      cparams.max_retries = config.ckpt_max_retries;
      cparams.placement = config.restart_placement;
      cparams.lost_work = config.lost_work_model;
      ckpt = std::make_unique<CheckpointManager>(*cluster, *scheduler, cparams);
      ckpt->set_comm_resolver([this](int id) { return comm_of(id); });
    }
    if (config.autotune) {
      ControlPlaneParams pparams;
      pparams.controller = config.autotune_controller;
      pparams.interval = config.autotune_interval;
      pparams.tune_policy = config.autotune_policy;
      plane = std::make_unique<ControlPlane>(*cluster, *scheduler, pparams);
    }
  }

  /// The RunOutcome exactly as run_gang / run_batch / run_open fill it.
  [[nodiscard]] RunOutcome collect(bool finished) const {
    RunOutcome out;
    out.label = config.describe() + (batch ? " [batch]" : "");
    out.policy = batch  ? "batch"
                 : open ? config.sched_policy
                        : config.policy.to_string();
    const auto& jobs = batch ? runner->jobs() : scheduler->jobs();
    out.makespan =
        finished ? (batch ? runner->makespan() : scheduler->makespan()) : -1;
    for (const auto& job : jobs) {
      JobOutcome jo;
      jo.name = job->name();
      jo.completion = job->finished_at();
      jo.failed = job->failed();
      if (open) jo.arrival = job->arrival;
      if (jo.failed) ++out.jobs_failed;
      if (open && !jo.failed && jo.completion >= 0) {
        jo.slowdown = apsim::bounded_slowdown(
            job->arrival, jo.completion, job->estimated_runtime.value_or(0));
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
      if (open) continue;  // run_open collects no tier counters
      if (const TierManager* tier = node.tier()) {
        const auto& tstats = tier->stats();
        out.tier_pool_hits += tstats.pool_hits;
        out.tier_pool_misses += tstats.pool_misses;
        out.tier_writeback_pages += tstats.writeback_pages;
        const auto& pstats = tier->pool().stats();
        out.tier_pages_stored += pstats.pages_stored;
        out.tier_bytes_stored += pstats.bytes_stored;
      }
    }
    if (scheduler) {
      out.switches = scheduler->switches();
      for (int n = 0; n < cluster->size(); ++n) {
        const auto& stats = scheduler->pager(n).stats();
        out.pages_recorded += stats.pages_recorded;
        out.pages_replayed += stats.pages_replayed;
        out.bg_pages_written += stats.bg_pages_written;
      }
      const auto& g = scheduler->stats();
      out.nodes_failed = g.nodes_failed;
      out.signal_retransmits = g.signal_retransmits;
      out.jobs_recovered = g.jobs_recovered;
      out.lost_pages_recovered = g.lost_pages_recovered;
      out.lost_pages_fatal = g.lost_pages_fatal;
      if (open) {
        out.jobs_migrated = g.jobs_migrated;
        out.migration_bytes = g.migration_bytes;
      }
    }
    if (ckpt) {
      const auto& c = ckpt->stats();
      out.checkpoints_taken = c.checkpoints_taken;
      out.checkpoint_failures = c.checkpoint_failures;
      out.ckpt_io_retries = c.ckpt_io_retries;
      out.bytes_checkpointed = c.bytes_checkpointed;
      out.pages_staged = c.pages_staged;
      out.restarts_failed = c.restarts_failed;
      out.lost_work_ms = to_seconds(c.lost_work) * 1000.0;
      for (std::size_t i = 0; i < out.jobs.size() && i < jobs.size(); ++i) {
        out.jobs[i].recovered = ckpt->restarts_of(jobs[i]->id()) > 0;
      }
    }
    if (plane) {
      const auto p = plane->stats();
      out.autotune_ticks = p.ticks;
      out.autotune_adjustments = p.adjustments;
      out.autotune_policy_switches = p.policy_switches;
    }
    return out;
  }
};

}  // namespace

/// Everything the traced runs of one workload add up.
struct TracedRuns::Totals {
  // sim
  std::uint64_t events = 0;
  double sim_s = 0.0;
  std::vector<float> event_us;  ///< host time of every event
  std::size_t pending_max = 0;
  double event_host_ns = 0.0;
  LayerAttribution layers{kLayers};
  // proc
  std::uint64_t slices = 0;
  double cpu_s = 0, fault_wait_s = 0, comm_wait_s = 0, stopped_s = 0;
  // mem
  std::uint64_t minor = 0, major = 0, swapped_in = 0, swapped_out = 0;
  std::uint64_t clean_dropped = 0, false_evictions = 0, reclaim_steps = 0;
  std::uint64_t alloc_retries = 0, oom_releases = 0, io_retries = 0;
  std::uint64_t prefetch_aborts = 0, unrecoverable = 0;
  // disk
  std::uint64_t requests = 0, services = 0, blocks_read = 0, blocks_written = 0;
  std::uint64_t io_errors = 0;
  std::size_t max_queue_depth = 0;
  double busy_s = 0.0, disk_span_s = 0.0;
  // tier
  std::uint64_t pool_hits = 0, pool_misses = 0, stores_rejected = 0;
  std::uint64_t writeback_pages = 0, writeback_failures = 0;
  // net
  std::uint64_t messages = 0, bytes = 0, barriers = 0, exchanges = 0;
  std::uint64_t allreduces = 0, enter_calls = 0;
  double enter_ns = 0.0;
  // core
  std::uint64_t recorded = 0, replayed = 0, bg_written = 0, aggressive = 0;
  std::uint64_t degradations = 0;
  std::vector<double> page_out_s, page_in_s, switch_s;
  // gang
  std::uint64_t switches = 0, retransmits = 0, migrated = 0;
  PolicyMeter policy;
  // recover
  std::uint64_t checkpoints = 0, ckpt_failures = 0, ckpt_retries = 0;
  std::uint64_t ckpt_bytes = 0, pages_staged = 0, recovered = 0;
  std::uint64_t restarts_failed = 0;
  // control
  std::uint64_t ticks = 0, adjustments = 0, policy_switches = 0;
  // fault
  std::uint64_t nodes_failed = 0, jobs_failed = 0;
  // harness
  double cluster_ns = 0.0, jobs_ns = 0.0, traced_host_s = 0.0;

  /// Add one finished run's counters, read from the same public Stats.
  void add_run(const Assembly& a, const RunOutcome& out) {
    Simulator& sim = a.cluster->sim();
    events += sim.events_dispatched();
    sim_s += to_seconds(sim.now());
    for (const auto& p : a.processes) {
      const auto& s = p->stats();
      slices += s.slices;
      cpu_s += to_seconds(s.cpu_time);
      fault_wait_s += to_seconds(s.fault_wait);
      comm_wait_s += to_seconds(s.comm_wait);
      stopped_s += to_seconds(s.stopped_time);
    }
    for (int n = 0; n < a.cluster->size(); ++n) {
      auto& node = a.cluster->node(n);
      Vmm& vmm = node.vmm();
      for (const Pid pid : vmm.pids()) {
        const auto& s = vmm.space(pid).stats();
        minor += s.minor_faults;
        major += s.major_faults;
        swapped_in += s.pages_swapped_in;
        swapped_out += s.pages_swapped_out;
        clean_dropped += s.pages_clean_dropped;
        false_evictions += s.false_evictions;
      }
      const auto& v = vmm.stats();
      reclaim_steps += v.reclaim_steps;
      alloc_retries += v.alloc_retries;
      oom_releases += v.oom_waiter_releases;
      io_retries += v.io_retries;
      prefetch_aborts += v.prefetch_aborts;
      unrecoverable += v.pages_unrecoverable + v.out_of_swap_faults;
      const auto& d = node.disk().stats();
      requests += d.requests;
      services += d.services;
      blocks_read += d.blocks_read;
      blocks_written += d.blocks_written;
      io_errors += d.io_errors;
      busy_s += to_seconds(d.busy_time);
      disk_span_s += to_seconds(sim.now());
      max_queue_depth = std::max(max_queue_depth, d.max_queue_depth);
      if (const TierManager* tier = node.tier()) {
        const auto& ts = tier->stats();
        pool_hits += ts.pool_hits;
        pool_misses += ts.pool_misses;
        stores_rejected += ts.stores_rejected;
        writeback_pages += ts.writeback_pages;
        writeback_failures += ts.writeback_failures;
      }
      if (a.scheduler) {
        const auto& c = a.scheduler->pager(n).stats();
        recorded += c.pages_recorded;
        replayed += c.pages_replayed;
        bg_written += c.bg_pages_written;
        aggressive += c.aggressive_requests;
        degradations += c.degradations;
      }
    }
    messages += a.cluster->network().stats().messages;
    bytes += a.cluster->network().stats().bytes;
    for (const auto& [id, comm] : a.comm_by_job) {
      barriers += comm->stats().barriers;
      exchanges += comm->stats().exchanges;
      allreduces += comm->stats().allreduces;
    }
    if (a.scheduler) {
      const auto& g = a.scheduler->stats();
      switches += static_cast<std::uint64_t>(a.scheduler->switches());
      retransmits += g.signal_retransmits;
      migrated += static_cast<std::uint64_t>(g.jobs_migrated);
      nodes_failed += static_cast<std::uint64_t>(g.nodes_failed);
      recovered += static_cast<std::uint64_t>(g.jobs_recovered);
      async_durations(*a.tracer, "page_out", page_out_s);
      async_durations(*a.tracer, "page_in", page_in_s);
      async_durations(*a.tracer, "switch", switch_s);
    }
    jobs_failed += static_cast<std::uint64_t>(out.jobs_failed);
    if (a.ckpt) {
      const auto& c = a.ckpt->stats();
      checkpoints += c.checkpoints_taken;
      ckpt_failures += c.checkpoint_failures;
      ckpt_retries += c.ckpt_io_retries;
      ckpt_bytes += c.bytes_checkpointed;
      pages_staged += c.pages_staged;
      restarts_failed += static_cast<std::uint64_t>(c.restarts_failed);
    }
    if (a.plane) {
      const auto p = a.plane->stats();
      ticks += p.ticks;
      adjustments += p.adjustments;
      policy_switches += p.policy_switches;
    }
  }
};

TracedRuns::TracedRuns() : totals_(std::make_unique<Totals>()) {
  register_timed_policies();
}

TracedRuns::~TracedRuns() = default;

RunOutcome TracedRuns::run(const ExperimentConfig& config) {
  Totals& t = *totals_;
  const auto run_start = Clock::now();
  RunOutcome out;
  {
    config.validate();
    Assembly a(config);
    std::uint64_t enter_calls = 0;
    PolicyMeter policy;
    g_policy_meter = &policy;
    LayerProbe probe;
    probe.enter_calls = &enter_calls;
    probe.policy = &policy;

    {
      HostSpan span(t.cluster_ns);
      a.cluster = std::make_unique<Cluster>(
          config.nodes, config.make_node_params(), config.make_net_params(),
          config.seed, config.faults);
      if (a.batch) {
        if (config.reclaim_policy != "clock-lru") {
          for (int n = 0; n < a.cluster->size(); ++n) {
            a.cluster->node(n).vmm().set_reclaim_policy(
                make_reclaim_policy(config.reclaim_policy));
          }
        }
        a.runner = std::make_unique<BatchRunner>(*a.cluster);
      } else {
        a.scheduler =
            std::make_unique<GangScheduler>(*a.cluster, gang_params(config));
      }
    }
    probe.cluster = a.cluster.get();
    probe.scheduler = a.scheduler.get();

    // Every CPU routes comm ops through the job's communicator; the handler
    // times MpiComm::enter from outside. run_gang / run_batch install it after
    // building the jobs (multi-node only), run_open before any arrival.
    auto install_comm_handlers = [&] {
      for (int n = 0; n < a.cluster->size(); ++n) {
        a.cluster->node(n).cpu().set_comm_handler(
            [&](Process& p, const CommOp& op, std::function<void()> resume) {
              ++enter_calls;
              HostSpan span(t.enter_ns);
              a.comm_by_job.at(p.job_id)->enter(p, op, std::move(resume));
            });
      }
    };
    auto comm_resolver = [&a](int job_id) { return a.comm_of(job_id); };
    if (a.open) {
      install_comm_handlers();
      a.scheduler->set_comm_resolver(comm_resolver);
      HostSpan span(t.jobs_ns);
      a.schedule_open_arrivals(probe, t.jobs_ns);
    } else {
      {
        HostSpan span(t.jobs_ns);
        a.build_fixed_jobs(probe);
      }
      if (config.nodes > 1) install_comm_handlers();
      if (a.scheduler) a.scheduler->set_comm_resolver(comm_resolver);
    }
    if (a.scheduler) {
      HostSpan span(t.cluster_ns);
      a.attach_subsystems();
    }
    probe.ckpt = a.ckpt.get();
    probe.plane = a.plane.get();

    if (a.scheduler) {
      a.scheduler->start();
    } else {
      a.runner->start();
    }
    if (a.ckpt) a.ckpt->start();
    if (a.plane) a.plane->start();

    // One host timestamp per event, taken in the predicate run_until checks
    // after every dispatch. The probe's own cost is excluded: the next event's
    // clock starts when the predicate returns.
    Simulator& sim = a.cluster->sim();
    std::vector<std::uint64_t> sig;
    bool primed = false;
    Clock::time_point last_end;
    const bool finished = sim.run_until(
        [&] {
          const auto now = Clock::now();
          probe.signatures(sig);
          if (primed) {
            const double ns = ns_between(last_end, now);
            t.event_host_ns += ns;
            t.event_us.push_back(static_cast<float>(ns / 1000.0));
            t.layers.observe(ns, sig);
            t.pending_max = std::max(t.pending_max, sim.pending_events());
          } else {
            t.layers.prime(sig);
            primed = true;
          }
          const bool done = a.all_done();
          last_end = Clock::now();
          return done;
        },
        config.horizon);
    g_policy_meter = nullptr;

    out = a.collect(finished);
    t.add_run(a, out);
    t.enter_calls += enter_calls;
    t.policy.calls += policy.calls;
    t.policy.host_ns += policy.host_ns;
  }  // the Assembly's teardown counts toward the traced host time too
  last_host_s_ = ns_between(run_start, Clock::now()) / 1e9;
  t.traced_host_s += last_host_s_;
  return out;
}

std::vector<Metric> TracedRuns::metrics(double untraced_host_s) const {
  const Totals& t = *totals_;
  const auto d = [](auto v) { return static_cast<double>(v); };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const Percentile ev50 = percentile(t.event_us, 50.0);
  const Percentile ev99 = percentile(t.event_us, 99.0);
  std::size_t slow = 0;
  for (float us : t.event_us) slow += us > 100.0f ? 1 : 0;
  const Percentile out50 = percentile(t.page_out_s, 50.0);
  const Percentile out95 = percentile(t.page_out_s, 95.0);
  const Percentile in50 = percentile(t.page_in_s, 50.0);
  const Percentile in95 = percentile(t.page_in_s, 95.0);
  const Percentile sw50 = percentile(t.switch_s, 50.0);
  const Percentile sw95 = percentile(t.switch_s, 95.0);
  const auto layer_ms = [&](Layer l) { return t.layers.host_ms(l); };

  std::vector<Metric> m = {
      {"sim.events", d(t.events), "count"},
      {"sim.events_per_s", ratio(d(t.events), untraced_host_s), "1/s"},
      {"sim.sim_s_per_wall_s", ratio(t.sim_s, untraced_host_s), "s/s"},
      {"sim.event_us.p50", ev50.value, "us"},
      {"sim.event_us.p99", ev99.value, "us"},
      {"sim.event_us.n", d(ev99.samples), "count"},
      {"sim.slow_events", d(slow), "count"},
      {"sim.pending_max", d(t.pending_max), "count"},
      {"sim.event_host_ms", t.event_host_ns / 1e6, "ms"},
      {"sim.unattributed_host_ms", t.layers.unattributed_ms(), "ms"},

      {"proc.slices", d(t.slices), "count"},
      {"proc.event_host_ms", layer_ms(kProc), "ms"},
      {"proc.cpu_s", t.cpu_s, "s"},
      {"proc.fault_wait_s", t.fault_wait_s, "s"},
      {"proc.comm_wait_s", t.comm_wait_s, "s"},
      {"proc.stopped_s", t.stopped_s, "s"},

      {"mem.minor_faults", d(t.minor), "count"},
      {"mem.major_faults", d(t.major), "count"},
      {"mem.pages_swapped_in", d(t.swapped_in), "count"},
      {"mem.pages_swapped_out", d(t.swapped_out), "count"},
      {"mem.pages_clean_dropped", d(t.clean_dropped), "count"},
      {"mem.false_evictions", d(t.false_evictions), "count"},
      {"mem.false_eviction_ratio",
       ratio(d(t.false_evictions), d(t.swapped_out + t.clean_dropped)),
       "ratio"},
      {"mem.reclaim_steps", d(t.reclaim_steps), "count"},
      {"mem.alloc_retries", d(t.alloc_retries), "count"},
      {"mem.oom_waiter_releases", d(t.oom_releases), "count"},
      {"mem.io_retries", d(t.io_retries), "count"},
      {"mem.prefetch_aborts", d(t.prefetch_aborts), "count"},
      {"mem.pages_unrecoverable", d(t.unrecoverable), "count"},
      {"mem.event_host_ms", layer_ms(kMem), "ms"},

      {"disk.requests", d(t.requests), "count"},
      {"disk.services", d(t.services), "count"},
      {"disk.merge_ratio", ratio(d(t.requests), d(t.services)), "ratio"},
      {"disk.blocks_read", d(t.blocks_read), "count"},
      {"disk.blocks_written", d(t.blocks_written), "count"},
      {"disk.busy_s", t.busy_s, "s"},
      {"disk.utilization", ratio(t.busy_s, t.disk_span_s), "ratio"},
      {"disk.max_queue_depth", d(t.max_queue_depth), "count"},
      {"disk.io_errors", d(t.io_errors), "count"},
      {"disk.event_host_ms", layer_ms(kDisk), "ms"},

      {"tier.pool_hits", d(t.pool_hits), "count"},
      {"tier.pool_misses", d(t.pool_misses), "count"},
      {"tier.hit_ratio", ratio(d(t.pool_hits), d(t.pool_hits + t.pool_misses)),
       "ratio"},
      {"tier.stores_rejected", d(t.stores_rejected), "count"},
      {"tier.writeback_pages", d(t.writeback_pages), "count"},
      {"tier.writeback_failures", d(t.writeback_failures), "count"},
      {"tier.event_host_ms", layer_ms(kTier), "ms"},

      {"net.messages", d(t.messages), "count"},
      {"net.bytes", d(t.bytes), "bytes"},
      {"net.barriers", d(t.barriers), "count"},
      {"net.exchanges", d(t.exchanges), "count"},
      {"net.allreduces", d(t.allreduces), "count"},
      {"net.enter_calls", d(t.enter_calls), "count"},
      {"net.enter_host_ms", t.enter_ns / 1e6, "ms"},
      {"net.event_host_ms", layer_ms(kNet), "ms"},

      {"core.pages_recorded", d(t.recorded), "count"},
      {"core.pages_replayed", d(t.replayed), "count"},
      {"core.bg_pages_written", d(t.bg_written), "count"},
      {"core.aggressive_requests", d(t.aggressive), "count"},
      {"core.degradations", d(t.degradations), "count"},
      {"core.page_out_s.p50", out50.value, "s"},
      {"core.page_out_s.p95", out95.value, "s"},
      {"core.page_out_s.n", d(out95.samples), "count"},
      {"core.page_in_s.p50", in50.value, "s"},
      {"core.page_in_s.p95", in95.value, "s"},
      {"core.page_in_s.n", d(in95.samples), "count"},
      {"core.event_host_ms", layer_ms(kCore), "ms"},

      {"gang.switches", d(t.switches), "count"},
      {"gang.switch_s.p50", sw50.value, "s"},
      {"gang.switch_s.p95", sw95.value, "s"},
      {"gang.switch_s.n", d(sw95.samples), "count"},
      {"gang.signal_retransmits", d(t.retransmits), "count"},
      {"gang.jobs_migrated", d(t.migrated), "count"},
      {"gang.policy_calls", d(t.policy.calls), "count"},
      {"gang.policy_host_ms", t.policy.host_ns / 1e6, "ms"},
      {"gang.event_host_ms", layer_ms(kGang), "ms"},

      {"recover.checkpoints", d(t.checkpoints), "count"},
      {"recover.checkpoint_failures", d(t.ckpt_failures), "count"},
      {"recover.ckpt_io_retries", d(t.ckpt_retries), "count"},
      {"recover.bytes_checkpointed", d(t.ckpt_bytes), "bytes"},
      {"recover.pages_staged", d(t.pages_staged), "count"},
      {"recover.jobs_recovered", d(t.recovered), "count"},
      {"recover.restarts_failed", d(t.restarts_failed), "count"},
      {"recover.event_host_ms", layer_ms(kRecover), "ms"},

      {"control.ticks", d(t.ticks), "count"},
      {"control.adjustments", d(t.adjustments), "count"},
      {"control.adjust_ratio", ratio(d(t.adjustments), d(t.ticks)), "ratio"},
      {"control.policy_switches", d(t.policy_switches), "count"},
      {"control.event_host_ms", layer_ms(kControl), "ms"},

      {"fault.nodes_failed", d(t.nodes_failed), "count"},
      {"fault.jobs_failed", d(t.jobs_failed), "count"},
      {"fault.event_host_ms", layer_ms(kFault), "ms"},

      {"setup.cluster_ms", t.cluster_ns / 1e6, "ms"},
      {"setup.jobs_ms", t.jobs_ns / 1e6, "ms"},
      {"trace.overhead_pct",
       untraced_host_s > 0.0
           ? 100.0 * (t.traced_host_s - untraced_host_s) / untraced_host_s
           : 0.0,
       "%"},
  };
  return m;
}

}  // namespace perfbench
