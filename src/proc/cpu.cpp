#include "proc/cpu.hpp"

#include <algorithm>
#include <cassert>

namespace apsim {

void Cpu::attach(Process& p) {
  assert(p.state_ == ProcState::kStopped);
  p.space_ = &vmm_.space(p.pid());
  p.stopped_since_ = sim_.now();
  attached_.push_back(&p);
}

void Cpu::cont_process(Process& p) {
  if (p.dead()) return;
  p.stop_requested_ = false;
  if (p.state_ == ProcState::kStopped) {
    p.stats_.stopped_time += sim_.now() - p.stopped_since_;
    make_runnable(p);
  }
  // Blocked states resume naturally; kReady/kRunning unaffected.
}

void Cpu::stop_process(Process& p) {
  if (p.dead()) return;
  p.stop_requested_ = true;
  if (p.state_ == ProcState::kReady) {
    std::erase(ready_, &p);
    ++p.run_gen_;
    p.state_ = ProcState::kStopped;
    p.stopped_since_ = sim_.now();
  }
  // kRunning: the active continuation observes the flag at its boundary.
  // kBlocked*: unblock() applies the flag when the wait completes.
}

void Cpu::kill_process(Process& p) {
  if (p.dead()) return;
  if (p.state_ == ProcState::kStopped) {
    p.stats_.stopped_time += sim_.now() - p.stopped_since_;
  }
  std::erase(ready_, &p);
  ++p.run_gen_;  // drop every pending continuation
  p.state_ = ProcState::kFailed;
  if (current_ == &p) current_ = nullptr;
  dispatch();
}

void Cpu::kill_all() {
  for (Process* p : attached_) kill_process(*p);
}

void Cpu::detach(Process& p) {
  std::erase(attached_, &p);
  std::erase(ready_, &p);
  if (current_ == &p) current_ = nullptr;
}

void Cpu::adopt(Process& p, Pid new_pid) {
  assert(p.dead());
  p.pid_ = new_pid;
  p.space_ = &vmm_.space(new_pid);
  ++p.run_gen_;  // drop anything still in flight from the previous life
  p.state_ = ProcState::kStopped;
  p.stop_requested_ = true;
  p.stopped_since_ = sim_.now();
  if (std::find(attached_.begin(), attached_.end(), &p) == attached_.end()) {
    attached_.push_back(&p);
  }
}

void Cpu::make_runnable(Process& p) {
  assert(!p.dead());
  p.state_ = ProcState::kReady;
  ready_.push_back(&p);
  dispatch();
}

void Cpu::dispatch() {
  if (current_ != nullptr || ready_.empty()) return;
  Process& p = *ready_.front();
  ready_.pop_front();
  current_ = &p;
  p.state_ = ProcState::kRunning;
  ++p.stats_.slices;
  const std::uint64_t gen = ++p.run_gen_;
  sim_.after(params_.context_switch, [this, &p, gen] {
    if (p.run_gen_ != gen || p.state_ != ProcState::kRunning) return;
    run_slice(p);
  });
}

void Cpu::run_slice(Process& p) {
  assert(p.state_ == ProcState::kRunning);
  if (p.stop_requested_) {
    do_stop(p);
    return;
  }
  if (!p.op_active_) {
    p.current_op_ = p.program_->next();
    p.op_active_ = true;
    p.op_pos_ = 0;
    if (params_.batched_touch && p.current_op_.kind == Op::Kind::kAccess) {
      // Hoist the chunk's loop invariants (a zipf chunk's rank table) once
      // per op instead of per touch.
      p.touch_plan_ = p.current_op_.access.prepare();
    }
  }
  switch (p.current_op_.kind) {
    case Op::Kind::kDone:
      finish(p);
      return;
    case Op::Kind::kCompute:
      run_compute(p);
      return;
    case Op::Kind::kComm:
      run_comm(p);
      return;
    case Op::Kind::kAccess:
      run_access(p);
      return;
  }
}

void Cpu::run_access(Process& p) {
  const AccessChunk& chunk = p.current_op_.access;
  assert(p.space_ != nullptr);

  SimDuration accum = 0;
  bool faulted = false;
  VPage fault_page = -1;
  if (params_.batched_touch) {
    // Batched fast path: hand the whole slice budget to the VMM in one call.
    // The scalar loop below stops once accum >= slice, i.e. after
    // ceil(slice / compute_per_touch) touches (the whole chunk when touches
    // cost nothing); touch_run applies exactly that prefix, stopping early
    // only at the first non-resident page.
    const std::int64_t remaining = chunk.touches - p.op_pos_;
    const SimDuration cpt = chunk.compute_per_touch;
    std::int64_t budget = remaining;
    if (cpt > 0) {
      budget = std::min<std::int64_t>(remaining, (params_.slice + cpt - 1) / cpt);
    }
    const Vmm::TouchRun run =
        vmm_.touch_run(*p.space_, p.touch_plan_, p.op_pos_, budget);
    accum = static_cast<SimDuration>(run.consumed) * cpt;
    p.op_pos_ += run.consumed;
    faulted = run.faulted;
    fault_page = run.fault_page;
  } else {
    while (p.op_pos_ < chunk.touches) {
      const VPage page = chunk.page_at(p.op_pos_);
      if (vmm_.touch(*p.space_, page, chunk.write)) {
        accum += chunk.compute_per_touch;
        ++p.op_pos_;
        if (accum >= params_.slice) break;
      } else {
        faulted = true;
        fault_page = page;
        break;
      }
    }
  }
  p.stats_.cpu_time += accum;
  busy_time_ += accum;
  const bool chunk_done = p.op_pos_ >= chunk.touches;

  continue_after(p, accum, [this, faulted, fault_page,
                            chunk_done](Process& proc) {
    if (chunk_done) {
      proc.op_active_ = false;
      yield_or_continue(proc);
      return;
    }
    if (faulted) {
      proc.state_ = ProcState::kBlockedFault;
      ++proc.run_gen_;
      proc.blocked_since_ = sim_.now();
      ++proc.stats_.faults_taken;
      if (current_ == &proc) {
        current_ = nullptr;
        dispatch();
      }
      const bool write = proc.current_op_.access.write;
      const std::uint64_t fgen = proc.run_gen_;
      vmm_.fault(proc.pid(), fault_page, write, [this, &proc, fgen] {
        // A process killed and later revived by the checkpoint manager must
        // not be touched by its previous life's fault completion.
        if (proc.run_gen_ != fgen ||
            proc.state_ != ProcState::kBlockedFault) {
          return;
        }
        proc.stats_.fault_wait += sim_.now() - proc.blocked_since_;
        ++proc.op_pos_;  // the VMM touched the page on completion
        unblock(proc);
      });
      return;
    }
    yield_or_continue(proc);  // slice budget exhausted
  });
}

void Cpu::run_compute(Process& p) {
  const SimDuration total = p.current_op_.compute;
  const SimDuration remaining = total - p.op_pos_;
  const SimDuration step = std::min(remaining, params_.max_compute_step);
  p.stats_.cpu_time += step;
  busy_time_ += step;
  continue_after(p, step, [this, step, total](Process& proc) {
    proc.op_pos_ += step;
    if (proc.op_pos_ >= total) {
      proc.op_active_ = false;
    }
    yield_or_continue(proc);
  });
}

void Cpu::run_comm(Process& p) {
  p.state_ = ProcState::kBlockedComm;
  const std::uint64_t gen = ++p.run_gen_;
  p.blocked_since_ = sim_.now();
  if (current_ == &p) {
    current_ = nullptr;
    dispatch();
  }
  auto resume = [this, &p, gen] {
    // Drop resumes aimed at a previous life of the process (killed while
    // blocked, then restarted from a checkpoint).
    if (p.run_gen_ != gen || p.state_ != ProcState::kBlockedComm) return;
    p.stats_.comm_wait += sim_.now() - p.blocked_since_;
    p.op_active_ = false;
    unblock(p);
  };
  if (comm_) {
    comm_(p, p.current_op_.comm, std::move(resume));
  } else {
    sim_.after(0, std::move(resume));
  }
}

void Cpu::yield_or_continue(Process& p) {
  if (!ready_.empty()) {
    // Round robin: give way to waiting processes.
    assert(current_ == &p);
    current_ = nullptr;
    ++p.run_gen_;
    p.state_ = ProcState::kReady;
    ready_.push_back(&p);
    dispatch();
    return;
  }
  run_slice(p);
}

void Cpu::unblock(Process& p) {
  if (p.dead()) return;  // killed or finished while the wait was in flight
  assert(p.state_ == ProcState::kBlockedFault ||
         p.state_ == ProcState::kBlockedComm);
  if (p.stop_requested_) {
    p.state_ = ProcState::kStopped;
    p.stopped_since_ = sim_.now();
    return;
  }
  make_runnable(p);
}

void Cpu::do_stop(Process& p) {
  assert(p.state_ == ProcState::kRunning);
  ++p.run_gen_;
  p.state_ = ProcState::kStopped;
  p.stopped_since_ = sim_.now();
  if (current_ == &p) {
    current_ = nullptr;
    dispatch();
  }
}

void Cpu::finish(Process& p) {
  assert(p.state_ == ProcState::kRunning);
  ++p.run_gen_;
  p.state_ = ProcState::kFinished;
  p.stats_.finished_at = sim_.now();
  if (current_ == &p) {
    current_ = nullptr;
  }
  if (p.on_finish) p.on_finish(p);
  dispatch();
}

}  // namespace apsim
