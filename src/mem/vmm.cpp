#include "mem/vmm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <numeric>
#include <utility>

#include "mem/reclaim_registry.hpp"
#include "tier/tier_manager.hpp"

namespace apsim {

Vmm::Vmm(Simulator& sim, SwapDevice& swap, VmmParams params)
    : sim_(sim), swap_(swap), params_(params), frames_(params.total_frames),
      log_("vmm", &sim, &Vmm::clock_thunk, LogLevel::kWarn),
      policy_(make_reclaim_policy("clock-lru")) {
  assert(params_.freepages_min <= params_.freepages_low);
  assert(params_.freepages_low <= params_.freepages_high);
  assert(params_.page_cluster >= 1);
}

void Vmm::swap_read(SlotRun run, IoPriority priority, IoCallback on_complete) {
  if (tier_ != nullptr) {
    tier_->read(run, priority, std::move(on_complete));
  } else {
    swap_.read(run, priority, std::move(on_complete));
  }
}

void Vmm::swap_write(SlotRun run, IoPriority priority, IoCallback on_complete) {
  if (tier_ != nullptr) {
    tier_->write(run, priority, std::move(on_complete));
  } else {
    swap_.write(run, priority, std::move(on_complete));
  }
}

// ---------------------------------------------------------------------------
// Process lifecycle

Pid Vmm::create_process(std::int64_t num_pages) {
  assert(num_pages > 0);
  const Pid pid = next_pid_++;
  spaces_.emplace(pid, std::make_unique<AddressSpace>(pid, num_pages));
  pids_.push_back(pid);
  return pid;
}

void Vmm::release_process(Pid pid) {
  auto& as = space(pid);
  as.alive_ = false;
  auto& pt = as.page_table();
  // Only live pages (present or holding a swap copy) need teardown work;
  // every in-flight page is live too (a read keeps its slot, a write keeps
  // the page mapped), so the word scan visits everything the full walk did.
  // In-flight pages are left to land_read/release_read/land_write.
  const std::int64_t npages = pt.num_pages();
  for (VPage v = pt.next_live(0); v < npages; v = pt.next_live(v + 1)) {
    if (!pt.at(v).io_busy()) drop_page(as, v);
  }
  // Freed frames and slots are reclaim progress: clear any stall.
  reclaim_stalled_ = false;
  write_failure_streak_ = 0;
  std::erase_if(stalled_retry_counts_,
                [pid](const auto& kv) { return kv.first.first == pid; });
  kick_reclaim();  // freed frames may satisfy waiters
}

AddressSpace& Vmm::space(Pid pid) {
  auto it = spaces_.find(pid);
  assert(it != spaces_.end() && "unknown pid");
  return *it->second;
}

const AddressSpace& Vmm::space(Pid pid) const {
  auto it = spaces_.find(pid);
  assert(it != spaces_.end() && "unknown pid");
  return *it->second;
}

// ---------------------------------------------------------------------------
// Hot path
//
// The touch rule: touching a resident page sets its referenced bit and
// last_ref, marks it seen in this working-set epoch and, for a write, dirty.
// A page dirtied anew drops its swap copy, now stale, unless a transfer holds
// the page (its landing drops the copy then). The rule has one page form
// (touch_page) and one word form (touch_word); every touch goes through one.

bool Vmm::touch(Pid pid, VPage vpage, bool write) {
  return touch(space(pid), vpage, write);
}

bool Vmm::touch(AddressSpace& as, VPage vpage, bool write) {
  if (!as.pt_.at(vpage).present()) return false;
  as.ws_pages_ += touch_page(as, as.pt_.hot_rows(), vpage, sim_.now(), write);
  return true;
}

inline std::int64_t Vmm::touch_page(AddressSpace& as,
                                    const PageTable::HotRows& rows, VPage v,
                                    SimTime now, bool write) {
  const std::size_t w = page_word(v);
  const std::uint64_t bit = page_bit(v);
  rows.referenced[w] |= bit;
  rows.last_ref[v] = now;
  const bool first_in_epoch = (rows.ws_seen[w] & bit) == 0;
  rows.ws_seen[w] |= bit;
  if (write && (rows.dirty[w] & bit) == 0) {
    rows.dirty[w] |= bit;
    ++as.dirty_resident_;
    if ((rows.io_busy[w] & bit) == 0 && (rows.has_slot[w] & bit) != 0) {
      swap_.free_slot(rows.slot[v]);
      rows.slot[v] = kNoSwapSlot;
      rows.has_slot[w] &= ~bit;
    }
  }
  return first_in_epoch ? 1 : 0;
}

std::int64_t Vmm::touch_word(AddressSpace& as, const PageTable::HotRows& rows,
                             std::size_t w, std::uint64_t mask, bool write) {
  rows.referenced[w] |= mask;
  const std::uint64_t first_in_epoch = mask & ~rows.ws_seen[w];
  rows.ws_seen[w] |= mask;
  if (write) {
    const std::uint64_t dirtied = mask & ~rows.dirty[w];
    rows.dirty[w] |= mask;
    as.dirty_resident_ += std::popcount(dirtied);
    std::uint64_t stale = dirtied & ~rows.io_busy[w] & rows.has_slot[w];
    rows.has_slot[w] &= ~stale;
    for (; stale != 0; stale &= stale - 1) {
      const std::size_t v = (w << 6) + std::countr_zero(stale);
      swap_.free_slot(rows.slot[v]);
      rows.slot[v] = kNoSwapSlot;
    }
  }
  return std::popcount(first_in_epoch);
}

Vmm::TouchRun Vmm::touch_run(AddressSpace& as, const TouchPlan& plan,
                             std::int64_t begin, std::int64_t budget) {
  TouchRun out;
  if (budget <= 0) return out;
  const PageTable::HotRows rows = as.pt_.hot_rows();
  const VPage base = plan.region_start;
  const std::int64_t rp = plan.region_pages;
  std::int64_t ws_new = 0;
  std::int64_t applied = 0;  // touches before the first absent page
  VPage absent = -1;         // that page, when the run meets one

  // Word form: touch [lo, hi) in ascending order up to its first absent
  // page. Returns false when it met one.
  const auto touch_words = [&](VPage lo, VPage hi) {
    VPage v = lo;
    while (v < hi && absent < 0) {
      const std::size_t w = page_word(v);
      const auto from = static_cast<int>(v & 63);
      const auto n = static_cast<int>(std::min<VPage>(hi - v, 64 - from));
      std::uint64_t mask = (~std::uint64_t{0} >> (64 - n)) << from;
      // Cut the mask before the first absent page (all ones when none is).
      const std::uint64_t missing = mask & ~rows.present[w];
      mask &= (missing & -missing) - 1;
      ws_new += touch_word(as, rows, w, mask, plan.write);
      if (missing != 0) {
        absent = static_cast<VPage>((w << 6) + std::countr_zero(missing));
      }
      v = absent < 0 ? v + n : absent;
    }
    std::fill(rows.last_ref + lo, rows.last_ref + v, sim_.now());
    applied += v - lo;
    return absent < 0;
  };

  // Page form: touch pages drawn from next_page(), in order, until
  // `applied` reaches `count` or a page is absent.
  const auto touch_pages = [&](std::int64_t count, auto next_page) {
    const SimTime now = sim_.now();
    while (true) {
      const VPage v = next_page();
      if ((rows.present[page_word(v)] & page_bit(v)) == 0) {
        absent = v;
        return;
      }
      ws_new += touch_page(as, rows, v, now, plan.write);
      if (++applied == count) return;
    }
  };

  if ((plan.pattern == TouchPattern::kSequential ||
       plan.pattern == TouchPattern::kStrided) &&
      plan.stride >= 0) {
    // An orbit: touch i is region page (i * step) mod rp, so the pages of
    // one period, rp / gcd(step, rp) touches, are distinct and later touches
    // repeat them. All touches of a run share one simulated instant, where
    // a repeated touch is a no-op, so touching each distinct page once, in
    // first-touch order, up to the first absent one, is bit-identical to
    // the scalar loop; that order also keeps the order of stale swap-slot
    // frees. With no absent page the run consumes its whole budget.
    const std::int64_t step =
        plan.pattern == TouchPattern::kSequential ? 1 : plan.stride % rp;
    std::int64_t idx = ((begin % rp) * step) % rp;
    if (step == 1) {
      // The distinct pages are [idx, rp), then [0, ...): both ascending, so
      // ascending words keep first-touch order.
      const std::int64_t n = std::min(budget, rp);
      const std::int64_t head = std::min(n, rp - idx);
      if (touch_words(base + idx, base + idx + head) && head < n) {
        touch_words(base, base + (n - head));
      }
    } else {
      touch_pages(std::min(budget, rp / std::gcd(step, rp)), [&] {
        const VPage v = base + idx;
        idx += step;
        if (idx >= rp) idx -= rp;
        return v;
      });
    }
  } else if (plan.pattern == TouchPattern::kZipf) {
    assert(plan.zipf != nullptr && plan.zipf->n() == rp &&
           plan.zipf->theta() == plan.theta);
    // Draw a block of ranks, then touch its pages in order. A draw changes
    // no state, so the ranks drawn past an absent page are simply dropped.
    // Not zeroed: each pass reads only the n entries ranks() just wrote.
    std::array<std::uint32_t, ZipfTable::kBlock> ranks;
    while (absent < 0 && applied < budget) {
      const auto n = static_cast<std::size_t>(std::min<std::int64_t>(
          budget - applied, ZipfTable::kBlock));
      plan.zipf->ranks(plan.seed, begin + applied, {ranks.data(), n});
      const std::uint32_t* rank = ranks.data();
      touch_pages(applied + static_cast<std::int64_t>(n),
                  [&] { return base + *rank++; });
    }
  } else {
    std::int64_t i = begin;
    touch_pages(budget, [&] { return plan.page_at(i++); });
  }
  as.ws_pages_ += ws_new;
  out.faulted = absent >= 0;
  out.fault_page = absent;
  out.consumed = out.faulted ? applied : budget;
  return out;
}

void Vmm::begin_ws_epoch(Pid pid) {
  auto& as = space(pid);
  as.page_table().clear_epoch_tags();
  as.ws_pages_ = 0;
}

// ---------------------------------------------------------------------------
// Checkpoint/restart support

Vmm::ImageSnapshot Vmm::snapshot_image(Pid pid) const {
  const auto& as = space(pid);
  const PageTable::Meta& m = as.page_table().ro();
  ImageSnapshot snap;
  snap.dirty_pages = as.dirty_pages();
  // Walk the live mask (present | has_slot) a word at a time: each run of
  // set bits is a run of live pages, and a run that starts where the last
  // one ended (across a word boundary) extends it.
  for (std::size_t w = 0; w < m.present.size(); ++w) {
    std::uint64_t live = m.present[w] | m.has_slot[w];
    snap.live_pages += std::popcount(live);
    while (live != 0) {
      const int lo = std::countr_zero(live);
      const int len = std::countr_one(live >> lo);
      const auto start = static_cast<VPage>((w << 6) + lo);
      if (!snap.live.empty() &&
          snap.live.back().start + snap.live.back().count == start) {
        snap.live.back().count += len;
      } else {
        snap.live.push_back({start, len});
      }
      // Adding the run's lowest bit carries through the run, clearing it
      // (a run that ends at bit 63 carries out of the word).
      live &= live + (std::uint64_t{1} << lo);
    }
  }
  return snap;
}

void Vmm::bind_swap_image(Pid pid, const std::vector<PageRun>& pages,
                          const std::vector<SlotRun>& slots) {
  auto& as = space(pid);
  assert(as.alive_);
  assert(as.resident_ == 0 && "bind_swap_image expects a fresh space");
  auto& pt = as.page_table();
  auto slot_it = slots.begin();
  std::int64_t slot_off = 0;
  for (const PageRun& run : pages) {
    for (std::int64_t i = 0; i < run.count; ++i) {
      assert(slot_it != slots.end());
      Pte pte = pt.at(run.start + i);
      assert(pte.slot() == kNoSwapSlot && !pte.present());
      pte.set_slot(slot_it->start + slot_off);
      pte.set_ever_touched(true);
      if (++slot_off == slot_it->count) {
        ++slot_it;
        slot_off = 0;
      }
    }
  }
  assert(slot_it == slots.end() && slot_off == 0 &&
         "page/slot run totals must match");
}

// ---------------------------------------------------------------------------
// Faults

void Vmm::fault(Pid pid, VPage vpage, bool write, std::function<void()> resume) {
  fault_impl(pid, vpage, write, std::move(resume), /*skip_watermark=*/false);
}

void Vmm::fault_impl(Pid pid, VPage vpage, bool write,
                     std::function<void()> resume, bool skip_watermark) {
  auto& as = space(pid);
  assert(as.page_table().valid(vpage));
  if (!as.alive_) return;  // process was killed while the fault was pending
  Pte pte = as.page_table().at(vpage);

  if (pte.present()) {
    // Raced with a prefetch or read-ahead that mapped the page meanwhile.
    (void)touch(as, vpage, write);
    sim_.after(0, std::move(resume));
    return;
  }
  if (pte.io_busy()) {
    // Page-in already in flight (read-ahead, prefetch, or another waiter):
    // piggyback instead of issuing new I/O.
    add_io_waiter(pid, vpage, [this, pid, vpage, write,
                               resume = std::move(resume)]() mutable {
      (void)touch(pid, vpage, write);
      resume();
    });
    return;
  }

  // Watermark check: below freepages.min the faulting task synchronously
  // frees memory up to freepages.high before proceeding (Linux 2.2
  // try_to_free_pages semantics; the paper's Figure 2 shows the same loop).
  // The retry after reclaim skips the check so an out-of-memory release
  // cannot spin at one instant of simulated time.
  if (!skip_watermark && frames_.free_frames() < params_.freepages_min) {
    request_free_frames(params_.freepages_high,
                        [this, pid, vpage, write,
                         resume = std::move(resume)]() mutable {
                          fault_impl(pid, vpage, write, std::move(resume),
                                     /*skip_watermark=*/true);
                        });
    return;
  }

  if (pte.slot() != kNoSwapSlot) {
    start_major_fault(pid, vpage, write, std::move(resume));
  } else {
    finish_minor_fault(pid, vpage, write, std::move(resume));
  }
}

void Vmm::retry_fault_later(Pid pid, VPage vpage, bool write,
                            std::function<void()> resume) {
  if (reclaim_stalled_) {
    // Reclaim cannot help this fault. Count the consecutive stalled retries
    // and abandon past the cap instead of spinning for the whole horizon —
    // this is the diagnosable out-of-swap outcome.
    int& count = stalled_retry_counts_[{pid, vpage}];
    if (++count > params_.stalled_fault_retry_limit) {
      stalled_retry_counts_.erase({pid, vpage});
      declare_unrecoverable(pid, vpage, PageFailure::kOutOfSwap);
      return;  // resume dropped: the process stays blocked (handler kills it)
    }
  } else if (!stalled_retry_counts_.empty()) {
    stalled_retry_counts_.erase({pid, vpage});
  }
  ++stats_.alloc_retries;
  kick_reclaim();
  sim_.after(kMillisecond, [this, pid, vpage, write,
                            resume = std::move(resume)]() mutable {
    fault_impl(pid, vpage, write, std::move(resume), /*skip_watermark=*/false);
  });
}

void Vmm::finish_minor_fault(Pid pid, VPage vpage, bool write,
                             std::function<void()> resume) {
  auto& as = space(pid);
  Pte pte = as.page_table().at(vpage);
  auto frame = frames_.alloc(pid, vpage);
  if (!frame) {
    retry_fault_later(pid, vpage, write, std::move(resume));
    return;
  }
  // Anonymous zero-fill: the page has no backing store, so it is born dirty.
  pte.set_frame(*frame);
  pte.set_present(true);
  pte.set_referenced(true);
  pte.set_dirty(true);
  pte.set_ever_touched(true);
  pte.set_age(params_.age_initial);
  pte.set_last_ref(sim_.now());
  if (!pte.ws_seen()) {
    pte.set_ws_seen();
    ++as.ws_pages_;
  }
  ++as.resident_;
  note_mapped(as, vpage);
  ++as.dirty_resident_;
  ++as.stats_.minor_faults;
  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_, "vmm", "minor_fault",
                     {{"pid", static_cast<double>(pid)},
                      {"vpage", static_cast<double>(vpage)}});
  }
  if (frames_.free_frames() < params_.freepages_low) kick_reclaim();
  sim_.after(params_.minor_fault_cost, std::move(resume));
}

void Vmm::start_major_fault(Pid pid, VPage vpage, bool write,
                            std::function<void()> resume) {
  auto& as = space(pid);
  const Pte base = as.pt_.at(vpage);
  assert(base.slot() != kNoSwapSlot && !base.present() && !base.io_busy());
  const SwapSlot s0 = base.slot();
  if (!reserve_for_read(as, vpage, s0)) {  // no free frame
    retry_fault_later(pid, vpage, write, std::move(resume));
    return;
  }
  ++as.stats_.major_faults;
  if (base.evicted_this_epoch()) ++as.stats_.false_evictions;

  // Swap read-ahead: extend the read over neighbouring virtual pages whose
  // swap slots are exactly consecutive with ours (forward first, then
  // backward), up to page_cluster pages, frames permitting.
  VPage lo = vpage;
  VPage hi = vpage;
  while (hi - lo + 1 < params_.page_cluster &&
         reserve_for_read(as, hi + 1, s0 + (hi + 1 - vpage))) {
    ++hi;
  }
  while (hi - lo + 1 < params_.page_cluster &&
         reserve_for_read(as, lo - 1, s0 + (lo - 1 - vpage))) {
    --lo;
  }

  const std::int64_t count = hi - lo + 1;
  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_, "vmm", "major_fault",
                     {{"pid", static_cast<double>(pid)},
                      {"vpage", static_cast<double>(vpage)},
                      {"cluster", static_cast<double>(count)}});
  }
  if (frames_.free_frames() < params_.freepages_low) kick_reclaim();

  issue_major_read(pid, lo, count, vpage, write, std::move(resume),
                   /*attempt=*/0);
}

void Vmm::issue_major_read(Pid pid, VPage lo, std::int64_t count, VPage vpage,
                           bool write, std::function<void()> resume,
                           int attempt) {
  auto& as = space(pid);
  if (!as.alive_) {  // the owner died while the retry was pending
    release_read(as, lo, count);
    kick_reclaim();
    return;
  }

  const SlotRun run{as.pt_.at(lo).slot(), count};
  swap_read(
      run, IoPriority::kForeground,
      [this, pid, lo, count, vpage, write, resume = std::move(resume),
       attempt](IoResult result) mutable {
        auto& as2 = space(pid);
        if (!result.ok) {
          ++stats_.io_read_failures;
          if (as2.alive_ && attempt < params_.io_retry_limit &&
              !swap_.disk().failed()) {
            // Transient error: retry the whole read with capped exponential
            // backoff. The frames stay reserved (io_busy), so concurrent
            // faults keep piggybacking on this read.
            ++stats_.io_retries;
            if (tracer_ != nullptr) {
              tracer_->instant(trace_track_, "vmm", "io_retry",
                               {{"attempt", static_cast<double>(attempt + 1)},
                                {"pages", static_cast<double>(count)}});
            }
            const SimDuration backoff =
                std::min(params_.io_retry_cap,
                         params_.io_retry_base << std::min(attempt, 30));
            sim_.after(backoff, [this, pid, lo, count, vpage, write,
                                 resume = std::move(resume),
                                 attempt]() mutable {
              issue_major_read(pid, lo, count, vpage, write, std::move(resume),
                               attempt + 1);
            });
            return;
          }
          // Retries exhausted or the owner died: the frames go back; a live
          // owner keeps its slots, so a later demand fault may still succeed
          // once the fault condition clears.
          release_read(as2, lo, count);
          kick_reclaim();
          if (as2.alive_) {
            ++stats_.pages_unrecoverable;
            log_.error("swap read for pid %d page %lld failed %d time(s); "
                       "declaring unrecoverable",
                       static_cast<int>(pid), static_cast<long long>(vpage),
                       attempt + 1);
            declare_unrecoverable(pid, vpage, PageFailure::kIoError);
          }
          return;
        }
        // Only the faulting page counts as referenced; read-ahead pages age
        // out if they go unused (Linux behaviour).
        if (!land_read(as2, lo, count, vpage)) return;
        if (!stalled_retry_counts_.empty()) {
          for (VPage v = lo; v < lo + count; ++v) {
            stalled_retry_counts_.erase({pid, v});
          }
        }
        (void)touch(as2, vpage, write);
        if (resume) sim_.after(params_.major_fault_cpu, std::move(resume));
      });
}

void Vmm::drop_io_waiters(Pid pid, VPage vpage) {
  if (io_waiters_.empty()) return;
  auto it = io_waiters_.find({pid, vpage});
  if (it == io_waiters_.end()) return;
  auto waiters = std::move(it->second);
  io_waiters_.erase(it);
  recycle_waiter_list(std::move(waiters));
}

void Vmm::declare_unrecoverable(Pid pid, VPage vpage, PageFailure failure) {
  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_, "vmm", "unrecoverable",
                     {{"pid", static_cast<double>(pid)},
                      {"vpage", static_cast<double>(vpage)},
                      {"out_of_swap",
                       failure == PageFailure::kOutOfSwap ? 1.0 : 0.0}});
  }
  if (failure == PageFailure::kOutOfSwap) {
    ++stats_.out_of_swap_faults;
    log_.error("fault for pid %d page %lld cannot be served: reclaim stalled "
               "(out of swap space); abandoning",
               static_cast<int>(pid), static_cast<long long>(vpage));
  }
  if (failure_handler_) {
    // Via an event: the handler typically kills the job (release_process),
    // which must not run inside I/O completion or reclaim iteration.
    sim_.after(0, [this, pid, vpage, failure] {
      if (failure_handler_) failure_handler_(pid, vpage, failure);
    });
  }
}

void Vmm::add_io_waiter(Pid pid, VPage vpage, std::function<void()> resume) {
  auto& list = io_waiters_[{pid, vpage}];
  if (list.capacity() == 0 && !spare_waiter_lists_.empty()) {
    // Reuse the capacity of a previously fired waiter list instead of
    // growing a fresh vector for every piggybacked fault.
    list = std::move(spare_waiter_lists_.back());
    spare_waiter_lists_.pop_back();
  }
  list.push_back(std::move(resume));
}

void Vmm::recycle_waiter_list(std::vector<std::function<void()>>&& list) {
  if (spare_waiter_lists_.size() >= kMaxSpareWaiterLists) return;
  list.clear();
  spare_waiter_lists_.push_back(std::move(list));
}

void Vmm::fire_io_waiters(Pid pid, VPage vpage) {
  if (io_waiters_.empty()) return;  // the common page-in: nobody piggybacked
  auto it = io_waiters_.find({pid, vpage});
  if (it == io_waiters_.end()) return;
  auto waiters = std::move(it->second);
  io_waiters_.erase(it);
  for (auto& fn : waiters) sim_.after(0, std::move(fn));
  recycle_waiter_list(std::move(waiters));
}

// ---------------------------------------------------------------------------
// Page-I/O lifecycle
//
// A transfer reserves its pages (io_busy) when it starts, and exactly one of
// land_read, release_read or land_write ends each reserved page (eviction
// un-reserves the victims a full swap device could not place before any
// write starts). Nothing else touches an io_busy page's frame or slot,
// which is why release_process can leave those pages to the transfer that
// holds them.

bool Vmm::reserve_for_read(AddressSpace& as, VPage v, SwapSlot slot) {
  // A never-swapped page "holds" kNoSwapSlot, which is also the slot a
  // backward read-ahead from slot 0 asks for.
  if (slot == kNoSwapSlot || !as.pt_.valid(v)) return false;
  Pte pte = as.pt_.at(v);
  if (pte.present() || pte.io_busy() || pte.slot() != slot) return false;
  const auto frame = frames_.alloc(as.pid_, v);
  if (!frame) return false;
  pte.set_frame(*frame);
  pte.set_io_busy(true);
  return true;
}

bool Vmm::land_read(AddressSpace& as, VPage lo, std::int64_t count,
                    std::optional<VPage> hot) {
  if (!as.alive_) {
    release_read(as, lo, count);
    return false;
  }
  for (VPage v = lo; v < lo + count; ++v) {
    Pte pte = as.pt_.at(v);
    assert(pte.io_busy() && !pte.present());
    pte.set_io_busy(false);
    pte.set_present(true);
    pte.set_referenced(!hot || v == *hot);
    pte.set_age(params_.age_initial);
    pte.set_last_ref(sim_.now());
    ++as.resident_;
    note_mapped(as, v);
    fire_io_waiters(as.pid_, v);
  }
  account_pagein(count, as);
  return true;
}

void Vmm::release_read(AddressSpace& as, VPage lo, std::int64_t count) {
  for (VPage v = lo; v < lo + count; ++v) {
    Pte pte = as.pt_.at(v);
    assert(pte.io_busy() && !pte.present());
    pte.set_io_busy(false);
    frames_.free(pte.frame());
    pte.set_frame(kNoFrame);
    if (!as.alive_) drop_slot(pte);
    drop_io_waiters(as.pid_, v);
  }
}

std::optional<SlotRun> Vmm::write_out(AddressSpace& as, VPage v,
                                      std::int64_t count) {
  const auto run = swap_.alloc_run(std::min(count, params_.max_writeout_run));
  if (!run) return std::nullopt;
  for (std::int64_t k = 0; k < run->count; ++k) {
    Pte pte = as.pt_.at(v + k);
    assert(pte.present());
    drop_slot(pte);  // stale copy
    pte.set_slot(run->start + k);
    pte.set_io_busy(true);
    if (pte.dirty()) {
      pte.set_dirty(false);
      --as.dirty_resident_;
    }
  }
  return run;
}

void Vmm::land_write(AddressSpace& as, VPage lo, std::int64_t count, bool ok,
                     bool unmap) {
  if (!ok) ++stats_.io_write_failures;
  for (VPage v = lo; v < lo + count; ++v) {
    Pte pte = as.pt_.at(v);
    assert(pte.io_busy() && pte.present());
    pte.set_io_busy(false);
    if (!ok) drop_slot(pte);  // the swap copy was never written
    if (!as.alive_) {
      drop_page(as, v);
    } else if (!ok) {
      // The data exists only in memory: the page stays resident and is
      // dirty again, for the reclaimer or the background writer to retry.
      if (!pte.dirty()) {
        pte.set_dirty(true);
        ++as.dirty_resident_;
      }
    } else if (pte.dirty()) {
      // Re-dirtied while the write was in flight: the copy just written is
      // stale, and an eviction is cancelled.
      drop_slot(pte);
    } else if (unmap) {
      pte.set_referenced(false);
      unmap_page(as, v);
    }
  }
  if (ok && as.alive_) account_pageout(count, as);
}

void Vmm::drop_page(AddressSpace& as, VPage v) {
  Pte pte = as.pt_.at(v);
  if (pte.present()) unmap_page(as, v);
  drop_slot(pte);
}

void Vmm::unmap_page(AddressSpace& as, VPage v) {
  Pte pte = as.pt_.at(v);
  assert(pte.present());
  frames_.free(pte.frame());
  pte.set_frame(kNoFrame);
  pte.set_present(false);
  --as.resident_;
  if (pte.dirty()) {
    pte.set_dirty(false);
    --as.dirty_resident_;
  }
}

void Vmm::drop_slot(Pte pte) {
  if (pte.slot() == kNoSwapSlot) return;
  swap_.free_slot(pte.slot());
  pte.set_slot(kNoSwapSlot);
}

// ---------------------------------------------------------------------------
// Reclaim

void Vmm::set_reclaim_policy(std::unique_ptr<ReclaimPolicy> policy) {
  assert(policy != nullptr);
  policy_ = std::move(policy);
}

void Vmm::request_free_frames(std::int64_t target_free,
                              std::function<void()> done, bool best_effort,
                              std::function<bool()> give_up) {
  if (frames_.free_frames() >= target_free) {
    sim_.after(0, std::move(done));
    return;
  }
  waiters_.push_back(Waiter{target_free, std::move(done), best_effort,
                            std::move(give_up), TraceSpan{}});
  if (tracer_ != nullptr) {
    // Async span ending when the waiter is released (its destructor runs):
    // the visible width is exactly how long the request blocked.
    waiters_.back().span = tracer_->async_span(
        trace_track_, "vmm", "request_free_frames",
        {{"target", static_cast<double>(target_free)},
         {"free", static_cast<double>(frames_.free_frames())},
         {"best_effort", best_effort ? 1.0 : 0.0}});
  }
  kick_reclaim();
}

void Vmm::kick_reclaim() {
  if (reclaim_scheduled_) return;
  reclaim_scheduled_ = true;
  sim_.after(0, [this] {
    reclaim_scheduled_ = false;
    reclaim_step();
  });
}

void Vmm::check_waiters() {
  // In-place compaction, preserving order: reclaim runs this every step, so
  // it must not allocate a scratch vector per invocation. Released waiters
  // are overwritten (or destroyed by the resize), which ends their trace
  // spans exactly as the old copy-out did.
  const std::int64_t free = frames_.free_frames();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    Waiter& w = waiters_[i];
    if (free >= w.target || (w.give_up && w.give_up())) {
      sim_.after(0, std::move(w.done));
    } else {
      if (kept != i) waiters_[kept] = std::move(w);
      ++kept;
    }
  }
  waiters_.resize(kept);
}

void Vmm::reclaim_step() {
  ++stats_.reclaim_steps;
  check_waiters();

  std::int64_t goal = 0;
  for (const auto& w : waiters_) goal = std::max(goal, w.target);
  // A stalled reclaimer drops the kswapd goal (its evictions cannot complete)
  // but demand waiters keep probing so a transient window recovers.
  if (!reclaim_stalled_ && frames_.free_frames() < params_.freepages_low) {
    goal = std::max(goal, params_.freepages_high);  // kswapd target
  }
  if (goal == 0) return;

  const std::int64_t projected = frames_.free_frames() + evictions_in_flight_;
  const std::int64_t deficit = goal - projected;
  if (deficit <= 0) return;  // in-flight write-outs will cover it

  auto victims = policy_->select_victims(
      *this, std::min(deficit, params_.reclaim_batch));
  if (victims.empty()) {
    if (evictions_in_flight_ == 0 && !waiters_.empty()) {
      // Nothing evictable and nothing in flight: release the waiters rather
      // than deadlock. Strict waiters reaching this indicate real memory
      // exhaustion; best-effort ones (aggressive page-out) are routine.
      std::size_t strict = 0;
      for (const auto& w : waiters_) {
        if (!w.best_effort) ++strict;
      }
      if (strict > 0) {
        stats_.oom_waiter_releases += strict;
        warn_release_rate_limited("reclaim found no victims");
      }
      for (auto& w : waiters_) sim_.after(0, std::move(w.done));
      waiters_.clear();
    }
    return;
  }
  const std::int64_t in_flight_before = evictions_in_flight_;
  const std::int64_t freed_now = evict_batch(victims, IoPriority::kForeground);
  if (freed_now == 0 && evictions_in_flight_ == in_flight_before) {
    // No progress despite victims — e.g. the swap device is full. Treat it
    // like memory exhaustion rather than spinning at this instant.
    if (evictions_in_flight_ == 0) {
      reclaim_stalled_ = true;  // starts the stalled-fault countdown
      if (!waiters_.empty()) {
        std::size_t strict = 0;
        for (const auto& w : waiters_) {
          if (!w.best_effort) ++strict;
        }
        if (strict > 0) {
          stats_.oom_waiter_releases += strict;
          warn_release_rate_limited("reclaim cannot make progress");
        }
        for (auto& w : waiters_) sim_.after(0, std::move(w.done));
        waiters_.clear();
      }
    }
    return;
  }
  kick_reclaim();  // keep going until the goal is met
}

void Vmm::warn_release_rate_limited(const char* reason) {
  // Sustained exhaustion can release waiters thousands of times; log the
  // first few occurrences and then only milestones, never a flood.
  ++release_warnings_;
  if (release_warnings_ <= 5 || release_warnings_ % 100000 == 0) {
    log_.warn("%s; releasing waiter(s) early (occurrence %llu)", reason,
              static_cast<unsigned long long>(release_warnings_));
  }
}

void Vmm::note_evicted(Pid pid, VPage vpage) {
  if (evict_observer_) evict_observer_(pid, vpage);
}

std::int64_t Vmm::evict_batch(std::span<const Victim> victims,
                              IoPriority priority) {
  std::int64_t freed_now = 0;

  // Pass 1: clean pages with a valid swap copy are dropped instantly; dirty
  // pages are reserved (io_busy) so duplicate victim entries are harmless
  // and collected for a batched write-out in pass 2. The scratch buffer is a
  // member so steady-state reclaim reuses its capacity instead of
  // allocating per step.
  std::vector<Victim>& writes = write_scratch_;
  writes.clear();
  writes.reserve(victims.size());
  for (const Victim& victim : victims) {
    auto& as = space(victim.pid);
    Pte pte = as.page_table().at(victim.vpage);
    if (!pte.present() || pte.io_busy()) continue;  // duplicate or raced
    if (pte.clean_drop_ok()) {
      pte.set_referenced(false);
      pte.set_evicted_this_epoch();
      unmap_page(as, victim.vpage);
      ++as.stats_.pages_clean_dropped;
      ++freed_now;
      note_evicted(victim.pid, victim.vpage);
    } else {
      pte.set_io_busy(true);  // reserve
      writes.push_back(victim);
    }
  }

  // Pass 2: group write victims into maximal vpage-contiguous groups per
  // process, then cover each group with contiguous swap-slot runs so that
  // the disk sees streaming writes and future page-ins can cluster.
  std::size_t i = 0;
  while (i < writes.size()) {
    std::size_t j = i + 1;
    while (j < writes.size() && writes[j].pid == writes[i].pid &&
           writes[j].vpage == writes[j - 1].vpage + 1) {
      ++j;
    }
    const Pid pid = writes[i].pid;
    auto& as = space(pid);
    VPage v = writes[i].vpage;
    for (const VPage end = v + static_cast<std::int64_t>(j - i); v < end;) {
      const auto run = write_out(as, v, end - v);
      if (!run) {
        log_.error("swap device full; cannot evict %lld page(s)",
                   static_cast<long long>(end - v));
        // Un-reserve the pages we could not place.
        for (; v < end; ++v) as.pt_.at(v).set_io_busy(false);
        break;
      }
      for (VPage p = v; p < v + run->count; ++p) {
        as.pt_.at(p).set_evicted_this_epoch();
        note_evicted(pid, p);
      }
      evictions_in_flight_ += run->count;
      swap_write(*run, priority,
                 [this, pid, v, count = run->count](IoResult result) {
                   if (!result.ok) {
                     if (++write_failure_streak_ >=
                             params_.write_failure_streak_limit &&
                         !reclaim_stalled_) {
                       reclaim_stalled_ = true;
                       log_.warn("eviction write-outs keep failing; reclaim "
                                 "stalled");
                     }
                   } else {
                     // Reclaim progress: clear any stall.
                     write_failure_streak_ = 0;
                     reclaim_stalled_ = false;
                   }
                   land_write(space(pid), v, count, result.ok, /*unmap=*/true);
                   evictions_in_flight_ -= count;
                   kick_reclaim();
                 });
      v += run->count;
    }
    i = j;
  }

  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_, "vmm", "reclaim_batch",
                     {{"victims", static_cast<double>(victims.size())},
                      {"freed_now", static_cast<double>(freed_now)},
                      {"writes", static_cast<double>(writes.size())}});
  }
  if (freed_now > 0) kick_reclaim();
  return freed_now;
}

// ---------------------------------------------------------------------------
// Prefetch (adaptive page-in replay)

void Vmm::prefetch(Pid pid, std::vector<PageRun> runs,
                   std::function<void()> done) {
  auto job = std::make_shared<PrefetchJob>();
  job->pid = pid;
  job->runs = std::move(runs);
  job->done = std::move(done);
  prefetch_pump(job);
}

void Vmm::prefetch_pump(const std::shared_ptr<PrefetchJob>& job) {
  auto& as = space(job->pid);
  auto& pt = as.page_table();
  if (!as.alive_) {
    job->run_idx = job->runs.size();
    job->finish_if_drained();
    return;
  }

  while (job->run_idx < job->runs.size()) {
    const PageRun& run = job->runs[job->run_idx];
    if (job->page_idx >= run.count) {
      ++job->run_idx;
      job->page_idx = 0;
      continue;
    }
    const VPage v = run.start + job->page_idx;
    if (!pt.valid(v)) {
      ++job->page_idx;
      continue;
    }
    const Pte pte = pt.at(v);
    if (pte.present() || pte.io_busy() || pte.slot() == kNoSwapSlot) {
      ++job->page_idx;
      continue;
    }

    // Head of a read batch: extend while slots stay consecutive and frames
    // remain available.
    const SwapSlot s0 = pte.slot();
    std::int64_t len = 0;
    while (job->page_idx + len < run.count && len < params_.max_prefetch_run &&
           reserve_for_read(as, v + len, s0 + len)) {
      ++len;
    }
    if (len == 0) {
      // No frame even for the first page. Nudge the reclaimer and retry a
      // moment later. (Not via a reclaim waiter: when everything evictable
      // is this prefetch's own in-flight reads, the reclaimer would release
      // the waiter unsatisfied at the same instant and the pump would spin;
      // a real delay lets the outstanding disk reads land and map.)
      kick_reclaim();
      sim_.after(kMillisecond, [this, job] { prefetch_pump(job); });
      return;
    }
    job->page_idx += len;
    ++job->reads_in_flight;

    swap_read(SlotRun{s0, len}, IoPriority::kForeground,
              [this, job, v, len](IoResult result) {
                auto& as2 = space(job->pid);
                --job->reads_in_flight;
                if (result.ok) {
                  // Recorded working-set pages: mapped hot so a concurrent
                  // sweep does not immediately reclaim them again.
                  land_read(as2, v, len, /*hot=*/std::nullopt);
                  job->finish_if_drained();
                  return;
                }
                ++stats_.io_read_failures;
                ++stats_.prefetch_aborts;
                for (VPage p = v; p < v + len; ++p) {
                  if (as2.alive_ && has_io_waiters(job->pid, p)) {
                    // A demand fault piggybacked on this prefetch read:
                    // escalate to a single-page foreground read with the
                    // full retry budget so the waiter is not dropped.
                    issue_major_read(job->pid, p, 1, p, /*write=*/false,
                                     /*resume=*/{}, /*attempt=*/1);
                  } else {
                    // A live owner keeps the slot, so plain demand paging
                    // retries the page later.
                    release_read(as2, p, 1);
                  }
                }
                // Abandon the rest of the replay: the pager falls back to
                // demand paging for whatever was not yet fetched.
                job->run_idx = job->runs.size();
                job->page_idx = 0;
                kick_reclaim();
                job->finish_if_drained();
              });
    if (frames_.free_frames() < params_.freepages_low) kick_reclaim();
  }

  job->finish_if_drained();
}

// ---------------------------------------------------------------------------
// Background writeback

void Vmm::writeback_dirty(Pid pid, std::int64_t max_pages, IoPriority priority,
                          std::function<void(std::int64_t)> done) {
  auto& as = space(pid);
  auto& pt = as.page_table();

  if (!as.alive_ || as.dirty_resident_ == 0 || max_pages <= 0) {
    if (done) done(0);
    return;
  }

  auto candidate = [&](VPage p) {
    const Pte e = pt.at(p);
    return e.present() && e.dirty() && !e.io_busy();
  };

  // Sweep from the per-space hand in vpage order so successive calls cover
  // the space and consecutive dirty pages get contiguous slots. Runs of
  // non-candidates are skipped word-at-a-time via the dirty bitmap; the
  // skipped pages still count against the scan budget so the final hand
  // position — (old hand + scanned) mod npages — matches the page-at-a-time
  // sweep exactly.
  const std::int64_t npages = pt.num_pages();
  std::int64_t started = 0;
  std::int64_t scanned = 0;
  VPage v = as.writeback_hand_ % npages;
  while (scanned < npages && started < max_pages) {
    if (!candidate(v)) {
      const VPage nc = pt.next_dirty_candidate(v);  // >= v, npages if none
      const std::int64_t skip = nc - v;             // non-candidates skipped
      if (scanned + skip >= npages) {
        // Scan budget exhausts mid-skip: the hand stops where the scalar
        // sweep would have stopped.
        v = (v + (npages - scanned)) % npages;
        scanned = npages;
        break;
      }
      scanned += skip;
      v = nc;
      if (v == npages) {
        v = 0;  // wrap and keep sweeping from the bottom
        continue;
      }
    }
    // Extend a contiguous group without wrapping around the end.
    const VPage begin = v;
    std::int64_t len = 0;
    while (v < npages && scanned < npages && started + len < max_pages &&
           candidate(v)) {
      ++len;
      ++v;
      ++scanned;
    }
    if (v == npages) v = 0;

    for (VPage gv = begin; gv < begin + len;) {
      const auto run = write_out(as, gv, begin + len - gv);
      if (!run) {
        log_.error("swap device full during writeback");
        break;
      }
      // The pages stay mapped whatever the outcome; cleaning them without
      // unmapping is the point of background writing.
      swap_write(*run, priority,
                 [this, pid, gv, count = run->count](IoResult result) {
                   land_write(space(pid), gv, count, result.ok,
                              /*unmap=*/false);
                 });
      gv += run->count;
      started += run->count;
    }
  }
  as.writeback_hand_ = v;

  if (done) done(started);
}

// ---------------------------------------------------------------------------
// Accounting

void Vmm::account_pagein(std::int64_t pages, AddressSpace& as) {
  as.stats_.pages_swapped_in += static_cast<std::uint64_t>(pages);
  pagein_series_.add(sim_.now(), static_cast<double>(pages));
}

void Vmm::account_pageout(std::int64_t pages, AddressSpace& as) {
  as.stats_.pages_swapped_out += static_cast<std::uint64_t>(pages);
  pageout_series_.add(sim_.now(), static_cast<double>(pages));
}

}  // namespace apsim
