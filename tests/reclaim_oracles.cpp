#include "reclaim_oracles.hpp"

#include <algorithm>

#include "mem/vmm.hpp"

namespace apsim::oracle {

std::vector<Victim> ClockReclaimPolicy::select_victims(Vmm& vmm,
                                                       std::int64_t max_pages) {
  std::vector<Victim> out;
  if (max_pages <= 0) return out;

  const auto& pids = vmm.pids();
  if (pids.empty()) return out;

  std::int64_t total_resident = 0;
  for (Pid pid : pids) {
    const auto& as = vmm.space(pid);
    if (as.alive()) total_resident += as.resident_pages();
  }
  if (total_resident == 0) return out;

  // Without aging: up to two full revolutions over all resident pages — the
  // first encounter with a referenced page clears its bit (second chance),
  // the second reclaims it if untouched in between. With aging (Linux 2.2
  // PG_age mode), pages need up to age_max/age_decline additional
  // encounters to age out, so the budget scales accordingly. The budget
  // counts resident-page encounters only — non-present PTEs are skipped for
  // free (bounded by the per-visit step cap below, so sparse address spaces
  // cannot spin the sweep).
  const auto& params = vmm.params();
  const std::int64_t revolutions =
      params.page_aging
          ? 2 + (params.age_max + params.age_decline - 1) /
                    std::max<std::int64_t>(1, params.age_decline)
          : 2;
  std::int64_t budget = revolutions * total_resident + 1;
  std::size_t exhausted_streak = 0;  // processes in a row with nothing to scan

  while (budget > 0 && std::ssize(out) < max_pages &&
         exhausted_streak < pids.size()) {
    const Pid pid = pids[cursor_ % pids.size()];
    auto& as = vmm.space(pid);
    if (!as.alive() || as.resident_pages() == 0) {
      ++cursor_;
      ++exhausted_streak;
      continue;
    }

    // Scan quota proportional to resident size (swap_out's swap_cnt):
    // larger processes absorb proportionally more of the sweep.
    auto& pt = as.page_table();
    std::int64_t quota =
        std::max<std::int64_t>(32, as.resident_pages() / 16);
    quota = std::min(quota, budget);
    const std::int64_t npages = pt.num_pages();
    std::int64_t steps = npages;  // at most one revolution per visit
    bool found_any = false;
    while (quota > 0 && steps > 0 && std::ssize(out) < max_pages) {
      const VPage v = pt.clock_hand();
      // Word-skip runs of non-present pages. Each skipped page still costs
      // one step (the page-at-a-time sweep visited it), so the hand lands
      // exactly where it would have — including when the step budget runs
      // out mid-run.
      const VPage np = pt.next_present(v);
      if (np != v) {
        const std::int64_t gap = (np >= npages ? npages : np) - v;
        if (gap >= steps) {
          pt.set_clock_hand((v + steps) % npages);
          steps = 0;
          break;
        }
        steps -= gap;
        pt.set_clock_hand((v + gap) % npages);
        continue;
      }
      pt.advance_clock_hand();
      --steps;
      Pte pte = pt.at(v);
      if (pte.io_busy()) continue;
      --quota;
      --budget;
      if (pte.referenced()) {
        pte.set_referenced(false);  // second chance
        if (params.page_aging) {
          pte.set_age(static_cast<std::uint8_t>(
              std::min<int>(pte.age() + params.age_advance, params.age_max)));
        }
        found_any = true;
        continue;
      }
      if (params.page_aging && pte.age() > 0) {
        pte.set_age(static_cast<std::uint8_t>(
            pte.age() > params.age_decline ? pte.age() - params.age_decline
                                           : 0));
        if (pte.age() > 0) {
          found_any = true;
          continue;  // still protected
        }
      }
      out.push_back(Victim{pid, v});
      found_any = true;
    }
    exhausted_streak = found_any ? 0 : exhausted_streak + 1;
    ++cursor_;
  }
  return out;
}

// ---------------------------------------------------------------------------
// MglruPolicy

void MglruPolicy::prune_dead(Vmm& vmm) {
  for (auto it = procs_.begin(); it != procs_.end();) {
    const bool live = std::find(vmm.pids().begin(), vmm.pids().end(),
                                it->first) != vmm.pids().end() &&
                      vmm.space(it->first).alive();
    it = live ? std::next(it) : procs_.erase(it);
  }
}

std::vector<Victim> MglruPolicy::select_victims(Vmm& vmm,
                                                std::int64_t max_pages) {
  std::vector<Victim> out;
  if (max_pages <= 0) return out;
  prune_dead(vmm);

  const auto& pids = vmm.pids();
  std::int64_t resident = 0;
  for (Pid pid : pids) {
    const auto& as = vmm.space(pid);
    if (as.alive()) resident += as.resident_pages();
  }
  if (resident == 0) return out;

  // Work bound: with kYoungest+1 generations a hot page survives several
  // encounters, so allow the sweep a few passes over the resident set before
  // giving up (mirrors the clock policy's revolution budget).
  std::int64_t budget = (static_cast<std::int64_t>(kYoungest) + 2) * resident;
  // Pages examined on one process before rotating to the next.
  constexpr std::int64_t kQuota = 64;

  while (std::ssize(out) < max_pages && budget > 0) {
    if (cursor_ >= pids.size()) cursor_ = 0;
    const Pid pid = pids[cursor_];
    auto& as = vmm.space(pid);
    if (!as.alive() || as.resident_pages() == 0) {
      ++cursor_;
      --budget;  // guarantees termination when nothing is evictable
      continue;
    }
    auto& st = procs_[pid];
    auto& pt = as.page_table();
    if (std::ssize(st.gen) != pt.num_pages()) {
      st.gen.assign(static_cast<std::size_t>(pt.num_pages()), kEntryGen);
      st.hand = 0;
    }
    const std::int64_t npages = pt.num_pages();
    for (std::int64_t q = 0;
         q < kQuota && budget > 0 && std::ssize(out) < max_pages; ++q) {
      if (st.hand >= npages) st.hand = 0;
      const VPage v = st.hand;
      // Word-skip runs of non-present pages; each skipped page still costs
      // one quota step and one budget unit, exactly like the page-at-a-time
      // sweep, so rotation and give-up points are unchanged.
      const VPage np = pt.next_present(v);
      if (np != v) {
        const std::int64_t gap = (np >= npages ? npages : np) - v;
        const std::int64_t avail =
            std::min(gap, std::min(kQuota - q, budget));
        st.hand = v + avail;  // == npages wraps at the top of the loop
        budget -= avail;
        q += avail - 1;  // the loop increment covers the last page
        continue;
      }
      ++st.hand;
      --budget;
      Pte pte = pt.at(v);
      auto& gen = st.gen[static_cast<std::size_t>(v)];
      if (pte.referenced()) {
        pte.set_referenced(false);
        gen = kYoungest;
      } else if (gen > 0) {
        --gen;
      } else if (!pte.io_busy()) {
        out.push_back(Victim{pid, v});
        // If the page comes back it re-enters on probation, not at gen 0.
        gen = kEntryGen;
      }
    }
    ++cursor_;
  }
  return out;
}

// ---------------------------------------------------------------------------
// S3FifoPolicy

void S3FifoPolicy::ghost_insert(const Key& key) {
  if (ghost_.insert(key).second) ghost_fifo_.push_back(key);
  // Ghost capacity tracks the resident population (the classic sizing: the
  // ghost remembers about one cache-full of departures).
  const auto cap =
      std::max<std::size_t>(tracked_.size() + small_.size() + main_.size(), 64);
  while (ghost_fifo_.size() > cap) {
    ghost_.erase(ghost_fifo_.front());
    ghost_fifo_.pop_front();
  }
}

void S3FifoPolicy::ingest(Vmm& vmm) {
  for (Pid pid : vmm.pids()) {
    const auto& as = vmm.space(pid);
    if (!as.alive() || as.resident_pages() == 0) continue;
    const auto& pt = as.page_table();
    const std::int64_t npages = pt.num_pages();
    for (VPage v = pt.next_present(0); v < npages; v = pt.next_present(v + 1)) {
      const Key key{pid, v};
      if (tracked_.contains(key)) continue;
      if (ghost_.contains(key)) {
        // The page was evicted recently and came back: skip probation.
        ghost_.erase(key);
        main_.push_back(key);
        tracked_.emplace(key, Where::kMain);
        ++stats_.ghost_hits;
      } else {
        small_.push_back(key);
        tracked_.emplace(key, Where::kSmall);
      }
    }
  }
}

std::vector<Victim> S3FifoPolicy::select_victims(Vmm& vmm,
                                                 std::int64_t max_pages) {
  std::vector<Victim> out;
  if (max_pages <= 0) return out;
  ingest(vmm);

  // Every referenced page re-enters its queue with the bit cleared, so each
  // entry is examined at most twice per call; the scan bound only has to
  // cover the all-io-busy corner.
  std::int64_t scans =
      2 * (std::ssize(small_) + std::ssize(main_)) + 4 * max_pages;
  while (std::ssize(out) < max_pages && scans-- > 0 &&
         (!small_.empty() || !main_.empty())) {
    // Evict from the probationary queue while it holds >= ~10% of the
    // tracked population (the S3-FIFO small-queue target), else from main.
    const bool from_small =
        !small_.empty() &&
        (main_.empty() ||
         10 * std::ssize(small_) >= std::ssize(small_) + std::ssize(main_));
    auto& queue = from_small ? small_ : main_;
    const Key key = queue.front();
    queue.pop_front();

    const auto tracked_it = tracked_.find(key);
    const bool in_this_queue =
        tracked_it != tracked_.end() &&
        tracked_it->second == (from_small ? Where::kSmall : Where::kMain);
    if (!in_this_queue) continue;  // stale entry (re-tracked elsewhere)

    const auto& pids = vmm.pids();
    if (std::find(pids.begin(), pids.end(), key.first) == pids.end()) {
      tracked_.erase(tracked_it);
      continue;
    }
    auto& as = vmm.space(key.first);
    if (!as.alive() || !as.page_table().valid(key.second)) {
      tracked_.erase(tracked_it);
      continue;
    }
    Pte pte = as.page_table().at(key.second);
    if (!pte.present()) {
      tracked_.erase(tracked_it);
      continue;
    }
    if (pte.referenced()) {
      pte.set_referenced(false);
      if (from_small) {
        tracked_it->second = Where::kMain;
        main_.push_back(key);
        ++stats_.promotions;
      } else {
        main_.push_back(key);
        ++stats_.reinserts;
      }
      continue;
    }
    if (pte.io_busy()) {
      queue.push_back(key);  // retry later; bounded by the scan budget
      continue;
    }
    out.push_back(Victim{key.first, key.second});
    tracked_.erase(tracked_it);
    if (from_small) {
      ghost_insert(key);
      ++stats_.small_evictions;
    } else {
      ++stats_.main_evictions;
    }
  }
  return out;
}

}  // namespace apsim::oracle
