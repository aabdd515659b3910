#include "mem/reclaim.hpp"

#include <algorithm>

#include "mem/vmm.hpp"

namespace apsim {

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
  std::uint64_t scanned = 0;

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
      // Word-skip runs of pages the sweep cannot act on: non-present pages
      // and pages with I/O in flight (which cost a step but no quota).
      // Each skipped page still costs one step (the page-at-a-time sweep
      // visited it), so the hand lands exactly where it would have —
      // including when the step budget runs out mid-run.
      const VPage np = pt.next_present_idle(v);
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
      ++scanned;
      Pte pte = pt.at(v);
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
  vmm.note_pages_scanned(scanned);
  return out;
}

}  // namespace apsim
