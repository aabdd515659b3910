#include "mem/reclaim_extra.hpp"

#include <algorithm>
#include <tuple>

#include "mem/vmm.hpp"

namespace apsim {

namespace {

/// An evictable page and when it was last referenced.
struct Candidate {
  SimTime last_ref;
  Victim victim;
};

/// Oldest reference first. Ties break by pid, then vpage, so the order is
/// total and any sort of the same candidates yields the same sequence.
bool older(const Candidate& a, const Candidate& b) {
  return std::tie(a.last_ref, a.victim.pid, a.victim.vpage) <
         std::tie(b.last_ref, b.victim.pid, b.victim.vpage);
}

/// Append every evictable page (resident, no I/O in flight) of the live
/// spaces to \p out; returns the resident entries examined.
std::uint64_t gather_evictable(Vmm& vmm, std::vector<Candidate>& out) {
  std::uint64_t scanned = 0;
  for (Pid pid : vmm.pids()) {
    const auto& as = vmm.space(pid);
    if (!as.alive() || as.resident_pages() == 0) continue;
    const auto& pt = as.page_table();
    const std::int64_t npages = pt.num_pages();
    for (VPage v = pt.next_present(0); v < npages; v = pt.next_present(v + 1)) {
      const auto pte = pt.at(v);
      if (!pte.io_busy()) out.push_back({pte.last_ref(), Victim{pid, v}});
      ++scanned;
    }
  }
  return scanned;
}

}  // namespace

std::vector<Victim> ExactLruPolicy::select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) {
  std::vector<Victim> out;
  if (max_pages <= 0) return out;

  // Gather all evictable pages and take the oldest max_pages. Exactness over
  // efficiency: this is a reference model.
  std::vector<Candidate> candidates;
  vmm.note_pages_scanned(gather_evictable(vmm, candidates));
  const auto take = std::min<std::size_t>(
      candidates.size(), static_cast<std::size_t>(max_pages));
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<std::ptrdiff_t>(take),
                    candidates.end(), older);
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(candidates[i].victim);
  return out;
}

std::int64_t FifoPolicy::refill(Vmm& vmm) {
  // Rebuild the queue ordered by first-mapped approximation: we do not
  // track map-in time separately, so use last_ref of never-re-referenced
  // pages and vpage order otherwise. For FIFO's purpose (a reference-blind
  // baseline) ordering by (last_ref, vpage) of the current resident set is
  // adequate and deterministic.
  std::vector<Candidate> candidates;
  const std::uint64_t scanned = gather_evictable(vmm, candidates);
  std::sort(candidates.begin(), candidates.end(), older);
  queue_.clear();
  cursor_ = 0;
  queue_.reserve(candidates.size());
  for (const Candidate& c : candidates) queue_.push_back(c.victim);
  return static_cast<std::int64_t>(scanned);
}

std::vector<Victim> FifoPolicy::select_victims(Vmm& vmm,
                                               std::int64_t max_pages) {
  std::vector<Victim> out;
  if (max_pages <= 0) return out;
  std::int64_t scanned = 0;
  for (int attempt = 0; attempt < 2 && out.empty(); ++attempt) {
    while (cursor_ < queue_.size() && std::ssize(out) < max_pages) {
      const Victim victim = queue_[cursor_++];
      ++scanned;
      const auto& as = vmm.space(victim.pid);
      if (!as.alive()) continue;
      const auto pte = as.page_table().at(victim.vpage);
      if (pte.present() && !pte.io_busy()) out.push_back(victim);
    }
    if (out.empty() && cursor_ >= queue_.size()) scanned += refill(vmm);
  }
  vmm.note_pages_scanned(static_cast<std::uint64_t>(scanned));
  return out;
}

}  // namespace apsim
