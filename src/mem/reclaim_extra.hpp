#pragma once

#include "mem/reclaim.hpp"

/// \file reclaim_extra.hpp
/// Additional global replacement baselines beyond the Linux-2.2 clock:
/// exact LRU (evict the globally oldest page by reference timestamp) and
/// FIFO (evict in fault order, ignoring references). Used by the
/// replacement-policy ablation: under gang scheduling the clock's
/// proportional sweep false-evicts massively (it attacks the running job's
/// pages too); exact LRU and FIFO do better but still false-evict the
/// descheduled job's residual set by the thousands, because no
/// gang-oblivious policy can know that the oldest pages belong to a job
/// that is about to be rescheduled. Only the paper's selective page-out
/// eliminates the pathology.

namespace apsim {

/// Exact global LRU over reference timestamps. Every call gathers the whole
/// resident set and partially sorts it (O(n log k) for n resident pages and
/// k victims); a reference model, not a performance model.
class ExactLruPolicy final : public ReclaimPolicy {
 public:
  [[nodiscard]] std::vector<Victim> select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) override;

  [[nodiscard]] std::string_view name() const override { return "exact-lru"; }
};

/// Global FIFO by fault order. Maintains its own queue of (pid, vpage)
/// mapped-in pages, refreshed lazily against the page tables.
class FifoPolicy final : public ReclaimPolicy {
 public:
  [[nodiscard]] std::vector<Victim> select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) override;

  [[nodiscard]] std::string_view name() const override { return "fifo"; }

 private:
  /// Rebuild the queue from the page tables; returns the pages examined.
  std::int64_t refill(Vmm& vmm);

  std::vector<Victim> queue_;  ///< oldest-mapped first
  std::size_t cursor_ = 0;
};

}  // namespace apsim
