#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mem/page.hpp"

/// \file reclaim.hpp
/// Victim-selection policy interface for page reclaim, plus the default
/// policy modelled on Linux 2.2's swap_out(): pick the process with the
/// largest resident set and sweep its page table with a clock hand, clearing
/// referenced bits and reclaiming unreferenced pages. The paper's selective
/// page-out is an alternative implementation of this interface (in
/// src/core), preferring the *outgoing* gang process's pages oldest-first.

namespace apsim {

class Vmm;

/// A page chosen for eviction.
struct Victim {
  Pid pid = kNoPid;
  VPage vpage = -1;

  friend bool operator==(const Victim&, const Victim&) = default;
};

class ReclaimPolicy {
 public:
  virtual ~ReclaimPolicy() = default;

  /// Select up to \p max_pages evictable pages (present, not io-busy).
  /// Returning fewer than max_pages means the policy found nothing more;
  /// returning an empty vector means no evictable page exists right now.
  /// Implementations add the page-table entries they examine one at a time
  /// (not those skipped a bitmap word at a time) to Vmm::note_pages_scanned.
  [[nodiscard]] virtual std::vector<Victim> select_victims(Vmm& vmm,
                                                           std::int64_t max_pages) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// The Vmm mapped (pid, vpage): its present bit went from clear to set.
  /// Called at every such transition on the Vmm the policy is installed on,
  /// in event order, so a policy can keep its own bookkeeping current
  /// instead of rescanning the page tables. Must stay cheap: every fault
  /// and page-in lands here. Default: ignore.
  virtual void on_map(Pid /*pid*/, VPage /*vpage*/) {}
};

/// Linux-2.2-style global clock replacement: a persistent sweep that visits
/// processes round-robin with scan quotas proportional to their resident
/// size (swap_out's swap_cnt weighting), clearing referenced bits on the
/// first encounter and reclaiming pages found unreferenced. Recently-touched
/// pages thus get a genuine second chance, while a stopped job's stale pages
/// are reclaimed quickly — including, notoriously, the *residual working
/// set* of the job about to be rescheduled (the false eviction the paper's
/// selective page-out removes).
class ClockReclaimPolicy final : public ReclaimPolicy {
 public:
  [[nodiscard]] std::vector<Victim> select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) override;

  [[nodiscard]] std::string_view name() const override { return "clock-lru"; }

 private:
  std::size_t cursor_ = 0;  ///< rotating process index
};

}  // namespace apsim
