#pragma once

// The clock-lru, mglru and s3-fifo reclaim policies exactly as they were
// before their sweeps learned to skip in-flight pages and S3-FIFO learned to
// ingest from the on_map hook: page-at-a-time clock and MGLRU sweeps, and an
// S3-FIFO that rescans every page table on every call. Copied verbatim into
// namespace apsim::oracle; the differential tests run them side by side with
// the optimised policies and require identical victim lists and outcomes.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "mem/reclaim.hpp"

namespace apsim::oracle {

class ClockReclaimPolicy final : public ReclaimPolicy {
 public:
  [[nodiscard]] std::vector<Victim> select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) override;

  [[nodiscard]] std::string_view name() const override { return "clock-lru"; }

 private:
  std::size_t cursor_ = 0;  ///< rotating process index
};

class MglruPolicy final : public ReclaimPolicy {
 public:
  [[nodiscard]] std::vector<Victim> select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) override;

  [[nodiscard]] std::string_view name() const override { return "mglru"; }

  /// Generation a referenced page is promoted to; pages enter at kEntryGen.
  static constexpr std::uint8_t kYoungest = 3;
  static constexpr std::uint8_t kEntryGen = 1;

 private:
  struct ProcState {
    std::vector<std::uint8_t> gen;  ///< per-vpage generation (sized lazily)
    VPage hand = 0;                 ///< per-process sweep position
  };

  void prune_dead(Vmm& vmm);

  std::map<Pid, ProcState> procs_;
  std::size_t cursor_ = 0;  ///< rotating process index
};

class S3FifoPolicy final : public ReclaimPolicy {
 public:
  [[nodiscard]] std::vector<Victim> select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) override;

  [[nodiscard]] std::string_view name() const override { return "s3-fifo"; }

  struct Stats {
    std::uint64_t ghost_hits = 0;        ///< re-entries promoted via ghost
    std::uint64_t promotions = 0;        ///< small -> main (referenced)
    std::uint64_t small_evictions = 0;
    std::uint64_t main_evictions = 0;
    std::uint64_t reinserts = 0;         ///< main second chances
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Introspection for tests.
  [[nodiscard]] std::int64_t small_size() const {
    return static_cast<std::int64_t>(small_.size());
  }
  [[nodiscard]] std::int64_t main_size() const {
    return static_cast<std::int64_t>(main_.size());
  }
  [[nodiscard]] std::int64_t ghost_size() const {
    return static_cast<std::int64_t>(ghost_.size());
  }
  [[nodiscard]] bool in_main(Pid pid, VPage v) const {
    auto it = tracked_.find({pid, v});
    return it != tracked_.end() && it->second == Where::kMain;
  }
  [[nodiscard]] bool in_ghost(Pid pid, VPage v) const {
    return ghost_.contains({pid, v});
  }

 private:
  using Key = std::pair<Pid, VPage>;
  enum class Where : std::uint8_t { kSmall, kMain };

  /// Enqueue resident pages not yet tracked, routing ghost re-entries to
  /// the main queue. Deterministic scan order: pid then vpage ascending.
  void ingest(Vmm& vmm);
  void ghost_insert(const Key& key);

  std::deque<Key> small_;
  std::deque<Key> main_;
  std::map<Key, Where> tracked_;
  std::set<Key> ghost_;
  std::deque<Key> ghost_fifo_;  ///< ghost eviction order (capacity-bounded)
  Stats stats_;
};

}  // namespace apsim::oracle
