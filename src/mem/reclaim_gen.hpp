#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/page_table.hpp"
#include "mem/reclaim.hpp"

/// \file reclaim_gen.hpp
/// Generational additions to the eviction zoo, selectable through the policy
/// registry (mem/reclaim_registry.hpp) so the adaptive control plane can
/// switch replacement policy as an actuator:
///
///   * MglruPolicy — MGLRU-style generational clock: every tracked page
///     carries a small generation counter; a referenced page is promoted to
///     the youngest generation, an unreferenced one ages down a generation
///     per sweep encounter and is evicted only from generation 0. Compared
///     with the one-bit second-chance clock this gives the active working
///     set several sweeps of protection while cold pages still drain fast.
///
///   * S3FifoPolicy — S3-FIFO (small/main/ghost queues): newly mapped pages
///     enter a small probationary FIFO; pages evicted from it leave a ghost
///     entry, and a page that re-enters memory while its ghost is live is
///     promoted straight to the main queue (the "one-hit wonder" filter).
///     New pages reach the queues through the on_map hook.
///
/// Both policies keep all bookkeeping on their side of the ReclaimPolicy
/// interface and are deterministic functions of the page tables they scan.
/// A call costs O(victims + bitmap words), not O(resident pages); see
/// "Reclaim cost" in docs/ARCHITECTURE.md.

namespace apsim {

class MglruPolicy final : public ReclaimPolicy {
 public:
  [[nodiscard]] std::vector<Victim> select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) override;

  [[nodiscard]] std::string_view name() const override { return "mglru"; }

  /// Generation a referenced page is promoted to; pages enter at kEntryGen.
  static constexpr std::uint8_t kYoungest = 3;
  static constexpr std::uint8_t kEntryGen = 1;

 private:
  /// Pages examined on one process before rotating to the next.
  static constexpr std::int64_t kQuota = 64;

  struct ProcState {
    std::vector<std::uint8_t> gen;    ///< per-vpage generation (sized lazily)
    std::vector<std::uint64_t> gen0;  ///< bitmap: gen[v] == 0
    VPage hand = 0;                   ///< per-process sweep position
  };

  void prune_dead(Vmm& vmm);
  ProcState& state_for(Pid pid, const PageTable& pt);
  /// Jump over whole rotation rounds in which no process reaches a page it
  /// can act on, charging \p budget, the hands and cursor_ as the sweep would.
  void skip_idle_rounds(Vmm& vmm, std::int64_t& budget);

  std::map<Pid, ProcState> procs_;
  std::size_t cursor_ = 0;  ///< rotating process index
};

class S3FifoPolicy final : public ReclaimPolicy {
 public:
  [[nodiscard]] std::vector<Victim> select_victims(Vmm& vmm,
                                                   std::int64_t max_pages) override;

  [[nodiscard]] std::string_view name() const override { return "s3-fifo"; }

  /// Remember the page for the next ingest (it may need a queue entry).
  void on_map(Pid pid, VPage vpage) override;

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
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.first) << 40) ^
          static_cast<std::uint64_t>(k.second));
    }
  };

  /// Enqueue resident pages not yet tracked, routing ghost re-entries to
  /// the main queue, in pid then vpage order. Only pages mapped since the
  /// last call and that call's still-present victims can be untracked, so
  /// those are all it examines — unless it cannot prove mapped_ holds every
  /// map since the last call, in which case it rescans every page table.
  /// Returns the pages examined.
  std::int64_t ingest(Vmm& vmm);
  void enqueue(const Key& key);
  void ghost_insert(const Key& key);

  /// Whether \p small_queue is where the sweep evicts from, given the
  /// current queue sizes.
  [[nodiscard]] bool evicts_from_small() const;
  /// Record that the sweep just requeued every entry of the queue it
  /// drains (all in flight), owing it \p rotation more requeues.
  void park(std::int64_t rotation);
  /// True while every page of the parked queue is still in flight.
  [[nodiscard]] bool parked_in_flight(const Vmm& vmm) const;
  /// Perform the owed requeues (on the queue's entries as parked) and
  /// forget the parked state.
  void unpark();

  std::deque<Key> small_;
  std::deque<Key> main_;
  std::unordered_map<Key, Where, KeyHash> tracked_;  ///< never iterated
  std::set<Key> ghost_;
  std::deque<Key> ghost_fifo_;  ///< ghost eviction order (capacity-bounded)
  Stats stats_;

  // Incremental ingest. mapped_ holds every on_map since the last call while
  // synced_; it is proven complete when synced_maps_ + mapped_.size() equals
  // the Vmm's map count. returned_ holds the last call's victims.
  std::vector<Key> mapped_;
  std::vector<Key> returned_;
  std::uint64_t synced_maps_ = 0;
  bool synced_ = false;

  // The queue the sweep drains, when its last drain requeued every entry
  // for I/O in flight. While every one of those pages is still in flight
  // and neither queue has changed size, a call only rotates that queue, so
  // the rotation is owed instead of performed.
  struct ParkedWord {
    Pid pid = kNoPid;
    std::size_t word = 0;
    std::uint64_t pages = 0;  ///< the queue's pages in this bitmap word
  };
  struct Parked {
    bool active = false;
    bool small = false;  ///< which queue is parked
    std::size_t small_size = 0;
    std::size_t main_size = 0;
    std::int64_t rotation = 0;  ///< requeues owed, < the queue's size
    std::vector<ParkedWord> words;
  };
  Parked parked_;
};

}  // namespace apsim
