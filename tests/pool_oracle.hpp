#pragma once

// The compressed swap pool exactly as it was before its storage went flat:
// entries in a std::map keyed by swap slot and the LRU order in a
// std::list. Copied verbatim into namespace apsim::oracle; the differential
// test drives it side by side with the slab-and-hash pool and requires
// identical results, counters and LRU order.

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "tier/compressed_pool.hpp"

namespace apsim::oracle {

class CompressedPool {
 public:
  explicit CompressedPool(CompressedPoolParams params);

  CompressedPool(const CompressedPool&) = delete;
  CompressedPool& operator=(const CompressedPool&) = delete;

  /// Deterministic compression ratio the model assigns to \p slot's
  /// contents, in (0, 1].
  [[nodiscard]] double ratio_of(SwapSlot slot) const;

  /// Compressed size of \p slot under the model, bytes.
  [[nodiscard]] std::int64_t compressed_bytes_of(SwapSlot slot) const;

  /// Try to admit \p slot. Returns the compressed size charged against the
  /// budget, or std::nullopt when the page is rejected (ratio above the
  /// admit threshold, or insufficient budget). Re-storing a resident slot
  /// replaces the old entry.
  std::optional<std::int64_t> store(SwapSlot slot);

  [[nodiscard]] bool contains(SwapSlot slot) const {
    return entries_.contains(slot);
  }

  /// Mark \p slot most-recently-used (pool load hit). No-op if absent.
  void touch(SwapSlot slot);

  /// Drop \p slot's entry, releasing its budget (slot freed, or written
  /// back to disk). Safe to call for absent slots; returns true if dropped.
  bool drop(SwapSlot slot);

  /// Pop up to \p max_slots of the coldest entries not already under
  /// writeback and mark them as writing. The caller must finish each with
  /// finish_writeback().
  [[nodiscard]] std::vector<SwapSlot> begin_writeback(std::int64_t max_slots);

  /// Conclude a writeback started by begin_writeback(). On success the
  /// entry is dropped (the data now lives on disk); on failure it returns
  /// to the cold end of the LRU for a later retry. No-op if the slot was
  /// invalidated while the write was in flight.
  void finish_writeback(SwapSlot slot, bool ok);

  [[nodiscard]] std::int64_t bytes_used() const { return bytes_used_; }
  [[nodiscard]] std::int64_t budget_bytes() const { return params_.budget_bytes; }

  /// Runtime actuator (adaptive control plane): retarget the byte budget.
  /// Shrinking below the current occupancy rejects new stores until the LRU
  /// writeback (or invalidations) drain the excess; nothing is dropped
  /// eagerly. The boot-time frame carve is fixed, so the budget can only be
  /// returned, never grown past its construction value — the TierManager's
  /// wrapper enforces that bound.
  void set_budget_bytes(std::int64_t bytes) {
    params_.budget_bytes = std::max<std::int64_t>(1, bytes);
  }
  [[nodiscard]] std::int64_t entry_count() const {
    return static_cast<std::int64_t>(entries_.size());
  }
  /// Occupancy as a fraction of the budget, in [0, ~1].
  [[nodiscard]] double occupancy() const {
    return static_cast<double>(bytes_used_) /
           static_cast<double>(params_.budget_bytes);
  }

  [[nodiscard]] const CompressedPoolParams& params() const { return params_; }

  struct Stats {
    std::uint64_t pages_stored = 0;
    std::uint64_t bytes_stored = 0;      ///< cumulative compressed bytes admitted
    std::uint64_t rejects_ratio = 0;     ///< page compressed too poorly
    std::uint64_t rejects_budget = 0;    ///< pool out of budget
    std::uint64_t invalidations = 0;     ///< entries dropped via drop()
    std::uint64_t peak_bytes = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::int64_t bytes = 0;
    bool writing = false;            ///< writeback in flight
    std::list<SwapSlot>::iterator lru_pos;
  };

  CompressedPoolParams params_;
  std::map<SwapSlot, Entry> entries_;
  /// LRU order: front = hottest, back = coldest. Entries under writeback
  /// are removed from the list (they have no position until the write
  /// fails and they rejoin at the cold end).
  std::list<SwapSlot> lru_;
  std::int64_t bytes_used_ = 0;
  Stats stats_;
};

}  // namespace apsim::oracle
