#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "disk/swap_device.hpp"
#include "sim/time.hpp"

/// \file compressed_pool.hpp
/// Simulated zswap-style compressed RAM tier. The pool holds compressed
/// copies of swap-slot contents against a fixed byte budget carved out of
/// the node's physical frames. Per-page compressibility comes from a
/// deterministic hash of (seed, slot) mapped through a workload-dependent
/// ratio model, so runs are bit-reproducible without consuming any shared
/// RNG stream per operation. The pool is pure state — the TierManager owns
/// all timing (compress/decompress costs, writeback I/O).
///
/// Storage is flat: entries live in a slab (a vector with a free list), the
/// LRU is threaded through the slab by index, and an open-addressing table
/// maps slots to slab indices. Every per-slot operation costs O(1) expected
/// time and allocates nothing per entry. The table is sized by the pool's
/// occupancy, not by the swap area, whose slot count is far larger.

namespace apsim {

/// How compressible the workload's pages are. Chosen per scenario
/// (`tier_ratio_model`); the distributions are loosely calibrated to the
/// zswap literature: dense numeric data compresses ~2-3x, zero-dominated
/// pages nearly vanish, entropy-dense data defeats the compressor.
enum class TierRatioModel : std::uint8_t {
  kMixed,           ///< bimodal: most pages ~2-4x, a tail incompressible
  kText,            ///< uniformly ~2-4x (structured/numeric data)
  kZeroFilled,      ///< mostly near-empty pages (sparse matrices)
  kIncompressible,  ///< entropy-dense; the pool admits almost nothing
};

[[nodiscard]] std::string_view to_string(TierRatioModel model);

/// Parse a scenario-file value ("mixed", "text", "zero", "incompressible").
/// Throws std::invalid_argument on unknown names.
[[nodiscard]] TierRatioModel parse_tier_ratio_model(std::string_view text);

struct CompressedPoolParams {
  /// RAM budget for compressed data, bytes. Must be > 0.
  std::int64_t budget_bytes = 0;

  TierRatioModel model = TierRatioModel::kMixed;

  /// Pages compressing worse than this ratio are rejected (zswap's
  /// "incompressible page" path) and go straight to disk.
  double max_admit_ratio = 0.9;

  /// Seed for the deterministic per-slot compressibility hash.
  std::uint64_t seed = 1;
};

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
    return find(slot) != kNone;
  }

  /// Pool load: true iff the pool holds \p slot, which then becomes
  /// most-recently-used. An entry under writeback is a hit that keeps its
  /// LRU place.
  bool touch(SwapSlot slot);

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
  [[nodiscard]] std::int64_t entry_count() const { return entry_count_; }
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
  /// Slab index of an entry; kNone marks "no entry" (empty index bucket, end
  /// of a list).
  using Index = std::int32_t;
  static constexpr Index kNone = -1;

  struct Entry {
    SwapSlot slot = kNoSwapSlot;
    std::int64_t bytes = 0;
    /// LRU neighbours, toward the hot and the cold end. A free entry chains
    /// the free list through `colder`.
    Index hotter = kNone;
    Index colder = kNone;
    bool writing = false;  ///< writeback in flight
  };

  /// One open-addressing bucket; `entry == kNone` marks it empty.
  struct Bucket {
    SwapSlot slot = kNoSwapSlot;
    Index entry = kNone;
  };

  /// Compressed size of a page with compression ratio \p ratio, bytes.
  [[nodiscard]] static std::int64_t bytes_for_ratio(double ratio);

  static constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);

  /// Slab index of \p slot's entry, or kNone.
  [[nodiscard]] Index find(SwapSlot slot) const {
    const std::size_t b = bucket_of(slot);
    return b == kNoBucket ? kNone : index_[b].entry;
  }
  /// Index bucket holding \p slot, or kNoBucket.
  [[nodiscard]] std::size_t bucket_of(SwapSlot slot) const;
  /// Home bucket of \p slot: multiplicative hash, top bits. Needs a
  /// non-empty index.
  [[nodiscard]] std::size_t home_of(SwapSlot slot) const;
  /// Put \p bucket in the first free bucket from its home on.
  void place(Bucket bucket);
  /// Double the index (16 buckets on the first store) and re-place every
  /// bucket.
  void grow();
  /// Remove the entry indexed at \p bucket: unlink it from the LRU, return
  /// its budget and slab cell, and close the index hole by backward shift.
  void release(std::size_t bucket);

  void push_hot(Index i);
  void push_cold(Index i);
  void unlink(Index i);

  CompressedPoolParams params_;
  std::vector<Entry> slab_;
  Index free_head_ = kNone;
  /// LRU ends. Entries under writeback are unlinked (they have no position
  /// until the write fails and they rejoin at the cold end).
  Index hottest_ = kNone;
  Index coldest_ = kNone;
  /// Power-of-two slot -> entry index, linear probing at a load of at most
  /// one half; empty until the first store.
  std::vector<Bucket> index_;
  int index_shift_ = 0;  ///< 64 - log2(index_.size()), set by grow()
  std::int64_t entry_count_ = 0;
  std::int64_t bytes_used_ = 0;
  Stats stats_;
};

}  // namespace apsim
