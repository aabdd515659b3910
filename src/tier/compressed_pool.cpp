#include "tier/compressed_pool.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "mem/page.hpp"
#include "sim/rng.hpp"

namespace apsim {

std::string_view to_string(TierRatioModel model) {
  switch (model) {
    case TierRatioModel::kMixed: return "mixed";
    case TierRatioModel::kText: return "text";
    case TierRatioModel::kZeroFilled: return "zero";
    case TierRatioModel::kIncompressible: return "incompressible";
  }
  return "?";
}

TierRatioModel parse_tier_ratio_model(std::string_view text) {
  for (TierRatioModel model :
       {TierRatioModel::kMixed, TierRatioModel::kText,
        TierRatioModel::kZeroFilled, TierRatioModel::kIncompressible}) {
    if (text == to_string(model)) return model;
  }
  throw std::invalid_argument("tier: unknown ratio model '" +
                              std::string(text) + "'");
}

CompressedPool::CompressedPool(CompressedPoolParams params)
    : params_(params) {
  assert(params_.budget_bytes > 0);
  assert(params_.max_admit_ratio > 0.0 && params_.max_admit_ratio <= 1.0);
}

double CompressedPool::ratio_of(SwapSlot slot) const {
  // Two independent uniforms from the (seed, slot) hash: one selects the
  // mode of a bimodal model, the other positions within the mode's range.
  std::uint64_t state =
      params_.seed ^ (static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ULL);
  const double u = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  const double v = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  switch (params_.model) {
    case TierRatioModel::kMixed:
      // ~25% of pages are entropy-dense and effectively incompressible.
      return u < 0.25 ? 0.85 + 0.15 * v : 0.20 + 0.40 * v;
    case TierRatioModel::kText:
      return 0.25 + 0.30 * v;
    case TierRatioModel::kZeroFilled:
      return u < 0.80 ? 0.02 + 0.08 * v : 0.30 + 0.30 * v;
    case TierRatioModel::kIncompressible:
      return 0.92 + 0.08 * v;
  }
  return 1.0;
}

std::int64_t CompressedPool::bytes_for_ratio(double ratio) {
  const auto bytes =
      static_cast<std::int64_t>(ratio * static_cast<double>(kPageBytes));
  return std::clamp<std::int64_t>(bytes, 128, kPageBytes);
}

std::int64_t CompressedPool::compressed_bytes_of(SwapSlot slot) const {
  return bytes_for_ratio(ratio_of(slot));
}

std::optional<std::int64_t> CompressedPool::store(SwapSlot slot) {
  const double ratio = ratio_of(slot);
  if (ratio > params_.max_admit_ratio) {
    ++stats_.rejects_ratio;
    return std::nullopt;
  }
  const std::int64_t bytes = bytes_for_ratio(ratio);
  Index i = find(slot);
  const std::int64_t charge = bytes - (i != kNone ? slab_[i].bytes : 0);
  if (bytes_used_ + charge > params_.budget_bytes) {
    ++stats_.rejects_budget;
    return std::nullopt;
  }
  if (i != kNone) {
    // Replace: same slot re-stored (defensive; the VMM frees a slot before
    // rewriting it, so in practice the hook has dropped the old entry). The
    // entry keeps its slab cell and index bucket and becomes the hottest.
    if (!slab_[i].writing) unlink(i);
    bytes_used_ -= slab_[i].bytes;
  } else {
    if (free_head_ != kNone) {
      i = free_head_;
      free_head_ = slab_[i].colder;
    } else {
      i = static_cast<Index>(slab_.size());
      slab_.emplace_back();
    }
    slab_[i].slot = slot;
    if (2 * (entry_count_ + 1) > std::ssize(index_)) grow();
    place(Bucket{slot, i});
    ++entry_count_;
  }
  slab_[i].bytes = bytes;
  slab_[i].writing = false;
  push_hot(i);
  bytes_used_ += bytes;
  ++stats_.pages_stored;
  stats_.bytes_stored += static_cast<std::uint64_t>(bytes);
  stats_.peak_bytes = std::max(stats_.peak_bytes,
                               static_cast<std::uint64_t>(bytes_used_));
  return bytes;
}

bool CompressedPool::touch(SwapSlot slot) {
  const Index i = find(slot);
  if (i == kNone) return false;
  if (!slab_[i].writing) {
    unlink(i);
    push_hot(i);
  }
  return true;
}

bool CompressedPool::drop(SwapSlot slot) {
  const std::size_t b = bucket_of(slot);
  if (b == kNoBucket) return false;
  release(b);
  ++stats_.invalidations;
  return true;
}

std::vector<SwapSlot> CompressedPool::begin_writeback(std::int64_t max_slots) {
  std::vector<SwapSlot> out;
  while (std::ssize(out) < max_slots && coldest_ != kNone) {
    const Index i = coldest_;
    unlink(i);
    slab_[i].writing = true;
    out.push_back(slab_[i].slot);
  }
  return out;
}

void CompressedPool::finish_writeback(SwapSlot slot, bool ok) {
  const std::size_t b = bucket_of(slot);
  // The entry may have been invalidated while the write flew — and the slot
  // may even have been recycled and re-stored since (a fresh, non-writing
  // entry). Either way the in-flight write no longer corresponds to the
  // pool's state for this slot, so it must not touch the entry.
  if (b == kNoBucket) return;
  const Index i = index_[b].entry;
  if (!slab_[i].writing) return;
  if (ok) {
    release(b);
    return;
  }
  // Failed write: the compressed copy is still the only copy. Re-queue at
  // the cold end so the next pass retries it.
  slab_[i].writing = false;
  push_cold(i);
}

std::size_t CompressedPool::bucket_of(SwapSlot slot) const {
  if (index_.empty()) return kNoBucket;
  const std::size_t mask = index_.size() - 1;
  // The load stays at or under one half, so every probe ends at an empty
  // bucket.
  for (std::size_t b = home_of(slot);; b = (b + 1) & mask) {
    if (index_[b].entry == kNone) return kNoBucket;
    if (index_[b].slot == slot) return b;
  }
}

std::size_t CompressedPool::home_of(SwapSlot slot) const {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ULL) >>
      index_shift_);
}

void CompressedPool::place(Bucket bucket) {
  const std::size_t mask = index_.size() - 1;
  std::size_t b = home_of(bucket.slot);
  while (index_[b].entry != kNone) b = (b + 1) & mask;
  index_[b] = bucket;
}

void CompressedPool::grow() {
  const std::vector<Bucket> old = std::exchange(
      index_, std::vector<Bucket>(std::max<std::size_t>(16, 2 * index_.size())));
  index_shift_ = 64 - std::countr_zero(index_.size());
  for (const Bucket& bucket : old) {
    if (bucket.entry != kNone) place(bucket);
  }
}

void CompressedPool::release(std::size_t hole) {
  const Index i = index_[hole].entry;
  if (!slab_[i].writing) unlink(i);
  bytes_used_ -= slab_[i].bytes;
  slab_[i].colder = free_head_;
  free_head_ = i;
  --entry_count_;

  // Backward-shift deletion: walk the probe chain after the hole and move
  // back every bucket whose home does not lie cyclically in (hole, b], so
  // no lookup ever meets an empty bucket before its slot.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t b = (hole + 1) & mask; index_[b].entry != kNone;
       b = (b + 1) & mask) {
    if (((b - home_of(index_[b].slot)) & mask) >= ((b - hole) & mask)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = Bucket{};
}

void CompressedPool::push_hot(Index i) {
  slab_[i].hotter = kNone;
  slab_[i].colder = hottest_;
  (hottest_ != kNone ? slab_[hottest_].hotter : coldest_) = i;
  hottest_ = i;
}

void CompressedPool::push_cold(Index i) {
  slab_[i].colder = kNone;
  slab_[i].hotter = coldest_;
  (coldest_ != kNone ? slab_[coldest_].colder : hottest_) = i;
  coldest_ = i;
}

void CompressedPool::unlink(Index i) {
  const Entry& e = slab_[i];
  (e.hotter != kNone ? slab_[e.hotter].colder : hottest_) = e.colder;
  (e.colder != kNone ? slab_[e.colder].hotter : coldest_) = e.hotter;
}

}  // namespace apsim
