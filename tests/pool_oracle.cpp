#include "pool_oracle.hpp"

#include <algorithm>
#include <cassert>

#include "mem/page.hpp"
#include "sim/rng.hpp"

namespace apsim::oracle {

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

std::int64_t CompressedPool::compressed_bytes_of(SwapSlot slot) const {
  const auto bytes = static_cast<std::int64_t>(
      ratio_of(slot) * static_cast<double>(kPageBytes));
  return std::clamp<std::int64_t>(bytes, 128, kPageBytes);
}

std::optional<std::int64_t> CompressedPool::store(SwapSlot slot) {
  if (ratio_of(slot) > params_.max_admit_ratio) {
    ++stats_.rejects_ratio;
    return std::nullopt;
  }
  const std::int64_t bytes = compressed_bytes_of(slot);
  auto it = entries_.find(slot);
  const std::int64_t charge = bytes - (it != entries_.end() ? it->second.bytes : 0);
  if (bytes_used_ + charge > params_.budget_bytes) {
    ++stats_.rejects_budget;
    return std::nullopt;
  }
  if (it != entries_.end()) {
    // Replace: same slot re-stored (defensive; the VMM frees a slot before
    // rewriting it, so in practice the hook has dropped the old entry).
    if (!it->second.writing) lru_.erase(it->second.lru_pos);
    bytes_used_ -= it->second.bytes;
    entries_.erase(it);
  }
  lru_.push_front(slot);
  entries_.emplace(slot, Entry{bytes, false, lru_.begin()});
  bytes_used_ += bytes;
  ++stats_.pages_stored;
  stats_.bytes_stored += static_cast<std::uint64_t>(bytes);
  stats_.peak_bytes = std::max(stats_.peak_bytes,
                               static_cast<std::uint64_t>(bytes_used_));
  return bytes;
}

void CompressedPool::touch(SwapSlot slot) {
  auto it = entries_.find(slot);
  if (it == entries_.end() || it->second.writing) return;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
}

bool CompressedPool::drop(SwapSlot slot) {
  auto it = entries_.find(slot);
  if (it == entries_.end()) return false;
  if (!it->second.writing) lru_.erase(it->second.lru_pos);
  bytes_used_ -= it->second.bytes;
  entries_.erase(it);
  ++stats_.invalidations;
  return true;
}

std::vector<SwapSlot> CompressedPool::begin_writeback(std::int64_t max_slots) {
  std::vector<SwapSlot> out;
  while (std::ssize(out) < max_slots && !lru_.empty()) {
    const SwapSlot slot = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(slot);
    assert(it != entries_.end() && !it->second.writing);
    it->second.writing = true;
    out.push_back(slot);
  }
  return out;
}

void CompressedPool::finish_writeback(SwapSlot slot, bool ok) {
  auto it = entries_.find(slot);
  // The entry may have been invalidated while the write flew — and the slot
  // may even have been recycled and re-stored since (a fresh, non-writing
  // entry). Either way the in-flight write no longer corresponds to the
  // pool's state for this slot, so it must not touch the entry.
  if (it == entries_.end() || !it->second.writing) return;
  if (ok) {
    bytes_used_ -= it->second.bytes;
    entries_.erase(it);
    return;
  }
  // Failed write: the compressed copy is still the only copy. Re-queue at
  // the cold end so the next pass retries it.
  it->second.writing = false;
  lru_.push_back(slot);
  it->second.lru_pos = std::prev(lru_.end());
}

}  // namespace apsim::oracle
