#include "mem/touch_plan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace apsim {

ZipfTable::ZipfTable(std::int64_t n, double theta)
    : n_(n), theta_(theta), hn_(zipf_harmonic(n, theta)) {
  assert(n >= 1 && static_cast<std::uint64_t>(n) <= kMixed &&
         "every rank must fit below the mixed-bucket sentinel");
  const int bits = std::clamp(
      static_cast<int>(std::bit_width(static_cast<std::uint64_t>(n - 1))) + 3,
      10, 20);
  shift_ = 64 - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  guide_.resize(buckets);

  constexpr double kMargin = 0x1.0p-48;
  const std::int64_t top = n - 1;
  double lo = zipf_x(0, theta, hn_);
  for (std::size_t b = 0; b < buckets; ++b) {
    // The next bucket's first draw bounds this one from above; the last
    // bucket is bounded by its own last draw.
    const std::uint64_t next =
        b + 1 < buckets ? static_cast<std::uint64_t>(b + 1) << shift_
                        : ~std::uint64_t{0};
    const double hi = zipf_x(next, theta, hn_);
    const std::int64_t r = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(lo), 0, top);
    const auto rd = static_cast<double>(r);
    const bool pure = (r == 0 || lo - rd >= kMargin * (lo + 1.0)) &&
                      (r == top || rd + 1.0 - hi >= kMargin * (hi + 1.0));
    guide_[b] = pure ? static_cast<std::uint32_t>(r) : kMixed;
    mixed_ += pure ? 0 : 1;
    lo = hi;
  }
}

std::int64_t ZipfTable::ranks(std::uint64_t seed, std::int64_t first,
                              std::span<std::uint32_t> out) const {
  assert(first >= 0 && out.size() <= static_cast<std::uint64_t>(
                                         INT64_MAX - first) + 1);
  // Locals, so the stores to `out` (which may alias an int) cannot force
  // reloads of the table's members.
  const std::uint32_t* const guide = guide_.data();
  const int shift = shift_;
  std::int64_t resolved = 0;
  static_assert(kBlock <= std::size_t{1} << 16);
  // Block offsets of the mixed draws. Not zeroed: pass 2 reads only the m
  // entries pass 1 wrote.
  std::array<std::uint16_t, kBlock> mixed;
  for (std::size_t at = 0; at < out.size(); at += kBlock) {
    const std::span<std::uint32_t> block =
        out.subspan(at, std::min(kBlock, out.size() - at));
    const std::int64_t i0 = first + static_cast<std::int64_t>(at);
    // Pass 1: one guide load per draw. Every offset is written to the next
    // free entry of `mixed`, which keeps it only when the draw was mixed, so
    // the loop has no branch on the table.
    std::size_t m = 0;
    for (std::size_t k = 0; k < block.size(); ++k) {
      const std::uint32_t r =
          guide[touch_hash(seed, i0 + static_cast<std::int64_t>(k)) >> shift];
      block[k] = r;
      mixed[m] = static_cast<std::uint16_t>(k);
      m += r == kMixed ? 1 : 0;
    }
    // Pass 2: the exact rank of each mixed draw.
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t k = mixed[j];
      block[k] = static_cast<std::uint32_t>(zipf_rank(
          touch_hash(seed, i0 + static_cast<std::int64_t>(k)), n_, theta_,
          hn_));
    }
    resolved += static_cast<std::int64_t>(m);
  }
  return resolved;
}

const ZipfTable& zipf_table(std::int64_t n, double theta) {
  static std::mutex mutex;
  static std::map<std::pair<std::int64_t, double>, std::unique_ptr<ZipfTable>>
      tables;
  const std::lock_guard lock(mutex);
  std::unique_ptr<ZipfTable>& table = tables[{n, theta}];
  if (table == nullptr) table = std::make_unique<ZipfTable>(n, theta);
  return *table;
}

}  // namespace apsim
