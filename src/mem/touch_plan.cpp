#include "mem/touch_plan.hpp"

#include <algorithm>
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
