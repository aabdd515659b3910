#include "mem/page_table.hpp"

#include <algorithm>

namespace apsim {

namespace {
[[nodiscard]] std::size_t words_for(std::int64_t npages) {
  return static_cast<std::size_t>((npages + 63) / 64);
}
}  // namespace

PageTable::PageTable(std::int64_t num_pages) {
  Meta& m = meta_;
  m.npages = num_pages;
  const std::size_t nwords = words_for(num_pages);
  const std::size_t n = static_cast<std::size_t>(num_pages);
  m.present.assign(nwords, 0);
  m.referenced.assign(nwords, 0);
  m.dirty.assign(nwords, 0);
  m.io_busy.assign(nwords, 0);
  m.ever_touched.assign(nwords, 0);
  m.has_slot.assign(nwords, 0);
  m.ws_seen.assign(nwords, 0);
  m.evicted.assign(nwords, 0);
  m.frame.assign(n, kNoFrame);
  m.slot.assign(n, kNoSwapSlot);
  m.last_ref.assign(n, 0);
  m.age.assign(n, 0);
}

std::int64_t PageTable::count_present(VPage start, std::int64_t count) const {
  const Meta& m = meta_;
  if (count <= 0) return 0;
  if (start < 0) {
    count += start;
    start = 0;
    if (count <= 0) return 0;
  }
  const std::int64_t end = std::min<std::int64_t>(start + count, m.npages);
  if (start >= end) return 0;
  std::size_t wi = page_word(start);
  const std::size_t we = page_word(end - 1);
  std::int64_t total = 0;
  std::uint64_t w = m.present[wi] & (~std::uint64_t{0} << (start & 63));
  while (true) {
    if (wi == we) {
      const unsigned last = static_cast<unsigned>((end - 1) & 63);
      if (last != 63) w &= (std::uint64_t{1} << (last + 1)) - 1;
      total += std::popcount(w);
      return total;
    }
    total += std::popcount(w);
    w = m.present[++wi];
  }
}

void PageTable::clear_epoch_tags() {
  Meta& m = meta_;
  std::fill(m.ws_seen.begin(), m.ws_seen.end(), 0);
  std::fill(m.evicted.begin(), m.evicted.end(), 0);
}

}  // namespace apsim
