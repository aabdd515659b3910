#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mem/page.hpp"

/// \file page_table.hpp
/// Flat page table for one process's anonymous address space. Per-page
/// metadata is stored structure-of-arrays: one `uint64_t` bitmap per hot
/// flag (present/referenced/dirty/io_busy/ever_touched/has_slot plus the
/// two working-set epoch tags) and plain arrays for frame/slot/last_ref/age.
/// Reclaim sweeps, the touch engine's runs and bgwrite dirty scans walk the
/// bitmaps word-at-a-time with `std::countr_zero`; call sites that deal
/// with a single page go through the `Pte` accessor view, which keeps the
/// old field-per-page reading while compiling down to single bit ops.

namespace apsim {

/// Word index of a virtual page in a per-flag bitmap row.
[[nodiscard]] constexpr std::size_t page_word(VPage v) {
  return static_cast<std::size_t>(v) >> 6;
}

/// Single-bit mask of a virtual page within its bitmap word.
[[nodiscard]] constexpr std::uint64_t page_bit(VPage v) {
  return std::uint64_t{1} << (static_cast<std::uint64_t>(v) & 63);
}

class Pte;
class ConstPte;

class PageTable {
 public:
  /// Structure-of-arrays metadata for every page of one address space.
  /// Bits past num_pages() in the last word of each row are always zero.
  struct Meta {
    std::int64_t npages = 0;
    std::vector<std::uint64_t> present;
    std::vector<std::uint64_t> referenced;
    std::vector<std::uint64_t> dirty;
    std::vector<std::uint64_t> io_busy;
    std::vector<std::uint64_t> ever_touched;
    std::vector<std::uint64_t> has_slot;  ///< slot[v] != kNoSwapSlot
    std::vector<std::uint64_t> ws_seen;   ///< referenced this WS epoch
    std::vector<std::uint64_t> evicted;   ///< evicted this WS epoch
    std::vector<FrameNum> frame;
    std::vector<SwapSlot> slot;
    std::vector<SimTime> last_ref;
    std::vector<std::uint8_t> age;
  };

  /// Raw row pointers for a hot loop that touches many pages. Obtained via
  /// hot_rows(); the rows never resize, so the pointers stay valid for the
  /// table's lifetime.
  struct HotRows {
    std::uint64_t* present = nullptr;
    std::uint64_t* referenced = nullptr;
    std::uint64_t* dirty = nullptr;
    std::uint64_t* io_busy = nullptr;
    std::uint64_t* ever_touched = nullptr;
    std::uint64_t* has_slot = nullptr;
    std::uint64_t* ws_seen = nullptr;
    SwapSlot* slot = nullptr;
    SimTime* last_ref = nullptr;
  };

  explicit PageTable(std::int64_t num_pages);

  [[nodiscard]] std::int64_t num_pages() const { return meta_.npages; }

  [[nodiscard]] inline Pte at(VPage v);
  [[nodiscard]] inline ConstPte at(VPage v) const;

  [[nodiscard]] bool valid(VPage v) const {
    return v >= 0 && v < num_pages();
  }

  /// Clock hand for the replacement sweep; wraps modulo num_pages().
  [[nodiscard]] VPage clock_hand() const { return clock_hand_; }
  void set_clock_hand(VPage v) { clock_hand_ = v % num_pages(); }
  VPage advance_clock_hand() {
    clock_hand_ = (clock_hand_ + 1) % num_pages();
    return clock_hand_;
  }

  // --- word-at-a-time scans -------------------------------------------------

  /// First page >= from with the present bit set; num_pages() if none.
  [[nodiscard]] VPage next_present(VPage from) const {
    const Meta& m = meta_;
    return scan_from(from, [&m](std::size_t w) { return m.present[w]; });
  }

  /// First page >= from that is present with no I/O in flight (a page the
  /// clock sweep can act on); num_pages() if none.
  [[nodiscard]] VPage next_present_idle(VPage from) const {
    const Meta& m = meta_;
    return scan_from(
        from, [&m](std::size_t w) { return m.present[w] & ~m.io_busy[w]; });
  }

  /// First page >= from that is live (present or holding a swap copy);
  /// num_pages() if none.
  [[nodiscard]] VPage next_live(VPage from) const {
    const Meta& m = meta_;
    return scan_from(from,
                     [&m](std::size_t w) { return m.present[w] | m.has_slot[w]; });
  }

  /// First page >= from that bgwrite could write back (present, dirty, no
  /// I/O in flight); num_pages() if none.
  [[nodiscard]] VPage next_dirty_candidate(VPage from) const {
    const Meta& m = meta_;
    return scan_from(from, [&m](std::size_t w) {
      return m.present[w] & m.dirty[w] & ~m.io_busy[w];
    });
  }

  /// Number of present pages in [start, start + count).
  [[nodiscard]] std::int64_t count_present(VPage start, std::int64_t count) const;

  // --- working-set epoch ----------------------------------------------------

  /// Start a new WS epoch: forget which pages were seen or evicted in the
  /// previous one. Replaces the per-page epoch stamps of the AoS layout.
  void clear_epoch_tags();

  // --- metadata rows --------------------------------------------------------

  /// Row pointers for a hot loop.
  [[nodiscard]] HotRows hot_rows() {
    Meta& m = meta_;
    return {m.present.data(),  m.referenced.data(),   m.dirty.data(),
            m.io_busy.data(),  m.ever_touched.data(), m.has_slot.data(),
            m.ws_seen.data(),  m.slot.data(),         m.last_ref.data()};
  }

  [[nodiscard]] const Meta& ro() const { return meta_; }
  [[nodiscard]] Meta& rw() { return meta_; }

 private:
  template <class WordAt>
  [[nodiscard]] VPage scan_from(VPage from, WordAt word_at) const {
    const std::int64_t n = num_pages();
    if (from >= n) return n;
    if (from < 0) from = 0;
    std::size_t wi = page_word(from);
    const std::size_t nwords = meta_.present.size();
    std::uint64_t w = word_at(wi) & (~std::uint64_t{0} << (from & 63));
    while (w == 0) {
      if (++wi >= nwords) return n;
      w = word_at(wi);
    }
    return static_cast<VPage>((wi << 6) + std::countr_zero(w));
  }

  Meta meta_;
  VPage clock_hand_ = 0;
};

/// Mutable accessor view of one page-table entry: a lightweight
/// (table, page) pair whose accessors resolve the row on use.
class Pte {
 public:
  Pte(PageTable* pt, VPage v) : pt_(pt), v_(v) {}

  [[nodiscard]] bool present() const { return get(ro().present); }
  [[nodiscard]] bool referenced() const { return get(ro().referenced); }
  [[nodiscard]] bool dirty() const { return get(ro().dirty); }
  [[nodiscard]] bool io_busy() const { return get(ro().io_busy); }
  [[nodiscard]] bool ever_touched() const { return get(ro().ever_touched); }
  [[nodiscard]] bool ws_seen() const { return get(ro().ws_seen); }
  [[nodiscard]] bool evicted_this_epoch() const { return get(ro().evicted); }
  [[nodiscard]] FrameNum frame() const { return ro().frame[idx()]; }
  [[nodiscard]] SwapSlot slot() const { return ro().slot[idx()]; }
  [[nodiscard]] SimTime last_ref() const { return ro().last_ref[idx()]; }
  [[nodiscard]] std::uint8_t age() const { return ro().age[idx()]; }

  void set_present(bool b) { put(rw().present, b); }
  void set_referenced(bool b) { put(rw().referenced, b); }
  void set_dirty(bool b) { put(rw().dirty, b); }
  void set_io_busy(bool b) { put(rw().io_busy, b); }
  void set_ever_touched(bool b) { put(rw().ever_touched, b); }
  void set_ws_seen() { rw().ws_seen[page_word(v_)] |= page_bit(v_); }
  void set_evicted_this_epoch() { rw().evicted[page_word(v_)] |= page_bit(v_); }
  void set_frame(FrameNum f) { rw().frame[idx()] = f; }
  void set_slot(SwapSlot s) {
    PageTable::Meta& m = rw();
    m.slot[idx()] = s;
    put_row(m.has_slot, s != kNoSwapSlot);
  }
  void set_last_ref(SimTime t) { rw().last_ref[idx()] = t; }
  void set_age(std::uint8_t a) { rw().age[idx()] = a; }

  /// True when eviction would need no disk write (valid swap copy, clean).
  [[nodiscard]] bool clean_drop_ok() const {
    const PageTable::Meta& m = ro();
    const std::uint64_t bit = page_bit(v_);
    const std::size_t w = page_word(v_);
    return (m.present[w] & bit) && !(m.dirty[w] & bit) && (m.has_slot[w] & bit);
  }

 private:
  [[nodiscard]] const PageTable::Meta& ro() const { return pt_->ro(); }
  [[nodiscard]] PageTable::Meta& rw() const { return pt_->rw(); }
  [[nodiscard]] std::size_t idx() const { return static_cast<std::size_t>(v_); }
  [[nodiscard]] bool get(const std::vector<std::uint64_t>& row) const {
    return (row[page_word(v_)] & page_bit(v_)) != 0;
  }
  void put(std::vector<std::uint64_t>& row, bool b) const { put_row(row, b); }
  void put_row(std::vector<std::uint64_t>& row, bool b) const {
    if (b) {
      row[page_word(v_)] |= page_bit(v_);
    } else {
      row[page_word(v_)] &= ~page_bit(v_);
    }
  }

  PageTable* pt_;
  VPage v_;
};

/// Read-only accessor view of one page-table entry.
class ConstPte {
 public:
  ConstPte(const PageTable* pt, VPage v) : pt_(pt), v_(v) {}

  [[nodiscard]] bool present() const { return get(ro().present); }
  [[nodiscard]] bool referenced() const { return get(ro().referenced); }
  [[nodiscard]] bool dirty() const { return get(ro().dirty); }
  [[nodiscard]] bool io_busy() const { return get(ro().io_busy); }
  [[nodiscard]] bool ever_touched() const { return get(ro().ever_touched); }
  [[nodiscard]] bool ws_seen() const { return get(ro().ws_seen); }
  [[nodiscard]] bool evicted_this_epoch() const { return get(ro().evicted); }
  [[nodiscard]] FrameNum frame() const { return ro().frame[idx()]; }
  [[nodiscard]] SwapSlot slot() const { return ro().slot[idx()]; }
  [[nodiscard]] SimTime last_ref() const { return ro().last_ref[idx()]; }
  [[nodiscard]] std::uint8_t age() const { return ro().age[idx()]; }

  [[nodiscard]] bool clean_drop_ok() const {
    const PageTable::Meta& m = ro();
    const std::uint64_t bit = page_bit(v_);
    const std::size_t w = page_word(v_);
    return (m.present[w] & bit) && !(m.dirty[w] & bit) && (m.has_slot[w] & bit);
  }

 private:
  [[nodiscard]] const PageTable::Meta& ro() const { return pt_->ro(); }
  [[nodiscard]] std::size_t idx() const { return static_cast<std::size_t>(v_); }
  [[nodiscard]] bool get(const std::vector<std::uint64_t>& row) const {
    return (row[page_word(v_)] & page_bit(v_)) != 0;
  }

  const PageTable* pt_;
  VPage v_;
};

inline Pte PageTable::at(VPage v) {
  assert(valid(v));
  return Pte(this, v);
}

inline ConstPte PageTable::at(VPage v) const {
  assert(valid(v));
  return ConstPte(this, v);
}

}  // namespace apsim
