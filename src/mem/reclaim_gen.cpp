#include "mem/reclaim_gen.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "mem/vmm.hpp"

namespace apsim {

// ---------------------------------------------------------------------------
// MglruPolicy

namespace {

/// First page in [from, to) the sweep acts on: present, and referenced,
/// above generation 0 or with no I/O in flight; `to` if none. The rest of
/// the resident pages (in-flight, generation 0, unreferenced) are no-ops.
VPage next_actionable(const PageTable::Meta& m,
                      const std::vector<std::uint64_t>& gen0, VPage from,
                      VPage to) {
  if (from >= to) return to;
  const auto word = [&](std::size_t w) {
    return m.present[w] & (m.referenced[w] | ~gen0[w] | ~m.io_busy[w]);
  };
  std::size_t wi = page_word(from);
  const std::size_t last = page_word(to - 1);
  std::uint64_t w = word(wi) & (~std::uint64_t{0} << (from & 63));
  while (w == 0) {
    if (++wi > last) return to;
    w = word(wi);
  }
  const auto hit = static_cast<VPage>((wi << 6) + std::countr_zero(w));
  return std::min<VPage>(to, hit);
}

void set_gen(std::vector<std::uint8_t>& gen, std::vector<std::uint64_t>& gen0,
             VPage v, std::uint8_t g) {
  gen[static_cast<std::size_t>(v)] = g;
  if (g == 0) {
    gen0[page_word(v)] |= page_bit(v);
  } else {
    gen0[page_word(v)] &= ~page_bit(v);
  }
}

}  // namespace

void MglruPolicy::prune_dead(Vmm& vmm) {
  for (auto it = procs_.begin(); it != procs_.end();) {
    const bool live = std::find(vmm.pids().begin(), vmm.pids().end(),
                                it->first) != vmm.pids().end() &&
                      vmm.space(it->first).alive();
    it = live ? std::next(it) : procs_.erase(it);
  }
}

MglruPolicy::ProcState& MglruPolicy::state_for(Pid pid, const PageTable& pt) {
  auto& st = procs_[pid];
  if (std::ssize(st.gen) != pt.num_pages()) {
    st.gen.assign(static_cast<std::size_t>(pt.num_pages()), kEntryGen);
    st.gen0.assign(pt.ro().present.size(), 0);
    st.hand = 0;
  }
  return st;
}

void MglruPolicy::skip_idle_rounds(Vmm& vmm, std::int64_t& budget) {
  const auto& pids = vmm.pids();
  const auto sweeps = [&vmm](Pid pid) {
    const auto& as = vmm.space(pid);
    return as.alive() && as.resident_pages() > 0;
  };
  // A round is one visit per rotation slot: kQuota steps for a process the
  // sweep scans, one budget unit for a dead or empty one.
  std::int64_t round_cost = 0;
  for (Pid pid : pids) round_cost += sweeps(pid) ? kQuota : 1;
  std::int64_t rounds = budget / round_cost;  // rounds the budget pays for
  if (rounds == 0) return;

  // Steps from a process's hand to the first page it acts on (cyclic),
  // capped at limit.
  const auto idle_steps = [&](Pid pid, std::int64_t limit) -> std::int64_t {
    const PageTable& pt = vmm.space(pid).page_table();
    const ProcState& st = procs_.at(pid);
    const std::int64_t n = pt.num_pages();
    const VPage from = st.hand >= n ? 0 : st.hand;
    const VPage top = std::min<std::int64_t>(n, from + limit);
    const VPage hit = next_actionable(pt.ro(), st.gen0, from, top);
    if (hit < top) return hit - from;
    // Past the top the sweep wraps to page 0 for free.
    const VPage rest = std::min<std::int64_t>(from, limit - (top - from));
    const VPage wrapped = next_actionable(pt.ro(), st.gen0, 0, rest);
    return wrapped < rest ? (n - from) + wrapped : limit;
  };
  // Widen the horizon geometrically, so the scanning stays proportional to
  // the rounds skipped.
  for (std::int64_t horizon = 1;; horizon = std::min(2 * horizon, rounds)) {
    std::int64_t idle = horizon;
    for (Pid pid : pids) {
      if (!sweeps(pid)) continue;
      idle = std::min(idle, idle_steps(pid, horizon * kQuota) / kQuota);
    }
    if (idle < horizon || horizon == rounds) {
      rounds = idle;
      break;
    }
  }
  if (rounds == 0) return;

  budget -= rounds * round_cost;
  const std::int64_t steps = rounds * kQuota;
  for (Pid pid : pids) {
    if (!sweeps(pid)) continue;
    ProcState& st = procs_.at(pid);
    const std::int64_t n = vmm.space(pid).num_pages();
    // The sweep stores hand == n after stepping off the top and wraps it
    // to 0 only at its next step; land on the same representation.
    const VPage from = st.hand >= n ? 0 : st.hand;
    st.hand = (from + steps - 1) % n + 1;
  }
  // A full round from slot c leaves the cursor at c, or unwrapped at
  // pids.size() when c == 0 (the sweep wraps it at its next visit).
  if (cursor_ == 0) cursor_ = pids.size();
}

std::vector<Victim> MglruPolicy::select_victims(Vmm& vmm,
                                                std::int64_t max_pages) {
  std::vector<Victim> out;
  if (max_pages <= 0) return out;
  prune_dead(vmm);

  const auto& pids = vmm.pids();
  std::int64_t resident = 0;
  for (Pid pid : pids) {
    const auto& as = vmm.space(pid);
    if (as.alive()) resident += as.resident_pages();
  }
  if (resident == 0) return out;

  // Work bound: with kYoungest+1 generations a hot page survives several
  // encounters, so allow the sweep a few passes over the resident set before
  // giving up (mirrors the clock policy's revolution budget).
  std::int64_t budget = (static_cast<std::int64_t>(kYoungest) + 2) * resident;
  std::int64_t scanned = 0;
  std::size_t idle_slots = 0;  // rotation slots in a row that acted on nothing

  while (std::ssize(out) < max_pages && budget > 0) {
    if (cursor_ >= pids.size()) cursor_ = 0;
    if (idle_slots >= pids.size()) {
      // A whole round acted on nothing; the next ones may not either.
      idle_slots = 0;
      skip_idle_rounds(vmm, budget);
      if (budget == 0) break;
      if (cursor_ >= pids.size()) cursor_ = 0;
    }
    const Pid pid = pids[cursor_];
    auto& as = vmm.space(pid);
    if (!as.alive() || as.resident_pages() == 0) {
      ++cursor_;
      ++idle_slots;
      --budget;  // guarantees termination when nothing is evictable
      continue;
    }
    auto& pt = as.page_table();
    auto& st = state_for(pid, pt);
    const std::int64_t npages = pt.num_pages();
    bool acted = false;
    for (std::int64_t q = 0;
         q < kQuota && budget > 0 && std::ssize(out) < max_pages; ++q) {
      if (st.hand >= npages) st.hand = 0;
      const VPage v = st.hand;
      // Word-skip runs of pages the sweep would not act on (non-present, or
      // in flight at generation 0 and unreferenced); each skipped page still
      // costs one quota step and one budget unit, exactly like the
      // page-at-a-time sweep, so rotation and give-up points are unchanged.
      const VPage np = next_actionable(pt.ro(), st.gen0, v, npages);
      if (np != v) {
        const std::int64_t gap = np - v;
        const std::int64_t avail =
            std::min(gap, std::min(kQuota - q, budget));
        st.hand = v + avail;  // == npages wraps at the top of the loop
        budget -= avail;
        q += avail - 1;  // the loop increment covers the last page
        continue;
      }
      ++st.hand;
      --budget;
      ++scanned;
      acted = true;
      Pte pte = pt.at(v);
      const std::uint8_t gen = st.gen[static_cast<std::size_t>(v)];
      if (pte.referenced()) {
        pte.set_referenced(false);
        set_gen(st.gen, st.gen0, v, kYoungest);
      } else if (gen > 0) {
        set_gen(st.gen, st.gen0, v, static_cast<std::uint8_t>(gen - 1));
      } else {
        assert(!pte.io_busy());  // in-flight generation-0 pages are skipped
        out.push_back(Victim{pid, v});
        // If the page comes back it re-enters on probation, not at gen 0.
        set_gen(st.gen, st.gen0, v, kEntryGen);
      }
    }
    idle_slots = acted ? 0 : idle_slots + 1;
    ++cursor_;
  }
  vmm.note_pages_scanned(static_cast<std::uint64_t>(scanned));
  return out;
}

// ---------------------------------------------------------------------------
// S3FifoPolicy

void S3FifoPolicy::ghost_insert(const Key& key) {
  if (ghost_.insert(key).second) ghost_fifo_.push_back(key);
  // Ghost capacity tracks the resident population (the classic sizing: the
  // ghost remembers about one cache-full of departures).
  const auto cap =
      std::max<std::size_t>(tracked_.size() + small_.size() + main_.size(), 64);
  while (ghost_fifo_.size() > cap) {
    ghost_.erase(ghost_fifo_.front());
    ghost_fifo_.pop_front();
  }
}

void S3FifoPolicy::on_map(Pid pid, VPage vpage) {
  if (!synced_) return;  // the next ingest rescans anyway
  // Past the tracked population a rescan is cheaper than sorting the
  // buffer; it also bounds the buffer while the policy goes uncalled.
  if (mapped_.size() >= std::max<std::size_t>(tracked_.size(), 1024)) {
    synced_ = false;
    mapped_ = {};
    return;
  }
  mapped_.push_back({pid, vpage});
}

void S3FifoPolicy::enqueue(const Key& key) {
  if (tracked_.contains(key)) return;
  if (ghost_.contains(key)) {
    // The page was evicted recently and came back: skip probation.
    ghost_.erase(key);
    main_.push_back(key);
    tracked_.emplace(key, Where::kMain);
    ++stats_.ghost_hits;
  } else {
    small_.push_back(key);
    tracked_.emplace(key, Where::kSmall);
  }
}

std::int64_t S3FifoPolicy::ingest(Vmm& vmm) {
  std::int64_t examined = 0;
  const std::uint64_t maps = vmm.stats().pages_mapped;
  if (synced_ && synced_maps_ + mapped_.size() == maps) {
    // After the last call every resident page was tracked except the
    // victims it returned, and tracked_ changes only inside calls; so an
    // untracked resident page now was either mapped since or returned then.
    std::vector<Key>& keys = mapped_;
    keys.insert(keys.end(), returned_.begin(), returned_.end());
    // Vmm::pids() ascends, so (pid, vpage) order is the rescan's order.
    assert(std::is_sorted(vmm.pids().begin(), vmm.pids().end()));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (const Key& key : keys) {
      const auto& as = vmm.space(key.first);
      if (!as.alive()) continue;
      ++examined;
      if (as.page_table().at(key.second).present()) enqueue(key);
    }
  } else {
    for (Pid pid : vmm.pids()) {
      const auto& as = vmm.space(pid);
      if (!as.alive() || as.resident_pages() == 0) continue;
      const auto& pt = as.page_table();
      const std::int64_t npages = pt.num_pages();
      for (VPage v = pt.next_present(0); v < npages;
           v = pt.next_present(v + 1)) {
        ++examined;
        enqueue({pid, v});
      }
    }
  }
  mapped_.clear();
  returned_.clear();
  synced_ = true;
  synced_maps_ = maps;
  return examined;
}

bool S3FifoPolicy::evicts_from_small() const {
  // Evict from the probationary queue while it holds >= ~10% of the
  // tracked population (the S3-FIFO small-queue target), else from main.
  return !small_.empty() &&
         (main_.empty() ||
          10 * std::ssize(small_) >= std::ssize(small_) + std::ssize(main_));
}

void S3FifoPolicy::park(std::int64_t rotation) {
  parked_.small = evicts_from_small();
  const auto& queue = parked_.small ? small_ : main_;
  std::vector<Key> keys(queue.begin(), queue.end());
  std::sort(keys.begin(), keys.end());
  parked_.words.clear();
  for (const Key& key : keys) {
    auto& words = parked_.words;
    const std::size_t w = page_word(key.second);
    if (words.empty() || words.back().pid != key.first ||
        words.back().word != w) {
      words.push_back({key.first, w, 0});
    }
    words.back().pages |= page_bit(key.second);
  }
  parked_.active = true;
  parked_.small_size = small_.size();
  parked_.main_size = main_.size();
  parked_.rotation = rotation;
}

bool S3FifoPolicy::parked_in_flight(const Vmm& vmm) const {
  const auto& pids = vmm.pids();
  for (const ParkedWord& pw : parked_.words) {
    if (!std::binary_search(pids.begin(), pids.end(), pw.pid)) return false;
    const auto& as = vmm.space(pw.pid);
    if (!as.alive()) return false;
    const PageTable::Meta& m = as.page_table().ro();
    const std::uint64_t in_flight =
        m.present[pw.word] & m.io_busy[pw.word] & ~m.referenced[pw.word];
    if ((pw.pages & ~in_flight) != 0) return false;
  }
  return true;
}

void S3FifoPolicy::unpark() {
  if (!parked_.active) return;
  parked_.active = false;
  auto& queue = parked_.small ? small_ : main_;
  // Entries enqueued since parking sit behind the parked ones.
  const std::size_t parked_size =
      parked_.small ? parked_.small_size : parked_.main_size;
  const auto parked_end =
      queue.begin() + static_cast<std::ptrdiff_t>(parked_size);
  std::rotate(queue.begin(), queue.begin() + parked_.rotation, parked_end);
}

std::vector<Victim> S3FifoPolicy::select_victims(Vmm& vmm,
                                                 std::int64_t max_pages) {
  std::vector<Victim> out;
  if (max_pages <= 0) return out;
  std::int64_t scanned = ingest(vmm);

  // Every referenced page re-enters its queue with the bit cleared, so each
  // entry is examined at most twice per call; the scan bound only has to
  // cover the all-io-busy corner.
  std::int64_t scans =
      2 * (std::ssize(small_) + std::ssize(main_)) + 4 * max_pages;
  if (parked_.active && small_.size() == parked_.small_size &&
      main_.size() == parked_.main_size && parked_in_flight(vmm)) {
    // The sweep would requeue every entry it pops for the whole budget.
    assert(evicts_from_small() == parked_.small);
    const auto size = std::ssize(parked_.small ? small_ : main_);
    parked_.rotation = (parked_.rotation + scans) % size;
    vmm.note_pages_scanned(static_cast<std::uint64_t>(scanned));
    return out;
  }
  unpark();
  std::int64_t retries = 0;  // io-busy requeues in a row
  // The rotation's address spaces, sorted by pid (Vmm::pids() ascends).
  std::vector<std::pair<Pid, AddressSpace*>> spaces;
  spaces.reserve(vmm.pids().size());
  for (Pid pid : vmm.pids()) spaces.emplace_back(pid, &vmm.space(pid));
  while (std::ssize(out) < max_pages && scans-- > 0 &&
         (!small_.empty() || !main_.empty())) {
    const bool from_small = evicts_from_small();
    auto& queue = from_small ? small_ : main_;
    if (retries == std::ssize(queue)) {
      // Every entry of this queue was just requeued for I/O in flight and
      // nothing has changed since (requeues keep both queue sizes, so the
      // loop stays on this queue): the rest of the budget only rotates it.
      park((scans + 1) % retries);
      break;
    }
    const Key key = queue.front();
    queue.pop_front();
    const std::int64_t requeued = retries;
    retries = 0;
    ++scanned;
    // Every queue entry is tracked in the queue holding it: ingest enqueues
    // only untracked pages, and each pop either requeues the entry or
    // updates tracked_ to match. So the common case, a requeue, needs no
    // tracked_ lookup.
    assert(tracked_.at(key) == (from_small ? Where::kSmall : Where::kMain));

    const auto it = std::lower_bound(
        spaces.begin(), spaces.end(), key.first,
        [](const auto& entry, Pid pid) { return entry.first < pid; });
    AddressSpace* as =
        it != spaces.end() && it->first == key.first ? it->second : nullptr;
    if (as == nullptr || !as->alive() || !as->page_table().valid(key.second) ||
        !as->page_table().at(key.second).present()) {
      tracked_.erase(key);
      continue;
    }
    Pte pte = as->page_table().at(key.second);
    if (pte.referenced()) {
      pte.set_referenced(false);
      if (from_small) {
        tracked_[key] = Where::kMain;
        main_.push_back(key);
        ++stats_.promotions;
      } else {
        main_.push_back(key);
        ++stats_.reinserts;
      }
      continue;
    }
    if (pte.io_busy()) {
      queue.push_back(key);  // retry later; bounded by the scan budget
      retries = requeued + 1;
      continue;
    }
    out.push_back(Victim{key.first, key.second});
    tracked_.erase(key);
    if (from_small) {
      ghost_insert(key);
      ++stats_.small_evictions;
    } else {
      ++stats_.main_evictions;
    }
  }
  returned_.reserve(out.size());
  for (const Victim& v : out) returned_.push_back({v.pid, v.vpage});
  vmm.note_pages_scanned(static_cast<std::uint64_t>(scanned));
  return out;
}

}  // namespace apsim
