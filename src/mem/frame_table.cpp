#include "mem/frame_table.hpp"

#include <algorithm>
#include <cassert>

namespace apsim {

FrameTable::FrameTable(std::int64_t num_frames) : total_(num_frames) {
  assert(num_frames >= 0);
}

FrameNum FrameTable::take() {
  assert(free_frames() > 0);
  if (!free_.empty()) {
    const FrameNum f = free_.back();
    free_.pop_back();
    return f;
  }
  frames_.emplace_back();
  return fresh_++;
}

const FrameTable::Frame& FrameTable::frame(FrameNum f) const {
  static const Frame kWired{kNoPid, -2};
  static const Frame kNeverUsed{};
  if (f < base_) return kWired;
  if (f >= fresh_) return kNeverUsed;
  return frames_[static_cast<std::size_t>(f - base_)];
}

std::int64_t FrameTable::wire_down(std::int64_t n) {
  assert(n >= 0);
  const std::int64_t taken = std::min<std::int64_t>(n, free_frames());
  if (fresh_ == base_) {
    // Nothing handed out yet: the frames join the record-less prefix.
    fresh_ += taken;
    base_ += taken;
  } else {
    for (std::int64_t i = 0; i < taken; ++i) {
      record(take()) = Frame{kNoPid, -2};  // wired marker
    }
  }
  wired_ += taken;
  return taken;
}

std::optional<FrameNum> FrameTable::alloc(Pid owner, VPage vpage) {
  if (free_frames() == 0) return std::nullopt;
  const FrameNum f = take();
  record(f) = Frame{owner, vpage};
  return f;
}

void FrameTable::free(FrameNum frame) {
  assert(frame >= base_ && frame < fresh_);
  auto& fr = record(frame);
  assert(fr.owner != kNoPid && "freeing an unowned frame");
  fr.owner = kNoPid;
  fr.vpage = -1;
  free_.push_back(frame);
}

}  // namespace apsim
