#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/page.hpp"

/// \file frame_table.hpp
/// Physical-memory accounting for one node: frame records plus a free list.
/// Frames can be wired down in bulk to emulate the paper's use of mlock() to
/// shrink usable memory and force overcommit with the NPB data sizes at hand.
///
/// Frames are handed out lowest-numbered first, returned frames before
/// never-used ones. Only frames that have been handed out occupy memory:
/// the never-used ones are a counter, and frames wired down before any was
/// handed out (how a node shrinks its memory) keep no record at all, so a
/// node with 1 GB of frames and 230 MB usable needs at most ~1.4 MB here.

namespace apsim {

class FrameTable {
 public:
  struct Frame {
    Pid owner = kNoPid;
    VPage vpage = -1;
  };

  explicit FrameTable(std::int64_t num_frames);

  [[nodiscard]] std::int64_t total_frames() const { return total_; }
  [[nodiscard]] std::int64_t free_frames() const {
    return static_cast<std::int64_t>(free_.size()) + (total_ - fresh_);
  }
  [[nodiscard]] std::int64_t wired_frames() const { return wired_; }
  /// Frames a process could ever hold (total minus wired).
  [[nodiscard]] std::int64_t usable_frames() const {
    return total_frames() - wired_;
  }
  [[nodiscard]] std::int64_t used_frames() const {
    return usable_frames() - free_frames();
  }

  /// Permanently remove \p n frames from circulation (mlock emulation).
  /// Returns the number actually wired (limited by the current free pool).
  std::int64_t wire_down(std::int64_t n);

  /// Allocate a free frame for (\p owner, \p vpage); nullopt when exhausted.
  [[nodiscard]] std::optional<FrameNum> alloc(Pid owner, VPage vpage);

  /// Return a frame to the free pool.
  void free(FrameNum frame);

  [[nodiscard]] const Frame& frame(FrameNum f) const;

 private:
  /// Next free frame (one must exist): the last returned one, else the
  /// lowest never-used one.
  FrameNum take();
  [[nodiscard]] Frame& record(FrameNum f) {
    return frames_[static_cast<std::size_t>(f - base_)];
  }

  std::int64_t total_ = 0;
  FrameNum base_ = 0;   ///< frames below were wired before any was handed out
  FrameNum fresh_ = 0;  ///< frames [fresh_, total_) were never handed out
  std::vector<Frame> frames_;   ///< records of frames [base_, fresh_)
  std::vector<FrameNum> free_;  ///< returned frames, next to hand out last
  std::int64_t wired_ = 0;
};

}  // namespace apsim
