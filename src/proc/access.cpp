#include "proc/access.hpp"

#include <cassert>
#include <cmath>

namespace apsim {

// The proc-layer pattern enum and the mem-layer TouchPattern must stay in
// lockstep: prepare() converts with a static_cast.
static_assert(static_cast<int>(AccessChunk::Pattern::kSequential) ==
              static_cast<int>(TouchPattern::kSequential));
static_assert(static_cast<int>(AccessChunk::Pattern::kStrided) ==
              static_cast<int>(TouchPattern::kStrided));
static_assert(static_cast<int>(AccessChunk::Pattern::kRandom) ==
              static_cast<int>(TouchPattern::kRandom));
static_assert(static_cast<int>(AccessChunk::Pattern::kZipf) ==
              static_cast<int>(TouchPattern::kZipf));

VPage AccessChunk::page_at(std::int64_t i) const {
  assert(i >= 0 && i < touches);
  assert(region_pages > 0);
  switch (pattern) {
    case Pattern::kSequential:
      return region_start + (i % region_pages);
    case Pattern::kStrided:
      return region_start + (i * stride) % region_pages;
    case Pattern::kRandom:
      return region_start +
             static_cast<VPage>(touch_hash(seed, i) %
                                static_cast<std::uint64_t>(region_pages));
    case Pattern::kZipf:
      if (zipf_hn_n != region_pages || zipf_hn_theta != theta) {
        zipf_hn_cache = zipf_harmonic(region_pages, theta);
        zipf_hn_n = region_pages;
        zipf_hn_theta = theta;
      }
      return region_start + zipf_rank(touch_hash(seed, i), region_pages, theta,
                                      zipf_hn_cache);
  }
  return region_start;
}

TouchPlan AccessChunk::prepare() const {
  TouchPlan plan;
  plan.pattern = static_cast<TouchPattern>(pattern);
  plan.region_start = region_start;
  plan.region_pages = region_pages;
  plan.touches = touches;
  plan.stride = stride;
  plan.write = write;
  plan.seed = seed;
  plan.theta = theta;
  if (pattern == Pattern::kZipf) {
    plan.zipf = &zipf_table(region_pages, theta);
  }
  return plan;
}

IterativeProgram::IterativeProgram(std::vector<Op> prologue,
                                   std::vector<Op> cycle,
                                   std::int64_t iterations, std::uint64_t seed)
    : prologue_(std::move(prologue)), cycle_(std::move(cycle)),
      iterations_(iterations), seed_(seed),
      in_prologue_(!prologue_.empty()) {
  assert(iterations >= 0);
}

Op IterativeProgram::next() {
  if (done_) return Op::done_op();

  if (in_prologue_) {
    if (pos_ < prologue_.size()) return prologue_[pos_++];
    in_prologue_ = false;
    pos_ = 0;
  }

  while (iter_ < iterations_) {
    if (pos_ < cycle_.size()) {
      Op op = cycle_[pos_++];
      if (op.kind == Op::Kind::kAccess && op.access.reseed_per_iteration &&
          (op.access.pattern == AccessChunk::Pattern::kRandom ||
           op.access.pattern == AccessChunk::Pattern::kZipf)) {
        // Vary randomised chunks per iteration, deterministically.
        std::uint64_t s = seed_ ^ (static_cast<std::uint64_t>(iter_) << 32) ^
                          static_cast<std::uint64_t>(pos_);
        op.access.seed = splitmix64(s);
      }
      return op;
    }
    pos_ = 0;
    ++iter_;
  }
  done_ = true;
  return Op::done_op();
}

std::optional<ProgramCursor> IterativeProgram::save_cursor() const {
  ProgramCursor cursor;
  cursor.in_prologue = in_prologue_;
  cursor.pos = pos_;
  cursor.iter = iter_;
  cursor.done = done_;
  return cursor;
}

bool IterativeProgram::restore_cursor(const ProgramCursor& cursor) {
  if (cursor.iter < 0 || cursor.iter > iterations_) return false;
  const std::size_t limit =
      cursor.in_prologue ? prologue_.size() : cycle_.size();
  if (cursor.pos > limit) return false;
  in_prologue_ = cursor.in_prologue;
  pos_ = static_cast<std::size_t>(cursor.pos);
  iter_ = cursor.iter;
  done_ = cursor.done;
  return true;
}

double IterativeProgram::progress() const {
  if (done_) return 1.0;
  if (iterations_ == 0) return in_prologue_ ? 0.0 : 1.0;
  return static_cast<double>(iter_) / static_cast<double>(iterations_);
}

}  // namespace apsim
