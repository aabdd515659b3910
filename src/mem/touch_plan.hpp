#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "mem/page.hpp"
#include "sim/rng.hpp"

/// \file touch_plan.hpp
/// Prepared form of one page-touch chunk, consumed by the VMM's batched
/// touch engine (Vmm::touch_run). A TouchPlan carries the chunk's addressing
/// parameters plus what is loop-invariant across its touches: for a zipf
/// chunk, a guide table (ZipfTable) that maps most draws to their rank with
/// one load. The engine draws a block of ranks at a time (ZipfTable::ranks):
/// one pass loads every draw's guide entry, a second calls `exp`/`pow` only
/// for the few draws that land near a rank boundary, so the touch loop never
/// branches into them. The proc layer builds plans from AccessChunks
/// (AccessChunk::prepare()); keeping the type here lets src/mem consume it
/// without depending on the process layer.
///
/// Determinism contract: for the same parameters, TouchPlan::page_at and
/// AccessChunk::page_at return bit-identical pages for every index — both
/// are implemented on the shared helpers below, and the golden-value test in
/// tests/test_touch_engine.cpp pins the outputs for all four patterns.
/// ZipfTable::rank and ZipfTable::ranks equal zipf_rank for every draw
/// (tests/test_zipf_table.cpp checks them around every rank boundary).

namespace apsim {

/// Chunk addressing pattern (mirrors AccessChunk::Pattern; the proc layer
/// static_asserts the correspondence).
enum class TouchPattern : std::uint8_t {
  kSequential,  ///< region_start + i
  kStrided,     ///< region_start + (i * stride) mod region_pages
  kRandom,      ///< uniform over the region, hashed from (seed, i)
  kZipf,        ///< zipf-skewed over the region, hashed from (seed, i)
};

/// Stateless hash of (seed, i) with splitmix64.
[[nodiscard]] constexpr std::uint64_t touch_hash(std::uint64_t seed,
                                                 std::int64_t i) {
  std::uint64_t s =
      seed ^ (0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(i));
  return splitmix64(s);
}

/// The zipf normalization constant H(n, theta) used by the inverse-CDF
/// approximation below. One log/pow per chunk, not per touch.
[[nodiscard]] inline double zipf_harmonic(std::int64_t n, double theta) {
  if (theta == 1.0) {
    return std::log(static_cast<double>(n) + 1.0);
  }
  return (std::pow(static_cast<double>(n) + 1.0, 1.0 - theta) - 1.0) /
         (1.0 - theta);
}

/// The inverse CDF that zipf_rank truncates, at the uniform
/// u = (h >> 11) * 2^-53, given `hn` = zipf_harmonic(n, theta).
[[nodiscard]] inline double zipf_x(std::uint64_t h, double theta, double hn) {
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (theta == 1.0) {
    return std::exp(u * hn) - 1.0;
  }
  return std::pow(u * hn * (1.0 - theta) + 1.0, 1.0 / (1.0 - theta)) - 1.0;
}

/// Map a uniform u64 to a zipf-distributed rank in [0, n), given the
/// precomputed harmonic constant `hn` = zipf_harmonic(n, theta). The
/// definition of a zipf touch, and the oracle ZipfTable is checked against.
[[nodiscard]] inline std::int64_t zipf_rank(std::uint64_t h, std::int64_t n,
                                            double theta, double hn) {
  auto r = static_cast<std::int64_t>(zipf_x(h, theta, hn));
  return r >= n ? n - 1 : (r < 0 ? 0 : r);
}

/// zipf_rank for one (n, theta), through a guide table over the top `bits`
/// bits of the draw: rank(h) == zipf_rank(h, n, theta, hn()) for every h.
///
/// Bucket b holds the draws whose top bits equal b. The table evaluates x =
/// zipf_x at every bucket start h_b = b * 2^(64 - bits), and at 2^64 - 1 for
/// the end of the last bucket, so bucket b lies between x_b and x_{b+1}. It
/// is pure, and stores its rank r = clamp(trunc(x_b)), when
///   x_b - r         >= m * (x_b + 1)      (skipped when r == 0), and
///   r + 1 - x_{b+1} >= m * (x_{b+1} + 1)  (skipped when r == n - 1),
/// with m = 2^-48; any other bucket is mixed, and rank() calls zipf_rank
/// for its draws.
///
/// Why a pure bucket is exact:
/// - u = (h >> 11) * 2^-53 is exact, and u * hn (and, for theta != 1, the
///   affine step after it) is a chain of correctly rounded operations by
///   constants, so the argument handed to exp or pow is monotone in h.
/// - exp, and pow(., 1 / (1 - theta)) of that argument, make the exact x
///   non-decreasing in h (for theta > 1 both the affine step and the
///   exponent are negative).
/// - glibc's exp and pow are accurate to under 1 ulp, and subtracting 1
///   adds at most half an ulp, so every computed x lies within two ulps of
///   x + 1 of the exact value at its argument. A draw inside bucket b
///   therefore computes an x within a few ulps of [x_b, x_{b+1}], while the
///   2^-48 margin is at least 16 ulps of x + 1: the draw's x lies in
///   [r, r + 1) and truncates to r.
/// - Truncation and the clamp to [0, n) are monotone, so a bucket whose
///   x_b clears n - 1 needs only the first test, and one whose x_{b+1}
///   stays below 1 only the second (x > -1 always, as x + 1 = exp or pow).
class ZipfTable {
 public:
  ZipfTable(std::int64_t n, double theta);

  /// Draws per block of ranks(). At least CG's 100-touch slice budget, so
  /// one block covers a slice; the touch engine sizes its buffer by it.
  static constexpr std::size_t kBlock = 256;

  [[nodiscard]] std::int64_t rank(std::uint64_t h) const {
    const std::uint32_t r = guide_[h >> shift_];
    return r != kMixed ? r : zipf_rank(h, n_, theta_, hn_);
  }

  /// out[k] = rank(touch_hash(seed, first + k)) for every k < out.size(),
  /// kBlock draws at a time in two passes: the first stores each draw's
  /// guide entry and collects the draws that hit a mixed bucket, the second
  /// calls zipf_rank for those draws only. Requires first >= 0 and
  /// first + out.size() - 1 to fit an int64 (a chunk's touch indices do).
  /// Returns how many draws took the second pass, one zipf_rank call each.
  std::int64_t ranks(std::uint64_t seed, std::int64_t first,
                     std::span<std::uint32_t> out) const;

  /// Whether draw \p h falls in a mixed bucket (rank() calls zipf_rank).
  [[nodiscard]] bool mixed(std::uint64_t h) const {
    return guide_[h >> shift_] == kMixed;
  }

  [[nodiscard]] std::int64_t n() const { return n_; }
  [[nodiscard]] double theta() const { return theta_; }
  [[nodiscard]] double hn() const { return hn_; }
  /// log2 of the bucket count: ceil(log2 n) + 3, clamped to [10, 20].
  [[nodiscard]] int bits() const { return 64 - shift_; }
  /// Buckets whose draws fall back to zipf_rank.
  [[nodiscard]] std::int64_t mixed_buckets() const { return mixed_; }

 private:
  static constexpr std::uint32_t kMixed = 0xFFFFFFFFu;

  std::int64_t n_;
  double theta_;
  double hn_;
  int shift_;
  std::int64_t mixed_ = 0;
  std::vector<std::uint32_t> guide_;
};

/// The table for (n, theta), built on first use and shared by every caller
/// in the process. Tables are immutable and live until exit; one mutex
/// guards the memo, taken once per prepared plan, never per touch. Safe to
/// call from concurrent runs: a table is a pure function of its key.
[[nodiscard]] const ZipfTable& zipf_table(std::int64_t n, double theta);

/// One access chunk, prepared for the batched touch engine.
struct TouchPlan {
  TouchPattern pattern = TouchPattern::kSequential;
  VPage region_start = 0;
  std::int64_t region_pages = 0;
  std::int64_t touches = 0;  ///< total touches in the chunk (debug bounds)
  std::int64_t stride = 1;   ///< for kStrided
  bool write = false;
  std::uint64_t seed = 0;
  double theta = 0.8;
  /// zipf_table(region_pages, theta); required for kZipf.
  const ZipfTable* zipf = nullptr;

  /// Deterministic page for the i-th touch; bit-identical to
  /// AccessChunk::page_at for the chunk this plan was prepared from. Draws
  /// zipf ranks through zipf_rank itself, so the touch-engine twins compare
  /// Vmm::touch_run's table lookups with the definition.
  [[nodiscard]] VPage page_at(std::int64_t i) const {
    assert(i >= 0 && i < touches);
    assert(region_pages > 0);
    switch (pattern) {
      case TouchPattern::kSequential:
        return region_start + (i % region_pages);
      case TouchPattern::kStrided:
        return region_start + (i * stride) % region_pages;
      case TouchPattern::kRandom:
        return region_start +
               static_cast<VPage>(touch_hash(seed, i) %
                                  static_cast<std::uint64_t>(region_pages));
      case TouchPattern::kZipf:
        assert(zipf != nullptr && zipf->n() == region_pages &&
               zipf->theta() == theta);
        return region_start +
               zipf_rank(touch_hash(seed, i), region_pages, theta, zipf->hn());
    }
    return region_start;
  }
};

}  // namespace apsim
