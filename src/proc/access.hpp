#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mem/page.hpp"
#include "mem/touch_plan.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

/// \file access.hpp
/// Workload description consumed by the CPU executor. A Program yields a
/// stream of operations: page-touch chunks (the page reference string),
/// pure-compute intervals, and communication ops (handled by the mini-MPI
/// layer). Chunks are deterministic and position-addressable so the executor
/// can suspend mid-chunk at a page fault and resume exactly where it left
/// off.

namespace apsim {

/// A batch of page touches over one region with a fixed pattern.
struct AccessChunk {
  enum class Pattern : std::uint8_t {
    kSequential,  ///< region_start + i
    kStrided,     ///< region_start + (i * stride) mod region_pages
    kRandom,      ///< uniform over the region, hashed from (seed, i)
    kZipf,        ///< zipf-skewed over the region, hashed from (seed, i)
  };

  Pattern pattern = Pattern::kSequential;
  VPage region_start = 0;
  std::int64_t region_pages = 0;
  std::int64_t touches = 0;           ///< total page touches in the chunk
  std::int64_t stride = 1;            ///< for kStrided
  bool write = false;
  SimDuration compute_per_touch = 0;  ///< CPU time modelled per touch
  std::uint64_t seed = 0;             ///< randomness root for kRandom/kZipf
  double theta = 0.8;                 ///< zipf skew

  /// When true (default), IterativeProgram derives a fresh seed for this
  /// chunk every iteration (the touched subset churns, e.g. sort keys);
  /// when false the same skewed subset stays hot across iterations (e.g. a
  /// sparse matrix accessed through a stable structure).
  bool reseed_per_iteration = true;

  /// Deterministic page for the i-th touch (0 <= i < touches).
  [[nodiscard]] VPage page_at(std::int64_t i) const;

  /// Prepared form for the batched touch engine (Vmm::touch_run): same
  /// addressing; a zipf chunk's plan points at the process-wide
  /// zipf_table(region_pages, theta), whose guide table maps most draws to
  /// their rank without an exp/pow.
  [[nodiscard]] TouchPlan prepare() const;

  /// Cached zipf harmonic constant for page_at (valid while the key fields
  /// match); mutable so the const hot path can fill it lazily. Not part of
  /// the chunk's identity.
  mutable double zipf_hn_cache = 0.0;
  mutable std::int64_t zipf_hn_n = -1;
  mutable double zipf_hn_theta = 0.0;
};

/// Communication operation (parallel programs only).
struct CommOp {
  enum class Type : std::uint8_t {
    kBarrier,    ///< all ranks synchronize
    kExchange,   ///< neighbour halo exchange of `bytes` per rank
    kAllreduce,  ///< reduction of `bytes` across all ranks
  };
  Type type = Type::kBarrier;
  std::int64_t bytes = 0;
};

/// One operation from a Program.
struct Op {
  enum class Kind : std::uint8_t { kAccess, kCompute, kComm, kDone };
  Kind kind = Kind::kDone;
  AccessChunk access;       ///< valid when kind == kAccess
  SimDuration compute = 0;  ///< valid when kind == kCompute
  CommOp comm;              ///< valid when kind == kComm

  [[nodiscard]] static Op access_op(AccessChunk chunk) {
    Op op;
    op.kind = Kind::kAccess;
    op.access = chunk;
    return op;
  }
  [[nodiscard]] static Op compute_op(SimDuration d) {
    Op op;
    op.kind = Kind::kCompute;
    op.compute = d;
    return op;
  }
  [[nodiscard]] static Op comm_op(CommOp comm) {
    Op op;
    op.kind = Kind::kComm;
    op.comm = comm;
    return op;
  }
  [[nodiscard]] static Op done_op() { return Op{}; }
};

/// Serializable position within a Program's op stream, captured by the
/// checkpoint subsystem. The fields mirror IterativeProgram's cursor state;
/// other Program shapes may interpret them as they see fit as long as
/// restore_cursor(save_cursor()) replays the identical op sequence.
struct ProgramCursor {
  bool in_prologue = false;
  std::uint64_t pos = 0;
  std::int64_t iter = 0;
  bool done = false;

  friend bool operator==(const ProgramCursor&, const ProgramCursor&) = default;
};

/// Stream of operations describing one process's execution.
class Program {
 public:
  virtual ~Program() = default;

  /// Next operation; called once the previous one fully completed. Must
  /// return kDone from then on once finished.
  [[nodiscard]] virtual Op next() = 0;

  /// Completion fraction in [0, 1]; informational only.
  [[nodiscard]] virtual double progress() const = 0;

  /// Checkpoint support. A program that can be rewound returns its cursor;
  /// the default (nullopt) marks the program non-checkpointable, and the
  /// recovery subsystem then leaves its job on the fatal path. A restored
  /// cursor must make the following next() calls replay exactly the
  /// sequence that followed the save — determinism of recovered runs
  /// depends on it.
  [[nodiscard]] virtual std::optional<ProgramCursor> save_cursor() const {
    return std::nullopt;
  }
  virtual bool restore_cursor(const ProgramCursor&) { return false; }
};

/// Program that runs a fixed prologue once, then repeats a cycle of ops for
/// a given number of iterations. Sufficient for the NPB-like kernels, whose
/// iterations are structurally identical. Ops containing randomised chunks
/// get a fresh seed each iteration (derived from the base seed) so the
/// reference string varies across iterations without storing state.
class IterativeProgram final : public Program {
 public:
  IterativeProgram(std::vector<Op> prologue, std::vector<Op> cycle,
                   std::int64_t iterations, std::uint64_t seed = 0);

  [[nodiscard]] Op next() override;
  [[nodiscard]] double progress() const override;

  [[nodiscard]] std::optional<ProgramCursor> save_cursor() const override;
  bool restore_cursor(const ProgramCursor& cursor) override;

  [[nodiscard]] std::int64_t iterations_total() const { return iterations_; }
  [[nodiscard]] std::int64_t iterations_done() const { return iter_; }

 private:
  std::vector<Op> prologue_;
  std::vector<Op> cycle_;
  std::int64_t iterations_;
  std::uint64_t seed_;
  std::size_t pos_ = 0;      // index within current list
  std::int64_t iter_ = 0;    // completed cycles
  bool in_prologue_;
  bool done_ = false;
};

}  // namespace apsim
