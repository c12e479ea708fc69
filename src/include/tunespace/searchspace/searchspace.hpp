#pragma once
// SearchSpace: the fully-resolved search space representation of §4.4.
//
// Wraps the solver's SolutionSet with the operations optimization algorithms
// need: O(1) membership / row lookup through an open-addressing row table,
// true parameter bounds (values that actually occur in valid configurations
// — unavailable to dynamic approaches), per-parameter inverted indexes in
// CSR form (posting lists) for neighbour and stratified-sampling queries,
// and materialized config views.
//
// Both indexes are flat arrays so a snapshot (searchspace/io.hpp) can
// serialize them verbatim and a reload can *borrow* them straight out of
// the snapshot buffer instead of rebuilding: the `std::span` views point
// either at the owned `*_store_` vectors (fresh construction) or into the
// loaded buffer kept alive by `snapshot_buffer_` (zero-copy reload).
//
// Configurations are addressed by a dense row id in [0, size()).
//
// Nearest-valid snapping (sampling.hpp) also reads per-block value ranges:
// for every 64 consecutive rows and every parameter, the smallest and
// largest value index.  They are derived data: built from the packed
// columns on first use, never persisted (a snapshot and its load stay as
// they are), and their derivation range-checks every code against its
// domain, so a corrupt column loaded at SnapshotVerify::kShape throws
// SnapshotError there instead of indexing past a per-value table.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tunespace/csp/problem.hpp"
#include "tunespace/solver/solver.hpp"
#include "tunespace/tuner/pipeline.hpp"
#include "tunespace/tuner/tuning_problem.hpp"

namespace tunespace::searchspace {

enum class SnapshotVerify;  // defined in searchspace/io.hpp
class SubSpace;             // defined in searchspace/view.hpp

/// Fully-resolved, indexed search space.
class SearchSpace {
 public:
  /// Construct from a spec using the optimized method (the normal user path:
  /// "fully resolve the space before tuning, with minimal impact").
  explicit SearchSpace(const tuner::TuningProblem& spec);

  /// Construct from a spec with an explicit method (benchmarks use this).
  SearchSpace(const tuner::TuningProblem& spec, const tuner::Method& method);

  /// Construct from a spec with the parallel engine (full pipeline +
  /// ParallelBacktracking).  The resolved space is byte-identical to the
  /// sequential construction.
  SearchSpace(const tuner::TuningProblem& spec,
              const solver::SolverOptions& parallel);

  /// Construct-once, reload-forever: look for a snapshot of `spec` (keyed by
  /// tuner::spec_fingerprint) under `cache_dir`; on a hit, reload it through
  /// the zero-copy path (orders of magnitude faster than solving); on a
  /// miss or a stale/corrupt file, build fresh and populate the cache.  The
  /// returned space is byte-identical either way — same enumeration order,
  /// same CSV bytes, same query results.  Specs with native lambda
  /// constraints cannot be fingerprinted and always build fresh.
  static SearchSpace load_or_build(const tuner::TuningProblem& spec,
                                   const std::string& cache_dir);
  static SearchSpace load_or_build(const tuner::TuningProblem& spec,
                                   const tuner::Method& method,
                                   const std::string& cache_dir);

  // --- Shape ----------------------------------------------------------------
  std::size_t size() const { return solutions_.size(); }
  bool empty() const { return solutions_.empty(); }
  std::size_t num_params() const { return problem_.num_variables(); }
  const std::string& param_name(std::size_t p) const { return problem_.name(p); }
  const csp::Problem& problem() const { return problem_; }
  std::uint64_t cartesian_size() const { return problem_.cartesian_size(); }
  /// Fraction of the Cartesian product removed by constraints.
  double sparsity() const;

  // --- Configuration access --------------------------------------------------
  /// Value-index row of a configuration.
  std::vector<std::uint32_t> indices(std::size_t row) const {
    return solutions_.index_row(row);
  }
  /// Materialized values of a configuration.
  csp::Config config(std::size_t row) const {
    return solutions_.config(row, problem_);
  }
  /// Value of parameter `p` in configuration `row`.
  const csp::Value& value(std::size_t row, std::size_t p) const {
    return problem_.domain(p)[solutions_.value_index(row, p)];
  }
  std::uint32_t value_index(std::size_t row, std::size_t p) const {
    return solutions_.value_index(row, p);
  }
  const solver::SolutionSet& solutions() const { return solutions_; }

  // --- Lookup ---------------------------------------------------------------
  /// Row id of an index-row, if it is a valid configuration.
  std::optional<std::size_t> find(const std::vector<std::uint32_t>& index_row) const;
  /// Row id of a value config (values must exist in the domains).
  std::optional<std::size_t> find_config(const csp::Config& config) const;
  bool contains(const std::vector<std::uint32_t>& index_row) const {
    return find(index_row).has_value();
  }

  // --- True bounds (§4.4) -----------------------------------------------------
  /// Domain value indices of parameter `p` that occur in at least one valid
  /// configuration, ascending.  These are the "true parameter bounds" that
  /// enable balanced initial sampling.
  const std::vector<std::uint32_t>& present_values(std::size_t p) const {
    return present_values_[p];
  }

  /// Rows whose parameter `p` has domain value index `vi` (posting list,
  /// rows ascending); empty if the value never occurs.
  std::span<const std::uint32_t> rows_with(std::size_t p, std::uint32_t vi) const;

  // --- Stats ------------------------------------------------------------------
  /// Wall-clock seconds spent constructing — pipeline + solve on a fresh
  /// build, file load on a snapshot reload.
  double construction_seconds() const { return construction_seconds_; }
  const solver::SolveStats& solve_stats() const { return stats_; }
  /// Fingerprint of the (spec, method) pair this space was resolved from
  /// (tuner::spec_fingerprint); snapshots are keyed by it.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  SearchSpace() = default;  // the snapshot loader fills the members directly

  friend void save_snapshot(const SearchSpace& space, const std::string& path);
  friend std::size_t snap_to_valid(const SubSpace& view,
                                   const std::vector<std::uint32_t>& target);
  friend SearchSpace load_snapshot(const tuner::TuningProblem& spec,
                                   const tuner::Method& method,
                                   const std::string& path,
                                   SnapshotVerify verify);

  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
  /// Rows per block of the snap ranges.
  static constexpr std::size_t kBlockRows = 64;

  /// Smallest and largest value index of one parameter within one block.
  struct CodeRange {
    std::uint32_t lo, hi;
  };
  /// The per-block value ranges, `[block * num_params() + p]` for block
  /// rows [block * kBlockRows, (block + 1) * kBlockRows).  Derived on first
  /// call (thread-safe); throws SnapshotError on a code outside its domain.
  const std::vector<CodeRange>& block_ranges() const;

  void build_indexes();
  void derive_present_values();
  std::uint64_t row_hash(const std::uint32_t* row) const;
  bool row_equals(std::uint32_t row, const std::uint32_t* index_row) const;

  csp::Problem problem_;
  solver::SolutionSet solutions_;
  solver::SolveStats stats_;
  double construction_seconds_ = 0.0;
  std::uint64_t fingerprint_ = 0;

  // Row-lookup table: open addressing, power-of-two size, linear probing,
  // kEmptySlot marks an empty bucket.  Load factor is kept <= 0.5.
  std::vector<std::uint32_t> hash_table_store_;
  std::span<const std::uint32_t> hash_table_;

  // Inverted indexes in CSR form.  For parameter p with offset-array base
  // posting_base_[p], the posting list of value index vi is
  //   posting_rows_[posting_offsets_[base + vi] ...
  //                 posting_offsets_[base + vi + 1])
  // with offsets global into posting_rows_ (parameter p's region is
  // [p * size(), (p + 1) * size())).
  std::vector<std::uint64_t> posting_offsets_store_;
  std::span<const std::uint64_t> posting_offsets_;
  std::vector<std::uint32_t> posting_rows_store_;
  std::span<const std::uint32_t> posting_rows_;
  std::vector<std::size_t> posting_base_;  // per-parameter offset-array base

  // Derived from the posting offsets (cheap), always owned.
  std::vector<std::vector<std::uint32_t>> present_values_;

  // Keeps a loaded snapshot buffer alive while views borrow from it.
  std::shared_ptr<const void> snapshot_buffer_;

  // Lazily-derived block ranges; boxed so the space stays movable.
  struct BlockRanges {
    std::once_flag once;
    std::vector<CodeRange> ranges;
  };
  std::unique_ptr<BlockRanges> block_ranges_ = std::make_unique<BlockRanges>();
};

}  // namespace tunespace::searchspace
