#pragma once
// SearchSpace: the fully-resolved search space representation of §4.4.
//
// Wraps the solver's SolutionSet with the operations optimization algorithms
// need: O(1) membership / row lookup through an open-addressing row table,
// true parameter bounds (values that actually occur in valid configurations
// — unavailable to dynamic approaches), and materialized config views.
//
// The row table is a flat array so a snapshot (searchspace/io.hpp) can
// serialize it verbatim and a reload can *borrow* it straight out of the
// snapshot buffer instead of rebuilding: the `std::span` view points either
// at the owned store (fresh construction) or into the loaded buffer kept
// alive by `snapshot_buffer_` (zero-copy reload).
//
// Configurations are addressed by a dense row id in [0, size()).
//
// Everything else the queries read is one *summary* of the packed columns:
// for every 64 consecutive rows and every parameter the smallest and largest
// value index (restriction and nearest-valid snapping skip blocks by them),
// the number of rows holding each value, and the values that occur at all
// (the true bounds).  It is derived in a single pass on first use and never
// persisted, so a snapshot and its load stay as they are.  The derivation
// range-checks every code against its domain, so a corrupt column loaded at
// SnapshotVerify::kShape throws SnapshotError there instead of indexing
// past a per-value table.

#include <atomic>
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
  /// Materialized values of a configuration.  Throws SnapshotError on a
  /// packed code outside its domain (see value()).
  csp::Config config(std::size_t row) const;
  /// Value of parameter `p` in configuration `row`.  A snapshot loaded at
  /// SnapshotVerify::kShape borrows the packed columns unchecked, so the
  /// code is range-checked here, where it becomes a domain position, and a
  /// code outside the domain throws SnapshotError.
  const csp::Value& value(std::size_t row, std::size_t p) const;
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
  /// enable balanced initial sampling.  The first call derives the summary
  /// (thread-safe); later calls are a plain read.
  const std::vector<std::uint32_t>& present_values(std::size_t p) const {
    return summary().present[p];
  }

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
  friend class SubSpace;
  friend std::size_t snap_to_valid(const SubSpace& view,
                                   const std::vector<std::uint32_t>& target);
  friend SearchSpace load_snapshot(const tuner::TuningProblem& spec,
                                   const tuner::Method& method,
                                   const std::string& path,
                                   SnapshotVerify verify);

  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
  /// Rows per block of the summary's code ranges.
  static constexpr std::size_t kBlockRows = solver::PackedColumn::kBlockRows;

  /// Smallest and largest value index of one parameter within one block.
  struct CodeRange {
    std::uint32_t lo, hi;
  };
  /// Derived data read by the queries (see the file comment).
  struct Summary {
    /// `[block * num_params() + p]`, for block rows [block * kBlockRows,
    /// (block + 1) * kBlockRows).
    std::vector<CodeRange> ranges;
    /// `[p][vi]`: the number of rows whose parameter p has value index vi.
    std::vector<std::vector<std::uint32_t>> counts;
    /// `[p]`: the value indices with a nonzero count, ascending.
    std::vector<std::vector<std::uint32_t>> present;
  };
  /// The summary, derived on first call (thread-safe); throws SnapshotError
  /// on a code outside its domain.
  const Summary& summary() const {
    if (!summary_->ready.load()) derive_summary();
    return summary_->value;
  }
  void derive_summary() const;

  void build_row_table();
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

  // Keeps a loaded snapshot buffer alive while views borrow from it.
  std::shared_ptr<const void> snapshot_buffer_;

  // The lazily-derived summary; boxed so the space stays movable.  `ready`
  // turns true once `value` is complete, so a derived summary is read
  // without entering call_once.
  struct SummaryBox {
    std::once_flag once;
    std::atomic<bool> ready{false};
    Summary value;
  };
  std::unique_ptr<SummaryBox> summary_ = std::make_unique<SummaryBox>();
};

}  // namespace tunespace::searchspace
