#pragma once
// SearchSpace: the fully-resolved search space representation of §4.4.
//
// Wraps the solver's SolutionSet with the operations optimization algorithms
// need: O(1) membership / row lookup through an open-addressing row table,
// true parameter bounds (values that actually occur in valid configurations
// — unavailable to dynamic approaches), and materialized config views.
//
// Configurations are addressed by a dense row id in [0, size()).
//
// A space is its domains and its packed columns; everything the queries
// read besides them is derived from the columns on first use, once and
// thread-safely, and is never persisted (a snapshot, searchspace/io.hpp,
// holds the domains and columns alone).  There are two such derivations,
// kept apart so that a lookup never pays for the summary and a restriction
// never pays for the row table.
//
// The row table is built by the first find().  It hashes each row once, by
// its *key*: the row's packed codes laid end to end in 64-bit words, in
// parameter order, each at its column width; a field that does not fit in
// the rest of a word starts the next one.  The hash is mix64 folded over
// the key words from a fixed seed, then murmur3's fmix64.  Rows are
// inserted in ascending order.  The table is part of no format, so its
// layout and hash may change freely as long as find()'s results do not.
// find() folds a query's key word by word as it reads the values, and a
// value too wide for its field finds nothing.
//
// The *summary* is built by the first restriction, snap or true-bounds
// query: for every 64 consecutive rows and every parameter the smallest and
// largest value index (restriction and nearest-valid snapping skip blocks
// by them), the number of rows holding each value, and the values that
// occur at all (the true bounds).  The derivation range-checks every code
// against its domain, so a corrupt column loaded at SnapshotVerify::kShape
// throws SnapshotError there instead of indexing past a per-value table.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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
  /// Row id of an index-row, if it is a valid configuration.  The first
  /// call builds the row table (thread-safe); later calls only probe it.
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

  /// A value derived on first use, once and thread-safely.  Boxed so the
  /// space stays movable; `ready` turns true once the value is complete, so
  /// a derived value is read without taking the lock.  A derivation that
  /// throws leaves the box empty, and the next call derives again.  A mutex
  /// guards the derivation rather than std::call_once: under
  /// ThreadSanitizer, a call_once whose callable threw blocks every later
  /// call.
  template <typename T>
  class FirstUse {
   public:
    template <typename Derive>
    const T& get(const Derive& derive) const {
      Box& box = *box_;
      if (!box.ready.load(std::memory_order_acquire)) {
        const std::lock_guard<std::mutex> lock(box.mutex);
        if (!box.ready.load(std::memory_order_relaxed)) {
          box.value = derive();
          box.ready.store(true, std::memory_order_release);
        }
      }
      return box.value;
    }

   private:
    struct Box {
      std::mutex mutex;
      std::atomic<bool> ready{false};
      T value;
    };
    std::unique_ptr<Box> box_ = std::make_unique<Box>();
  };

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
  /// The summary, derived on first call; throws SnapshotError on a code
  /// outside its domain.
  const Summary& summary() const {
    return summary_.get([this] { return derive_summary(); });
  }
  Summary derive_summary() const;

  /// Where parameter p's code sits in a row's key: `bits` (its column
  /// width) bits at bit `shift` of key word `word`.
  struct KeyField {
    std::uint32_t word, shift, bits;
  };
  /// Row-lookup table (see the file comment): open addressing, power-of-two
  /// size, linear probing, kEmptySlot marks an empty slot.  Load factor is
  /// kept <= 0.5, so every probe ends at an empty slot.
  struct RowTable {
    static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
    std::vector<std::uint32_t> slots;
    /// The row key's layout, `[p]` per parameter.
    std::vector<KeyField> fields;
  };
  /// The row table, built on first call.
  const RowTable& row_table() const {
    return row_table_.get([this] { return build_row_table(); });
  }
  RowTable build_row_table() const;
  bool row_equals(std::uint32_t row, const std::uint32_t* index_row) const;

  csp::Problem problem_;
  solver::SolutionSet solutions_;
  solver::SolveStats stats_;
  double construction_seconds_ = 0.0;
  std::uint64_t fingerprint_ = 0;

  // Keeps a loaded snapshot buffer alive while views borrow from it.
  std::shared_ptr<const void> snapshot_buffer_;

  FirstUse<Summary> summary_;
  FirstUse<RowTable> row_table_;
};

}  // namespace tunespace::searchspace
