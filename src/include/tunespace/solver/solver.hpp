#pragma once
// Solver interface and solution storage.
//
// All five construction methods (optimized backtracking, original
// backtracking, brute force, chain-of-trees, blocking enumerator) implement
// Solver and produce a SolutionSet: the fully-resolved search space.
//
// Solutions are stored column-major as indices into the Problem's original
// domains, bit-packed to ceil(log2(domain_size)) bits per parameter, which
// is both the memory-efficient representation the SearchSpace layer wants
// (§4.3.4 "output formats close to the internal representation") and a
// canonical encoding that makes cross-solver validation an exact set
// comparison.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tunespace/csp/problem.hpp"
#include "tunespace/solver/packed_column.hpp"

namespace tunespace::solver {

/// Search effort counters reported by each solver.
struct SolveStats {
  std::uint64_t nodes = 0;              ///< partial assignments attempted
  std::uint64_t constraint_checks = 0;  ///< constraint evaluations (all tiers)
  std::uint64_t fast_checks = 0;        ///< subset taken through the int64 fast path
  std::uint64_t prunes = 0;             ///< rejections before full assignment
  std::uint64_t block_checks = 0;       ///< block-tier constraint dispatches
  std::uint64_t block_lanes = 0;        ///< candidate lanes covered by those dispatches
  std::uint64_t parallel_tasks = 0;     ///< prefix tasks executed (0 = sequential)
  std::uint32_t parallel_workers = 0;   ///< worker threads used (0 = sequential)
  double preprocess_seconds = 0.0;      ///< domain preprocessing time
  double search_seconds = 0.0;          ///< enumeration time
  double total_seconds() const { return preprocess_seconds + search_seconds; }
};

/// Execution options of the parallel construction engine
/// (ParallelBacktracking, and SearchSpace / tuner::parallel_method on top of
/// it).  Neither the solution order nor the effort counters depend on any
/// of these knobs; they only steer how the deterministic result is computed.
struct SolverOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().  The search
  /// tree is split into one task per valid assignment prefix, with the
  /// prefix length grown until ~8 tasks per worker exist.
  std::size_t threads = 0;

  /// Worker count after applying the hardware-concurrency default (>= 1).
  std::size_t resolve_threads() const {
    std::size_t workers = threads ? threads : std::thread::hardware_concurrency();
    return workers ? workers : 1;
  }
};

/// Column-major bit-packed store of all valid configurations.
class SolutionSet {
 public:
  SolutionSet() = default;
  /// Unpacked columns (32 bits per value); used by scratch sets whose domain
  /// sizes are unknown at construction time.
  explicit SolutionSet(std::size_t num_vars) : columns_(num_vars) {}
  /// Bit-packed columns sized from the problem's original domains: variable
  /// `v` stores ceil(log2(|domain(v)|)) bits per value.
  explicit SolutionSet(const csp::Problem& problem);
  /// Adopt prebuilt columns (the snapshot zero-copy reload path).
  explicit SolutionSet(std::vector<PackedColumn> columns)
      : columns_(std::move(columns)) {}

  std::size_t num_vars() const { return columns_.size(); }
  std::size_t size() const { return columns_.empty() ? 0 : columns_[0].size(); }
  bool empty() const { return size() == 0; }

  /// Append one solution given per-variable domain value indices.
  void append(const std::uint32_t* value_indices) { append_block(value_indices, 1); }

  /// Append `count` solutions stored row-major at `rows` (num_vars() value
  /// indices per row), packing each column in one strided pass.
  void append_block(const std::uint32_t* rows, std::size_t count) {
    for (std::size_t v = 0; v < columns_.size(); ++v) {
      columns_[v].append_strided(rows + v, count, columns_.size());
    }
  }

  /// Append all solutions of another set (column-wise bulk bit copy; used by
  /// the parallel solver to merge per-thread results cheaply).
  void append_all(const SolutionSet& other) {
    append_range(other, 0, other.size());
  }

  /// Append `count` solutions of another set starting at row `begin`.  The
  /// parallel solvers use this to stitch rank-tagged segments of per-worker
  /// shards back into the canonical sequential enumeration order.
  void append_range(const SolutionSet& other, std::size_t begin,
                    std::size_t count) {
    for (std::size_t v = 0; v < columns_.size(); ++v) {
      columns_[v].append(other.columns_[v], begin, count);
    }
  }

  /// Domain value index of variable `var` in solution `row`.
  std::uint32_t value_index(std::size_t row, std::size_t var) const {
    return columns_[var].get(row);
  }

  /// Direct access to one variable's packed column.
  const PackedColumn& column(std::size_t var) const { return columns_[var]; }

  /// Heap bytes held by the packed columns.
  std::size_t memory_bytes() const;

  /// Materialize one solution as a Config using the problem's domains.
  csp::Config config(std::size_t row, const csp::Problem& problem) const;

  /// Materialize one solution's index row.
  std::vector<std::uint32_t> index_row(std::size_t row) const;

  /// Rows sorted lexicographically — the canonical form used to compare
  /// solvers that enumerate in different orders.
  std::vector<std::vector<std::uint32_t>> sorted_rows() const;

  /// Set equality against another SolutionSet (order-insensitive).
  bool same_solutions(const SolutionSet& other) const;

 private:
  std::vector<PackedColumn> columns_;
};

/// The fixed-size staging block every engine emits rows through: push()
/// copies one row into a row-major buffer, and every kRows rows the buffer
/// is packed into the SolutionSet with append_block.  Call flush() before
/// reading the set.  kRows is a multiple of PackedColumn::kBlockRows, so
/// every flush but a build's last starts on a column block and packs
/// through append_strided's per-width block kernel.
class RowBlock {
 public:
  static constexpr std::size_t kRows = 256;

  explicit RowBlock(SolutionSet& out)
      : out_(&out), vars_(out.num_vars()), rows_(kRows * vars_) {}

  void push(const std::uint32_t* row) {
    std::copy_n(row, vars_, rows_.data() + count_ * vars_);
    if (++count_ == kRows) flush();
  }

  /// Pack the staged rows; the set is complete once this returns.
  void flush() {
    out_->append_block(rows_.data(), count_);
    count_ = 0;
  }

 private:
  SolutionSet* out_;
  std::size_t vars_;
  std::size_t count_ = 0;
  std::vector<std::uint32_t> rows_;
};

/// Result of a full construction.
struct SolveResult {
  SolutionSet solutions;
  SolveStats stats;
};

/// A search-space construction method.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Display name used in benchmark output ("optimized", "brute-force", ...).
  virtual std::string name() const = 0;

  /// Enumerate every valid configuration.  The problem's domains are not
  /// modified (solvers preprocess copies), but constraints may cache
  /// prepared bounds, so a single Problem must not be solved concurrently.
  virtual SolveResult solve(csp::Problem& problem) const = 0;
};

using SolverPtr = std::unique_ptr<Solver>;

}  // namespace tunespace::solver
