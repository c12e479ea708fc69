#pragma once
// Internal shared core of the optimized backtracking search (not installed;
// used by OptimizedBacktracking, ParallelBacktracking and SolutionIterator).
//
// A SearchPlan captures everything derived from the Problem before search:
// preprocessed domain copies, the original-domain index mapping, the
// variable order, and the per-position constraint dispatch tables.
// A BacktrackingEngine then enumerates solutions resumably over a plan.
// Two restrictions compose into the parallel decomposition:
//   * an emit depth D < n turns the engine into a *prefix expander* that
//     yields every valid depth-D assignment prefix (and charges exactly the
//     nodes/checks the sequential search spends on the top D levels);
//   * a prefix seed fixes positions [0, D) to one expanded prefix and
//     enumerates only the subtree below it, never backtracking above D.
// Together they let the parallel solver split the search tree at any depth
// while keeping the union of all engines' effort counters exactly equal to a
// single sequential enumeration.

#include <cstdint>
#include <vector>

#include "tunespace/csp/problem.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/solver/solver.hpp"

namespace tunespace::solver::detail {

/// Precomputed search strategy for one problem.
///
/// Constraint dispatch is two-tier: constraints that specialized for the
/// int64 fast path (Constraint::try_specialize) land in the *_fast tables
/// and are evaluated against a dense int64 mirror of the assignment;
/// everything else stays in the boxed tables.  Boxed Values are only
/// written for variables some boxed constraint actually reads
/// (var_needs_boxed), so all-integer problems never touch a Value on the
/// hot path.
struct SearchPlan {
  std::vector<csp::Domain> domains;                    ///< preprocessed copies
  std::vector<std::vector<std::uint32_t>> orig_index;  ///< pruned -> original
  std::vector<std::size_t> order;                      ///< position -> variable
  std::vector<std::size_t> pos_of;                     ///< variable -> position
  std::vector<std::vector<const csp::Constraint*>> full_at;     ///< boxed tier
  std::vector<std::vector<const csp::Constraint*>> partial_at;  ///< boxed tier
  std::vector<std::vector<const csp::Constraint*>> full_fast_at;
  std::vector<std::vector<const csp::Constraint*>> partial_fast_at;
  std::vector<std::vector<std::int64_t>> int_values;   ///< per int var: domain mirror
  std::vector<unsigned char> var_is_int;               ///< domain is int/bool only
  std::vector<unsigned char> var_needs_boxed;          ///< boxed tier reads this var
  std::vector<unsigned char> block_at;                 ///< block tier on at position
  bool unsatisfiable = false;  ///< proven empty during preprocessing
};

/// Build a plan: preprocess domains (per options), order variables, prepare
/// constraints, and build dispatch tables.  Adds preprocessing effort to
/// `stats`.  The plan references the problem's constraints; the problem must
/// outlive the plan.
SearchPlan build_plan(csp::Problem& problem, const OptimizedOptions& options,
                      SolveStats& stats);

/// Resumable depth-first enumeration over a plan.
class BacktrackingEngine {
 public:
  /// Restrict the first search position's value indices to [first_lo,
  /// first_hi) — pass 0 and the full domain size for a complete search.
  /// `emit_depth` < n turns the engine into a prefix expander: next()
  /// returns once per valid assignment of positions [0, emit_depth) and
  /// never descends (or counts effort) below that depth.
  BacktrackingEngine(const SearchPlan& plan, std::size_t first_lo,
                     std::size_t first_hi,
                     std::size_t emit_depth = static_cast<std::size_t>(-1));

  /// A fixed assignment prefix: `length` pruned-domain value indices, one
  /// per search position, as produced by a prefix expander via chosen_index.
  struct PrefixSeed {
    const std::uint32_t* values = nullptr;
    std::size_t length = 0;
  };

  /// Seed positions [0, seed.length) and enumerate the subtree below.  The
  /// seeded positions are assumed already validated by the expansion; no
  /// effort is counted for them, and the engine never backtracks above the
  /// prefix.
  BacktrackingEngine(const SearchPlan& plan, PrefixSeed seed);

  /// Advance to the next solution; false when exhausted.  On success the
  /// solution is available via row() (original-domain value indices).
  bool next();

  const std::vector<std::uint32_t>& row() const { return row_; }

  /// Pruned-domain value index currently chosen at search position `pos`.
  /// Valid for pos < emit_depth after next() returned true; used to capture
  /// the prefix a depth-limited expander stopped at.
  std::uint32_t chosen_index(std::size_t pos) const {
    return static_cast<std::uint32_t>(value_idx_[pos] - 1);
  }

  std::uint64_t nodes() const { return nodes_; }
  std::uint64_t constraint_checks() const { return checks_; }
  std::uint64_t fast_checks() const { return fast_checks_; }
  std::uint64_t prunes() const { return prunes_; }
  std::uint64_t block_checks() const { return block_checks_; }
  std::uint64_t block_lanes() const { return block_lanes_; }

 private:
  /// One candidate lane group per block-enabled position (matches the
  /// Constraint block contract and expr::IntProgramBlock).
  static constexpr std::size_t kBlockLanes = csp::Constraint::kMaxBlockLanes;
  /// chunk_begin_ sentinel: no valid lane-group mask cached at a position.
  static constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);

  /// Evaluate the lane group [vi0, min(vi0 + kBlockLanes, limit)) of search
  /// position `p` against the current partial assignment, filling
  /// chunk_mask_.  Charges checks_/fast_checks_/prunes_ exactly as the
  /// scalar per-candidate sweep would (lanes count as individual checks;
  /// dead lanes stop being charged), so solver stats are independent of
  /// whether the block tier is on.
  void compute_chunk(std::size_t p, std::size_t vi0, std::size_t limit);

  const SearchPlan* plan_;
  std::size_t first_lo_, first_hi_;
  std::size_t base_ = 0;        ///< backtracking floor (prefix length)
  std::size_t emit_depth_ = 0;  ///< position count after which next() yields
  std::vector<csp::Value> values_;
  std::vector<std::int64_t> int_values_;  ///< dense int64 assignment mirror
  std::vector<unsigned char> assigned_;
  std::vector<std::size_t> value_idx_;
  std::vector<std::uint32_t> row_;
  std::vector<std::size_t> chunk_begin_;  ///< per position: first lane index
  std::vector<unsigned char> chunk_mask_; ///< per position: kBlockLanes verdicts
  std::size_t p_ = 0;
  bool exhausted_ = false;
  std::uint64_t nodes_ = 0, checks_ = 0, fast_checks_ = 0, prunes_ = 0;
  std::uint64_t block_checks_ = 0, block_lanes_ = 0;
};

}  // namespace tunespace::solver::detail
