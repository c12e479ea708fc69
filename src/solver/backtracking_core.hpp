#pragma once
// Internal shared core of the optimized backtracking search (not installed;
// used by OptimizedBacktracking, ParallelBacktracking and SolutionIterator).
//
// A SearchPlan captures everything derived from the Problem before search:
// preprocessed domain copies, the original-domain index mapping, the
// variable order, the per-variable constraint dispatch tables, and the
// factorization of the search order (see SearchPlan).
// A BacktrackingEngine then enumerates solutions resumably over a plan,
// either along the whole search order or along one component's variables.
// Two restrictions compose into the parallel decomposition:
//   * an emit depth D < n turns the engine into a *prefix expander* that
//     yields every valid depth-D assignment prefix (and charges exactly the
//     nodes/checks the sequential search spends on the top D levels);
//   * a prefix seed fixes positions [0, D) to one expanded prefix and
//     enumerates only the subtree below it, never backtracking above D.
// Together they let the parallel solver split the search tree at any depth
// while keeping the union of all engines' effort counters exactly equal to a
// single sequential enumeration.
//
// The factorized enumeration (enumerate, search_components, ComponentWalk,
// SuffixProduct) emits the same rows in the same order as the plain search
// of plan.order, without searching the unconstrained suffix or searching one
// component again for every combination of the others.

#include <cstdint>
#include <vector>

#include "tunespace/csp/problem.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/solver/solver.hpp"

namespace tunespace::solver::detail {

/// Precomputed search strategy for one problem.
///
/// Everything but the order is indexed by variable, so a search along any
/// subsequence of plan.order (one component's variables) reads the same
/// tables: a constraint is checked in full at the scope variable that comes
/// last in plan.order, and partially at its other scope variables.
///
/// Constraint dispatch is two-tier: constraints that specialized for the
/// int64 fast path (Constraint::try_specialize) land in the *_fast tables
/// and are evaluated against a dense int64 mirror of the assignment;
/// everything else stays in the boxed tables.  Boxed Values are only
/// written for variables some boxed constraint actually reads
/// (var_needs_boxed), so all-integer problems never touch a Value on the
/// hot path.
///
/// The factorization: positions [suffix_begin, n) of the order hold only
/// variables no constraint reads (with sort_variables on, every such
/// variable sorts there), so they are emitted as a product (SuffixProduct).
/// When the variables before suffix_begin split into two or more
/// independent constrained components, `components` lists them and each is
/// searched once (search_components) before a ComponentWalk emits their
/// product in search order.
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
  std::vector<unsigned char> block_at;                 ///< block tier on for var
  std::size_t suffix_begin = 0;  ///< first position of the unconstrained suffix
  /// Each component's variables in search order, ordered by first position;
  /// empty unless two or more components are constrained.  Unconstrained
  /// variables before suffix_begin are components of their own.
  std::vector<std::vector<std::size_t>> components;
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
  static constexpr std::size_t kAll = static_cast<std::size_t>(-1);

  /// Search the variables `order` (plan.order, or one entry of
  /// plan.components) in that order; `order` must outlive the engine.
  /// `emit_depth` < order.size() turns the engine into a prefix expander:
  /// next() returns once per valid assignment of positions [0, emit_depth)
  /// and never descends (or counts effort) below that depth.
  BacktrackingEngine(const SearchPlan& plan, const std::vector<std::size_t>& order,
                     std::size_t emit_depth = kAll);

  /// A fixed assignment prefix: `length` pruned-domain value indices, one
  /// per search position, as produced by a prefix expander via chosen_index.
  struct PrefixSeed {
    const std::uint32_t* values = nullptr;
    std::size_t length = 0;
  };

  /// Seed positions [0, seed.length) of plan.order and enumerate the subtree
  /// below, down to `emit_depth`.  The seeded positions are assumed already
  /// validated by the expansion; no effort is counted for them, and the
  /// engine never backtracks above the prefix.
  BacktrackingEngine(const SearchPlan& plan, PrefixSeed seed,
                     std::size_t emit_depth = kAll);

  /// Advance to the next solution; false when exhausted.  On success the
  /// solution is available via row() (original-domain value indices).
  bool next();

  /// The current row, indexed by variable.  Entries of variables the engine
  /// does not search are never written, so a caller may complete the row
  /// there in place (the suffix product does).
  std::vector<std::uint32_t>& row() { return row_; }
  const std::vector<std::uint32_t>& row() const { return row_; }

  /// Pruned-domain value index currently chosen at search position `pos`.
  /// Valid for pos < emit_depth after next() returned true; used to capture
  /// the prefix a depth-limited expander stopped at.
  std::uint32_t chosen_index(std::size_t pos) const {
    return static_cast<std::uint32_t>(value_idx_[pos] - 1);
  }

  /// Add this engine's effort counters to `stats`.
  void add_effort(SolveStats& stats) const;

 private:
  /// One candidate lane group per block-enabled position (matches the
  /// Constraint block contract and expr::IntProgramBlock).
  static constexpr std::size_t kBlockLanes = csp::Constraint::kMaxBlockLanes;
  /// chunk_begin_ sentinel: no valid lane-group mask cached at a position.
  static constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);

  /// Size the per-search state for the plan's variables.
  void init_state(std::size_t emit_depth);

  /// Evaluate the lane group [vi0, min(vi0 + kBlockLanes, limit)) of search
  /// position `p` against the current partial assignment, filling
  /// chunk_mask_.  Charges checks_/fast_checks_/prunes_ exactly as the
  /// scalar per-candidate sweep would (lanes count as individual checks;
  /// dead lanes stop being charged), so solver stats are independent of
  /// whether the block tier is on.
  void compute_chunk(std::size_t p, std::size_t vi0, std::size_t limit);

  const SearchPlan* plan_;
  const std::vector<std::size_t>* order_;  ///< position -> variable searched
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

/// The unconstrained positions [from, to) of plan.order (from >=
/// plan.suffix_begin) as an odometer product, last position fastest: the
/// order the search enumerates them in.
class SuffixProduct {
 public:
  SuffixProduct(const SearchPlan& plan, std::size_t from, std::size_t to);

  /// Write the first value of every variable in the range into `row`.  The
  /// single-valued ones are never written again.
  void start(std::uint32_t* row) const;

  /// The nodes the search spends below one completed prefix on these
  /// positions: N(p) = |D_p| * (1 + N(p + 1)), N(to) = 0.
  std::uint64_t nodes() const { return nodes_; }

  /// Call fn() once per assignment of the range, written into `row` (which
  /// start() prepared).  Returns with every position back at its first
  /// value.
  template <class Fn>
  void for_each(std::uint32_t* row, Fn&& fn) {
    const std::size_t k = vars_.size();
    for (;;) {
      fn();
      std::size_t i = k;
      for (;;) {
        if (i == 0) return;
        --i;
        const std::uint32_t* values = values_[i];
        if (++idx_[i] < sizes_[i]) {
          row[vars_[i]] = values[idx_[i]];
          break;
        }
        idx_[i] = 0;
        row[vars_[i]] = values[0];
      }
    }
  }

 private:
  const SearchPlan* plan_;
  std::size_t from_, to_;
  std::uint64_t nodes_ = 0;
  // The multi-valued positions of the range, in search order.
  std::vector<std::size_t> vars_;
  std::vector<const std::uint32_t*> values_;  ///< the variable's orig_index
  std::vector<std::uint32_t> sizes_, idx_;
};

/// The solutions of one component, searched once, in the search's
/// (lexicographic) order and level-major: values[l][i] is the original value
/// index of the component's l-th variable in solution i, and run_end[l][i]
/// is one past the last solution that agrees with solution i on levels
/// [0, l].
struct ComponentRows {
  std::vector<std::vector<std::uint32_t>> values, run_end;
  std::size_t size() const { return values.empty() ? 0 : values[0].size(); }
};

/// Search every entry of plan.components once, adding the effort to
/// `stats`.  Returns false as soon as one component has no solution: the
/// space is empty.
bool search_components(const SearchPlan& plan, std::vector<ComponentRows>& rows,
                       SolveStats& stats);

/// The product of the components' solutions, walked along positions
/// [0, plan.suffix_begin) of the search order.  At each position it steps
/// through the runs of that component's solutions that agree with the
/// component's values at its earlier positions, so rows come out
/// lexicographic in search order, exactly as the search emits them.
class ComponentWalk {
 public:
  ComponentWalk(const SearchPlan& plan, const std::vector<ComponentRows>& rows);

  /// The solution index chosen at position `p` (valid inside run()).
  std::uint32_t cursor(std::size_t p) const { return cur_[p]; }

  /// Fix positions [0, length) to the given cursors and write their values
  /// into `row`; run(length, ...) then walks only below them.
  void seed(const std::uint32_t* cursors, std::size_t length, std::uint32_t* row);

  /// Call fn() once per consistent assignment of positions [from, to), with
  /// `row` and the cursors filled in for positions [0, to).
  template <class Fn>
  void run(std::size_t from, std::size_t to, std::uint32_t* row, Fn&& fn) {
    enter(from, to, row);
    for (;;) {
      fn();
      std::size_t q = to;
      for (;;) {
        if (q == from) return;
        --q;
        const Level& lv = levels_[q];
        const std::uint32_t next = lv.run_end[cur_[q]];
        if (next < lim_[q]) {
          cur_[q] = next;
          row[lv.var] = lv.values[next];
          break;
        }
      }
      enter(q + 1, to, row);
    }
  }

 private:
  struct Level {
    const std::uint32_t* values;   ///< this level of the component's rows
    const std::uint32_t* run_end;  ///< this level's run ends
    std::uint32_t size;            ///< the component's solution count
    std::size_t var;
    std::size_t prev;  ///< position of the component's previous level, or npos
  };

  /// Start positions [from, to) at the first run their prefix allows.
  void enter(std::size_t from, std::size_t to, std::uint32_t* row) {
    for (std::size_t q = from; q < to; ++q) {
      const Level& lv = levels_[q];
      if (lv.prev == kNone) {
        cur_[q] = 0;
        lim_[q] = lv.size;
      } else {
        cur_[q] = cur_[lv.prev];
        lim_[q] = levels_[lv.prev].run_end[cur_[lv.prev]];
      }
      row[lv.var] = lv.values[cur_[q]];
    }
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<Level> levels_;        ///< per position before suffix_begin
  std::vector<std::uint32_t> cur_;   ///< per position: first row of the run
  std::vector<std::uint32_t> lim_;   ///< per position: end of the parent run
};

/// The factorized enumeration of every row below `prefix` (length 0: the
/// whole space) into `out`, in search order; effort counters go to
/// `stats`.  Emits exactly the rows, in exactly the order, of a
/// BacktrackingEngine over plan.order, and charges the same effort, except
/// that a multi-component plan's components were searched once, up front,
/// by search_components (`components`).  The prefix is one entry per
/// position, in the form expand_prefixes records at that depth.
void enumerate(const SearchPlan& plan, const std::vector<ComponentRows>& components,
               BacktrackingEngine::PrefixSeed prefix, RowBlock& out, SolveStats& stats);

/// Append every valid assignment of positions [0, depth) to `prefixes`,
/// `depth` entries each, in search order, and charge `stats` the effort the
/// search spends above that depth.  An entry is the row's original value
/// index when depth >= plan.suffix_begin, else the walk's cursor
/// (multi-component plans) or the search's pruned value index.
void expand_prefixes(const SearchPlan& plan,
                     const std::vector<ComponentRows>& components, std::size_t depth,
                     std::vector<std::uint32_t>& prefixes, SolveStats& stats);

}  // namespace tunespace::solver::detail
