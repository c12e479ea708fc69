#pragma once
// The paper's optimized all-solutions backtracking solver (Alg. 1 + §4.3).
//
// Optimizations over the original baseline:
//   * domains are preprocessed to a fixpoint using the specific constraints'
//     pruning rules before search (§4.3.2);
//   * variables are sorted once, by descending constraint participation
//     (ties: ascending domain size), instead of re-sorted per node (§4.3.1);
//   * constraints are dispatched from per-position tables: a constraint is
//     fully checked exactly when its last scope variable (in search order)
//     is assigned, and partial-capable constraints are additionally checked
//     at every earlier scope variable (§4.3.1/§4.3.2);
//   * the search loop is iterative (explicit position/value counters), not
//     recursive (§4.3.1);
//   * the unconstrained suffix of the search order (variables no constraint
//     reads, which the sort puts last) is emitted as a product without
//     search; single-valued variables are written once, not per row;
//   * when the constrained variables split into two or more independent
//     components (union-find over constraint scopes, as chain-of-trees
//     groups them), each component is searched once and a product walk
//     emits the rows;
//   * solutions are emitted straight into the column-major SolutionSet with
//     original-domain indices, avoiding output rearrangement (§4.3.4).
//
// The two product steps change neither the rows nor their order, which
// stay lexicographic in the search order.  The suffix is charged the nodes
// its search would have cost, so every SolveStats counter is unchanged on a
// space with at most one constrained component; with two or more, nodes
// and checks fall because no component is searched twice.
//
// The class also exposes a resumable iterator used by the blocking-clause
// enumerator and by tests.

#include "tunespace/solver/solver.hpp"

namespace tunespace::solver {

/// Feature toggles, used by the ablation benchmark (bench_ablation) to
/// attribute speedup to individual optimizations.
struct OptimizedOptions {
  bool preprocess = true;        ///< domain pruning before search
  bool sort_variables = true;    ///< constraint-count variable ordering
  bool partial_checks = true;    ///< early consistency checks
  bool int_fast_path = true;     ///< typed int64 evaluation for int-only scopes
  bool block_eval = true;        ///< lane-group candidate sweeps over the fast path
};

/// Optimized backtracking solver.
class OptimizedBacktracking : public Solver {
 public:
  OptimizedBacktracking() = default;
  explicit OptimizedBacktracking(OptimizedOptions options) : options_(options) {}

  std::string name() const override { return "optimized"; }
  SolveResult solve(csp::Problem& problem) const override;

  const OptimizedOptions& options() const { return options_; }

 private:
  OptimizedOptions options_;
};

}  // namespace tunespace::solver
