#pragma once
// ParallelBacktracking: multi-threaded variant of the optimized solver.
//
// The search tree is split at a prefix depth D chosen per solve (deep
// enough for ~8 valid prefixes per worker): a sequential
// *prefix expansion* enumerates every valid assignment of the first D search
// positions (charging exactly the effort the sequential search spends on the
// top D levels), and each valid prefix becomes one task — the subtree below
// it.  Workers take tasks one at a time from a shared cursor, so a worker
// that draws a large subtree never holds back the remaining ones.
//
// The engine uses the sequential solver's factorization: a space whose
// constrained variables split into two or more components has each
// component searched once, up front, and the tasks split the product walk
// over their solutions instead of the search tree; a task whose prefix
// reaches the unconstrained suffix emits its product without search.
//
// Every worker appends solutions into its own sharded SolutionSet (no shared
// append lock) and records one (prefix-rank, begin, count) segment per task;
// segments are merged by rank afterwards, so the output is byte-identical to
// the sequential solver's enumeration order, and the summed effort counters
// (nodes / checks / prunes) equal a sequential run exactly.

#include <cstddef>

#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/solver/solver.hpp"

namespace tunespace::solver {

/// Multi-threaded optimized backtracking.
class ParallelBacktracking : public Solver {
 public:
  /// `threads` = 0 uses the hardware concurrency.
  explicit ParallelBacktracking(std::size_t threads = 0,
                                OptimizedOptions options = {})
      : options_(options) {
    parallel_.threads = threads;
  }

  /// Threads from SolverOptions (the form SearchSpace passes through).
  explicit ParallelBacktracking(SolverOptions parallel,
                                OptimizedOptions options = {})
      : parallel_(parallel), options_(options) {}

  std::string name() const override { return "optimized-parallel"; }
  SolveResult solve(csp::Problem& problem) const override;

 private:
  SolverOptions parallel_;
  OptimizedOptions options_;
};

}  // namespace tunespace::solver
