#pragma once
// Pipeline: lowers a TuningProblem into a csp::Problem under a chosen
// constraint-optimization strategy, and defines the named construction
// methods the evaluation section compares.
//
// The §4.2 parsing pipeline is:  parse -> fold constants -> decompose into
// minimal-scope conjuncts -> recognize specific constraints -> compile the
// rest.  Each switch can be disabled to obtain the baselines:
//
//   optimized  : full pipeline + OptimizedBacktracking        (this paper)
//   original   : no decompose/recognize, interpreted functions,
//                OriginalBacktracking                          (vanilla CSP)
//   brute-force: no decompose/recognize, compiled functions, BruteForce
//   ATF        : no decompose/recognize, compiled functions, ChainOfTrees
//   pyATF      : no decompose/recognize, interpreted functions, ChainOfTrees
//   blocking-smt: no decompose/recognize, compiled functions,
//                BlockingEnumerator                            (PySMT + Z3)

#include <memory>
#include <string>
#include <vector>

#include "tunespace/csp/problem.hpp"
#include "tunespace/expr/function_constraint.hpp"
#include "tunespace/solver/solver.hpp"
#include "tunespace/tuner/tuning_problem.hpp"

namespace tunespace::tuner {

/// Constraint lowering strategy.
struct PipelineOptions {
  bool decompose = true;   ///< split conjunctions and comparison chains (§4.2)
  bool recognize = true;   ///< map conjuncts onto specific constraints (§4.3.2)
  expr::EvalMode eval_mode = expr::EvalMode::Compiled;  ///< fallback functions

  /// Full paper pipeline.
  static PipelineOptions optimized() { return {true, true, expr::EvalMode::Compiled}; }
  /// Vanilla python-constraint: monolithic interpreted function constraints.
  static PipelineOptions original() {
    return {false, false, expr::EvalMode::Interpreted};
  }
  /// Monolithic but natively-compiled constraints (C++ baselines).
  static PipelineOptions compiled_raw() {
    return {false, false, expr::EvalMode::Compiled};
  }
};

/// Lower a TuningProblem to a csp::Problem.  Throws expr::SyntaxError on
/// malformed constraint expressions.
csp::Problem build_problem(const TuningProblem& spec, const PipelineOptions& options);

/// A named construction method: pipeline options + solver, as benchmarked
/// in Figs. 3-5.
struct Method {
  std::string name;
  PipelineOptions pipeline;
  solver::SolverPtr solver;
};

/// The paper's five standard methods in presentation order (optimized,
/// ATF, original, brute-force, pyATF); `include_blocking` appends the
/// Fig. 4 SMT-style enumerator.
std::vector<Method> construction_methods(bool include_blocking = false);

/// The default user-path method: full pipeline + OptimizedBacktracking.
Method optimized_method();

/// The optimized method on the parallel engine (full pipeline +
/// ParallelBacktracking).  Produces byte-identical results to the
/// "optimized" method; benches and the SearchSpace layer use it to scale
/// construction across cores.
Method parallel_method(const solver::SolverOptions& options = {});

/// Convenience: lower and solve in one timed step.  The returned stats'
/// preprocess_seconds includes pipeline build time (the paper includes
/// search-space definition compile time in total construction time, §5.1).
solver::SolveResult construct(const TuningProblem& spec, const Method& method);

/// Stable 64-bit fingerprint of everything that determines the resolved
/// search space: the parameter domains (names, value kinds and payloads, in
/// declaration order), the constraint expressions, and the construction
/// method (name + pipeline switches — methods differ in enumeration order).
/// The spec's display name is deliberately excluded.  Snapshot files and
/// the SearchSpace::load_or_build cache are keyed by this value; native
/// lambda constraints are opaque to it, so specs carrying them must not be
/// cached (load_or_build refuses and builds fresh).
std::uint64_t spec_fingerprint(const TuningProblem& spec,
                               const std::string& method_name,
                               const PipelineOptions& pipeline);
std::uint64_t spec_fingerprint(const TuningProblem& spec, const Method& method);

}  // namespace tunespace::tuner
