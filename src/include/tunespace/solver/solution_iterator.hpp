#pragma once
// SolutionIterator: lazy, resumable enumeration of a problem's solutions
// (the analogue of python-constraint's getSolutionIter).
//
// Useful when a consumer wants to stream solutions without materializing the
// full space — e.g. early-exit existence checks, first-k sampling, or
// feeding a pipeline.  The iterator owns its search plan; the Problem must
// outlive the iterator (constraints are referenced, not copied).

#include <memory>
#include <optional>
#include <vector>

#include "tunespace/csp/problem.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"

namespace tunespace::solver {

/// Lazy enumeration of all solutions under the optimized search strategy.
class SolutionIterator {
 public:
  explicit SolutionIterator(csp::Problem& problem, OptimizedOptions options = {});
  ~SolutionIterator();
  SolutionIterator(SolutionIterator&&) noexcept;
  SolutionIterator& operator=(SolutionIterator&&) noexcept;

  /// Next solution as original-domain value indices (variable order), or
  /// nullptr when exhausted.  The row is the engine's own: no copy is made,
  /// and it stays valid until the next call.
  const std::vector<std::uint32_t>* next();

  /// Next solution materialized as a Config, or nullopt when exhausted.
  std::optional<csp::Config> next_config();

  /// Solutions yielded so far.
  std::size_t count() const { return count_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  const csp::Problem* problem_;
  std::size_t count_ = 0;
};

}  // namespace tunespace::solver
