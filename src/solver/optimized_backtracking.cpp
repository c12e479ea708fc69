#include "tunespace/solver/optimized_backtracking.hpp"

#include "backtracking_core.hpp"
#include "tunespace/util/timer.hpp"

namespace tunespace::solver {

SolveResult OptimizedBacktracking::solve(csp::Problem& problem) const {
  SolveResult result;
  const std::size_t n = problem.num_variables();
  result.solutions = SolutionSet(problem);
  util::WallTimer timer;
  if (n == 0) return result;

  detail::SearchPlan plan = detail::build_plan(problem, options_, result.stats);
  result.stats.preprocess_seconds = timer.seconds();
  if (plan.unsatisfiable) return result;

  timer.reset();
  std::vector<detail::ComponentRows> components;
  if (detail::search_components(plan, components, result.stats)) {
    RowBlock block(result.solutions);
    detail::enumerate(plan, components, {}, block, result.stats);
    block.flush();
  }
  result.stats.search_seconds = timer.seconds();
  return result;
}

}  // namespace tunespace::solver
