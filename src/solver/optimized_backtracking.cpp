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
  detail::BacktrackingEngine engine(plan, 0, plan.domains[plan.order[0]].size());
  RowBlock block(result.solutions);
  while (engine.next()) block.push(engine.row().data());
  block.flush();
  result.stats.nodes = engine.nodes();
  result.stats.constraint_checks = engine.constraint_checks();
  result.stats.fast_checks = engine.fast_checks();
  result.stats.prunes += engine.prunes();  // += : preprocessing counted some
  result.stats.block_checks = engine.block_checks();
  result.stats.block_lanes = engine.block_lanes();
  result.stats.search_seconds = timer.seconds();
  return result;
}

}  // namespace tunespace::solver
