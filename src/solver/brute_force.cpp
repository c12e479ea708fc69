#include "tunespace/solver/brute_force.hpp"

#include "tunespace/util/timer.hpp"

namespace tunespace::solver {

using csp::Constraint;
using csp::Value;

SolveResult BruteForce::solve(csp::Problem& problem) const {
  SolveResult result;
  const std::size_t n = problem.num_variables();
  result.solutions = SolutionSet(problem);
  util::WallTimer timer;

  for (const auto& d : problem.domains()) {
    if (d.empty()) return result;
  }
  // Collect raw constraint pointers once; constant constraints are evaluated
  // on every combination too (that is what brute force does).
  std::vector<const Constraint*> constraints;
  constraints.reserve(problem.constraints().size());
  for (const auto& c : problem.constraints()) constraints.push_back(c.get());

  std::vector<Value> values(n);
  std::vector<std::uint32_t> idx(n, 0);
  for (std::size_t v = 0; v < n; ++v) values[v] = problem.domain(v)[0];

  if (n == 0) {
    result.stats.search_seconds = timer.seconds();
    return result;
  }

  std::uint64_t nodes = 0, checks = 0;
  RowBlock block(result.solutions);
  for (;;) {
    ++nodes;
    bool ok = true;
    for (const Constraint* c : constraints) {
      ++checks;
      if (!c->satisfied(values.data())) {
        ok = false;
        break;
      }
    }
    if (ok) block.push(idx.data());

    // Advance the odometer (last variable fastest).
    std::size_t v = n;
    while (v > 0) {
      --v;
      if (++idx[v] < problem.domain(v).size()) {
        values[v] = problem.domain(v)[idx[v]];
        break;
      }
      idx[v] = 0;
      values[v] = problem.domain(v)[0];
      if (v == 0) {
        block.flush();
        result.stats.nodes = nodes;
        result.stats.constraint_checks = checks;
        result.stats.search_seconds = timer.seconds();
        return result;
      }
    }
  }
}

}  // namespace tunespace::solver
