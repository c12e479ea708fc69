#include "tunespace/solver/blocking_enumerator.hpp"

#include <algorithm>

#include "tunespace/util/timer.hpp"

namespace tunespace::solver {

using csp::Constraint;
using csp::Value;

SolveResult BlockingEnumerator::solve(csp::Problem& problem) const {
  SolveResult result;
  const std::size_t n = problem.num_variables();
  result.solutions = SolutionSet(problem);
  util::WallTimer timer;
  if (n == 0) return result;
  for (const auto& d : problem.domains()) {
    if (d.empty()) return result;
  }

  // Constraint dispatch: full check when the last scope variable (in
  // declaration order, which is the search order here) is assigned.
  std::vector<std::vector<const Constraint*>> full_at(n);
  bool unsatisfiable_constant = false;
  for (const auto& c : problem.constraints()) {
    if (c->indices().empty()) {
      Value dummy;
      if (!c->satisfied(&dummy)) unsatisfiable_constant = true;
      continue;
    }
    std::uint32_t last = 0;
    for (std::uint32_t idx : c->indices()) last = std::max(last, idx);
    full_at[last].push_back(c.get());
  }
  if (unsatisfiable_constant) return result;

  std::vector<Value> values(n);
  std::vector<std::uint32_t> idx(n, 0);
  std::vector<std::vector<std::uint32_t>> blocking_clauses;

  std::uint64_t nodes = 0, checks = 0, clause_checks = 0;
  RowBlock block(result.solutions);
  std::size_t p = 0;
  while (true) {
    const csp::Domain& dom = problem.domain(p);
    bool descended = false;
    while (idx[p] < dom.size()) {
      values[p] = dom[idx[p]];
      ++nodes;
      bool ok = true;
      for (const Constraint* c : full_at[p]) {
        ++checks;
        if (!c->satisfied(values.data())) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        ++idx[p];
        continue;
      }
      if (p + 1 == n) {
        // Candidate model found: an SMT enumerator must verify it against
        // every blocking clause accumulated so far before reporting it.
        std::vector<std::uint32_t> model(idx);
        bool blocked = false;
        for (const auto& clause : blocking_clauses) {
          ++clause_checks;
          if (std::equal(clause.begin(), clause.end(), model.begin())) {
            blocked = true;  // unreachable in a non-revisiting sweep
            break;
          }
        }
        if (!blocked) {
          block.push(model.data());
          blocking_clauses.push_back(std::move(model));
        }
        ++idx[p];
        continue;
      }
      ++p;
      idx[p] = 0;
      descended = true;
      break;
    }
    if (descended) continue;
    if (p == 0) break;
    idx[p] = 0;
    --p;
    ++idx[p];
  }
  block.flush();

  result.stats.nodes = nodes;
  result.stats.constraint_checks = checks + clause_checks;
  result.stats.search_seconds = timer.seconds();
  return result;
}

}  // namespace tunespace::solver
