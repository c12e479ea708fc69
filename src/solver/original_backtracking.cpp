#include "tunespace/solver/original_backtracking.hpp"

#include <algorithm>
#include <unordered_map>

#include "tunespace/util/timer.hpp"

namespace tunespace::solver {

using csp::Constraint;
using csp::Value;

namespace {

struct SearchState {
  csp::Problem* problem;
  // Name-keyed assignment map, deliberately mirroring the python dict the
  // original implementation threads through every call.
  std::unordered_map<std::string, Value> assignment;
  // Dense mirrors kept in sync for the Constraint interface.
  std::vector<Value> values;
  std::vector<unsigned char> assigned;
  // Per-variable constraint lists (vconstraints in python-constraint).
  std::vector<std::vector<const Constraint*>> var_constraints;
  std::vector<std::size_t> constraint_count;
  std::vector<std::uint32_t> row;
  RowBlock* out = nullptr;
  SolveStats* stats = nullptr;
};

void search(SearchState& st) {
  csp::Problem& problem = *st.problem;
  const std::size_t n = problem.num_variables();

  // Rebuild and sort the candidate list at every node, exactly like the
  // original solver: most constraints first, then smallest domain.
  std::vector<std::size_t> candidates;
  candidates.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (!st.assigned[v]) candidates.push_back(v);
  }
  if (candidates.empty()) {
    // Solution: convert the assignment to original-domain indices (the
    // python version copies the dict here; we pay an analogous cost).
    for (std::size_t v = 0; v < n; ++v) {
      st.row[v] = static_cast<std::uint32_t>(
          problem.domain(v).index_of(st.values[v]));
    }
    st.out->push(st.row.data());
    return;
  }
  std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
    if (st.constraint_count[a] != st.constraint_count[b]) {
      return st.constraint_count[a] > st.constraint_count[b];
    }
    if (problem.domain(a).size() != problem.domain(b).size()) {
      return problem.domain(a).size() < problem.domain(b).size();
    }
    return a < b;
  });
  const std::size_t var = candidates.front();

  for (std::size_t vi = 0; vi < problem.domain(var).size(); ++vi) {
    const Value& value = problem.domain(var)[vi];
    st.assignment[problem.name(var)] = value;  // dict write
    st.values[var] = value;
    st.assigned[var] = 1;
    st.stats->nodes++;

    bool ok = true;
    for (const Constraint* c : st.var_constraints[var]) {
      st.stats->constraint_checks++;
      // Original semantics: evaluate only when fully assigned; otherwise
      // the check trivially passes (default consistent()).
      if (!c->consistent(st.values.data(), st.assigned.data())) {
        ok = false;
        break;
      }
    }
    if (ok) search(st);
    st.assigned[var] = 0;
  }
  st.assignment.erase(problem.name(var));  // dict erase on unwind
}

}  // namespace

SolveResult OriginalBacktracking::solve(csp::Problem& problem) const {
  SolveResult result;
  const std::size_t n = problem.num_variables();
  result.solutions = SolutionSet(problem);
  for (const auto& d : problem.domains()) {
    if (d.empty()) return result;
  }
  util::WallTimer timer;

  SearchState st;
  st.problem = &problem;
  st.values.resize(n);
  st.assigned.assign(n, 0);
  st.row.resize(n);
  st.var_constraints.resize(n);
  st.constraint_count.assign(n, 0);
  bool unsatisfiable_constant = false;
  for (const auto& c : problem.constraints()) {
    if (c->indices().empty()) {
      Value dummy;
      if (!c->satisfied(&dummy)) unsatisfiable_constant = true;
      continue;
    }
    for (std::uint32_t idx : c->indices()) {
      st.var_constraints[idx].push_back(c.get());
      st.constraint_count[idx]++;
    }
  }
  RowBlock block(result.solutions);
  st.out = &block;
  st.stats = &result.stats;
  if (!unsatisfiable_constant && n > 0) {
    search(st);
    block.flush();
  } else if (!unsatisfiable_constant && n == 0) {
    // Zero-variable problem with satisfiable constraints: empty solution.
  }
  result.stats.search_seconds = timer.seconds();
  return result;
}

}  // namespace tunespace::solver
