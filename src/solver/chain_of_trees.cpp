#include "tunespace/solver/chain_of_trees.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "tunespace/util/timer.hpp"

namespace tunespace::solver {

using csp::Constraint;
using csp::Value;

namespace {

/// Minimal union-find over variable indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// One tree node: a chosen value index plus valid child subtrees.
struct TreeNode {
  std::uint32_t value_idx = 0;
  std::vector<TreeNode> children;
};

struct GroupBuild {
  std::vector<std::size_t> vars;                    // declaration order
  std::vector<std::vector<const Constraint*>> check_at;       // boxed tier
  std::vector<std::vector<const Constraint*>> check_fast_at;  // int64 tier
  std::vector<TreeNode> roots;
  std::vector<std::vector<std::uint32_t>> combos;   // enumerated leaves
};

/// Mutable state of one construction: the partial assignment, the effort
/// counters and the pyATF-mode dictionary sink.
struct BuildCtx {
  explicit BuildCtx(std::size_t n)
      : values(n), int_values(n, 0), assigned(n, 0) {}
  std::vector<Value> values;
  std::vector<std::int64_t> int_values;
  std::vector<unsigned char> assigned;
  std::uint64_t nodes = 0, checks = 0, fast_checks = 0;
  // pyATF-mode sink: the most recent name-keyed configuration dictionary.
  // A *fresh* dictionary is allocated per visited node / emitted solution,
  // matching the Python implementation's per-node dict objects.
  std::unordered_map<std::string, Value> py_config;
};

}  // namespace

std::vector<std::vector<std::size_t>> ChainOfTrees::interdependence_groups(
    const csp::Problem& problem) {
  const std::size_t n = problem.num_variables();
  UnionFind uf(n);
  for (const auto& c : problem.constraints()) {
    const auto& idx = c->indices();
    for (std::size_t i = 1; i < idx.size(); ++i) uf.unite(idx[0], idx[i]);
  }
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::ptrdiff_t> group_of(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t root = uf.find(v);
    if (group_of[root] < 0) {
      group_of[root] = static_cast<std::ptrdiff_t>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(group_of[root])].push_back(v);
  }
  return groups;
}

SolveResult ChainOfTrees::solve(csp::Problem& problem) const {
  SolveResult result;
  const std::size_t n = problem.num_variables();
  result.solutions = SolutionSet(problem);
  util::WallTimer timer;
  for (const auto& d : problem.domains()) {
    if (d.empty()) return result;
  }

  // --- Group parameters by constraint interdependence ----------------------
  auto groups_vars = interdependence_groups(problem);
  std::vector<std::size_t> group_of(n), pos_in_group(n);
  for (std::size_t g = 0; g < groups_vars.size(); ++g) {
    for (std::size_t p = 0; p < groups_vars[g].size(); ++p) {
      group_of[groups_vars[g][p]] = g;
      pos_in_group[groups_vars[g][p]] = p;
    }
  }

  std::vector<GroupBuild> groups(groups_vars.size());
  for (std::size_t g = 0; g < groups_vars.size(); ++g) {
    groups[g].vars = std::move(groups_vars[g]);
    groups[g].check_at.resize(groups[g].vars.size());
    groups[g].check_fast_at.resize(groups[g].vars.size());
  }

  // Int64 mirror of the int-only domains; the pyATF-overhead mode keeps the
  // fully boxed data flow it is modelling.
  const bool fast_enabled = !interpreter_overhead_;
  std::vector<unsigned char> var_is_int(n, 0);
  std::vector<std::vector<std::int64_t>> int_dom(n);
  if (fast_enabled) {
    for (std::size_t v = 0; v < n; ++v) {
      if (problem.domain(v).int_mirror(int_dom[v])) var_is_int[v] = 1;
    }
  }

  // Assign each constraint to the depth where its scope completes within its
  // group (all scope variables share one group by construction), partitioned
  // into the int64 fast tier and the boxed tier.  Boxed Values are only
  // materialized for variables the boxed tier (or the pyATF-overhead data
  // flow) actually reads, mirroring the backtracking engine's var_needs_boxed.
  std::vector<unsigned char> needs_boxed(n, interpreter_overhead_ ? 1 : 0);
  bool unsatisfiable_constant = false;
  for (const auto& c : problem.constraints()) {
    if (c->indices().empty()) {
      Value dummy;
      if (!c->satisfied(&dummy)) unsatisfiable_constant = true;
      continue;
    }
    const std::size_t g = group_of[c->indices()[0]];
    std::size_t depth = 0;
    for (std::uint32_t idx : c->indices()) depth = std::max(depth, pos_in_group[idx]);
    bool fast = false;
    if (fast_enabled) {
      std::vector<const csp::Domain*> scope_domains;
      scope_domains.reserve(c->indices().size());
      for (std::uint32_t idx : c->indices()) {
        scope_domains.push_back(&problem.domain(idx));
      }
      // try_specialize's contract requires prepare() first (specializations
      // may consume prepared bounds, as consistent_fast does).
      c->prepare(scope_domains);
      fast = c->try_specialize(scope_domains);
    }
    if (!fast) {
      for (std::uint32_t idx : c->indices()) needs_boxed[idx] = 1;
    }
    (fast ? groups[g].check_fast_at : groups[g].check_at)[depth].push_back(c.get());
  }
  result.stats.preprocess_seconds = timer.seconds();
  if (unsatisfiable_constant) return result;

  // --- Build one tree per group ---------------------------------------------
  timer.reset();

  BuildCtx ctx(n);
  // Recursive lambda building (and validating) the node for value `vi` of
  // position `depth`; returns false when the node fails its checks or has no
  // valid completion below.
  auto build_node = [&](auto&& self, const GroupBuild& group, std::size_t depth,
                        std::uint32_t vi, TreeNode& out) -> bool {
    const std::size_t var = group.vars[depth];
    const csp::Domain& dom = problem.domain(var);
    if (needs_boxed[var]) ctx.values[var] = dom[vi];
    if (var_is_int[var]) ctx.int_values[var] = int_dom[var][vi];
    ctx.assigned[var] = 1;
    ++ctx.nodes;
    if (interpreter_overhead_) {
      // Model the Python data flow: materialize the partial configuration
      // as a fresh name->value dictionary object for this node.
      std::unordered_map<std::string, Value> node_config;
      for (std::size_t dd = 0; dd <= depth; ++dd) {
        node_config[problem.name(group.vars[dd])] = ctx.values[group.vars[dd]];
      }
      ctx.py_config = std::move(node_config);
    }
    bool ok = true;
    for (const Constraint* c : group.check_fast_at[depth]) {
      ++ctx.checks;
      ++ctx.fast_checks;
      if (!c->satisfied_fast(ctx.int_values.data())) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (const Constraint* c : group.check_at[depth]) {
        ++ctx.checks;
        if (!c->satisfied(ctx.values.data())) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) {
      ctx.assigned[var] = 0;
      return false;
    }
    out.value_idx = vi;
    if (depth + 1 < group.vars.size()) {
      const csp::Domain& child_dom = problem.domain(group.vars[depth + 1]);
      for (std::uint32_t ci = 0; ci < child_dom.size(); ++ci) {
        TreeNode child;
        if (self(self, group, depth + 1, ci, child)) {
          out.children.push_back(std::move(child));
        }
      }
      if (out.children.empty()) {
        // No valid completion below: the node is not part of the tree.
        ctx.assigned[var] = 0;
        return false;
      }
    }
    ctx.assigned[var] = 0;
    return true;
  };

  for (GroupBuild& group : groups) {
    const csp::Domain& dom = problem.domain(group.vars[0]);
    for (std::uint32_t vi = 0; vi < dom.size(); ++vi) {
      TreeNode node;
      if (build_node(build_node, group, 0, vi, node)) {
        group.roots.push_back(std::move(node));
      }
    }
    if (group.roots.empty()) {
      // One empty group empties the whole chain.
      result.stats.nodes = ctx.nodes;
      result.stats.constraint_checks = ctx.checks;
      result.stats.fast_checks = ctx.fast_checks;
      result.stats.search_seconds = timer.seconds();
      return result;
    }
  }

  // --- Enumerate each tree's leaves into per-group combination lists -------
  for (GroupBuild& group : groups) {
    std::vector<std::uint32_t> path(group.vars.size());
    auto walk = [&](auto&& self, const std::vector<TreeNode>& level,
                    std::size_t depth) -> void {
      for (const TreeNode& node : level) {
        path[depth] = node.value_idx;
        if (depth + 1 == group.vars.size()) {
          group.combos.push_back(path);
        } else {
          self(self, node.children, depth + 1);
        }
      }
    };
    walk(walk, group.roots, 0);
  }

  // --- Link the chain: cross product of per-group combinations -------------
  // An odometer over the per-group picks; the last group cycles fastest.
  std::uint64_t total = 1;
  for (const GroupBuild& group : groups) total *= group.combos.size();
  std::vector<std::size_t> pick(groups.size(), 0);
  std::vector<std::uint32_t> row(n);
  RowBlock block(result.solutions);
  for (std::uint64_t i = 0; i < total; ++i) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& combo = groups[g].combos[pick[g]];
      for (std::size_t p = 0; p < groups[g].vars.size(); ++p) {
        row[groups[g].vars[p]] = combo[p];
      }
    }
    if (interpreter_overhead_) {
      // pyATF yields each configuration as a freshly-allocated dictionary.
      std::unordered_map<std::string, Value> solution_config;
      for (std::size_t v = 0; v < n; ++v) {
        solution_config[problem.name(v)] = problem.domain(v)[row[v]];
      }
      ctx.py_config = std::move(solution_config);
    }
    block.push(row.data());
    for (std::size_t g = groups.size(); g-- > 0;) {
      if (++pick[g] < groups[g].combos.size()) break;
      pick[g] = 0;
    }
  }
  block.flush();
  result.stats.nodes = ctx.nodes;
  result.stats.constraint_checks = ctx.checks;
  result.stats.fast_checks = ctx.fast_checks;
  result.stats.search_seconds = timer.seconds();
  return result;
}

}  // namespace tunespace::solver
