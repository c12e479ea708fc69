#include "backtracking_core.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "tunespace/solver/chain_of_trees.hpp"

namespace tunespace::solver::detail {

using csp::Constraint;
using csp::Domain;
using csp::Value;

namespace {

/// Run constraint preprocessing over copied domains until fixpoint (bounded
/// by a small iteration cap; rounds only shrink domains, so the cap bounds
/// wasted work, not correctness).  Returns false on proven unsatisfiability.
bool preprocess_domains(csp::Problem& problem, std::vector<Domain>& domains,
                        SolveStats& stats) {
  constexpr int kMaxRounds = 8;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (const auto& c : problem.constraints()) {
      std::vector<Domain*> scope_domains;
      scope_domains.reserve(c->indices().size());
      std::size_t before = 0;
      for (std::uint32_t idx : c->indices()) {
        scope_domains.push_back(&domains[idx]);
        before += domains[idx].size();
      }
      if (!c->preprocess(scope_domains)) return false;
      std::size_t after = 0;
      for (Domain* d : scope_domains) after += d->size();
      if (after < before) {
        changed = true;
        stats.prunes += before - after;
      }
      for (Domain* d : scope_domains) {
        if (d->empty()) return false;
      }
    }
    if (!changed) break;
  }
  return true;
}

}  // namespace

SearchPlan build_plan(csp::Problem& problem, const OptimizedOptions& options,
                      SolveStats& stats) {
  SearchPlan plan;
  const std::size_t n = problem.num_variables();

  plan.domains = problem.domains();
  if (options.preprocess) {
    if (!preprocess_domains(problem, plan.domains, stats)) {
      plan.unsatisfiable = true;
      return plan;
    }
  }
  for (const Domain& d : plan.domains) {
    if (d.empty()) {
      plan.unsatisfiable = true;
      return plan;
    }
  }

  // Map preprocessed value positions back to original domain indices so the
  // emitted rows are canonical regardless of pruning.
  plan.orig_index.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    plan.orig_index[v].reserve(plan.domains[v].size());
    for (const Value& val : plan.domains[v].values()) {
      plan.orig_index[v].push_back(
          static_cast<std::uint32_t>(problem.domain(v).index_of(val)));
    }
  }

  // Variable ordering: most-constrained first, sorted once (§4.3.1).
  plan.order.resize(n);
  std::iota(plan.order.begin(), plan.order.end(), 0);
  if (options.sort_variables) {
    const std::vector<std::size_t> counts = problem.constraint_counts();
    std::stable_sort(plan.order.begin(), plan.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (counts[a] != counts[b]) return counts[a] > counts[b];
                       return plan.domains[a].size() < plan.domains[b].size();
                     });
  }
  plan.pos_of.resize(n);
  for (std::size_t p = 0; p < n; ++p) plan.pos_of[plan.order[p]] = p;

  // Dense int64 mirror of every int-only domain, so fast-path constraints
  // never touch a boxed Value during search.  Skipped entirely when the fast
  // path is disabled, so ablation baselines pay no bookkeeping for it.
  plan.var_is_int.assign(n, 0);
  plan.int_values.resize(n);
  if (options.int_fast_path) {
    for (std::size_t v = 0; v < n; ++v) {
      if (plan.domains[v].int_mirror(plan.int_values[v])) plan.var_is_int[v] = 1;
    }
  }

  // Constraint dispatch tables: full check at the scope variable that comes
  // last in the search order, partial checks at every other scope variable
  // (§4.3.1/§4.3.2).  Each table is partitioned into an int64 fast tier and
  // a boxed tier.
  plan.full_at.resize(n);
  plan.partial_at.resize(n);
  plan.full_fast_at.resize(n);
  plan.partial_fast_at.resize(n);
  plan.var_needs_boxed.assign(n, 0);
  for (const auto& c : problem.constraints()) {
    std::vector<const Domain*> scope_domains;
    scope_domains.reserve(c->indices().size());
    for (std::uint32_t idx : c->indices()) {
      scope_domains.push_back(&plan.domains[idx]);
    }
    c->prepare(scope_domains);

    if (c->indices().empty()) {
      Value dummy;
      if (!c->satisfied(&dummy)) plan.unsatisfiable = true;
      continue;
    }
    const bool fast = options.int_fast_path && c->try_specialize(scope_domains);
    if (!fast) {
      for (std::uint32_t idx : c->indices()) plan.var_needs_boxed[idx] = 1;
    }
    std::size_t last = c->indices()[0];
    for (std::uint32_t idx : c->indices()) {
      if (plan.pos_of[idx] > plan.pos_of[last]) last = idx;
    }
    (fast ? plan.full_fast_at : plan.full_at)[last].push_back(c.get());
    if (options.partial_checks && c->prunes_partial()) {
      for (std::uint32_t idx : c->indices()) {
        if (idx != last) {
          (fast ? plan.partial_fast_at : plan.partial_at)[idx].push_back(c.get());
        }
      }
    }
  }

  // Block tier: variables with an int mirror and at least one specialized
  // constraint sweep whole lane groups of candidates per dispatch.
  // TUNESPACE_BLOCK_EVAL=0 forces the scalar path at runtime (CI's
  // differential legs and ablation-style experiments use this).
  const char* block_env = std::getenv("TUNESPACE_BLOCK_EVAL");
  const bool block_enabled =
      options.int_fast_path && options.block_eval &&
      !(block_env && block_env[0] == '0' && block_env[1] == '\0');
  plan.block_at.assign(n, 0);
  if (block_enabled) {
    for (std::size_t v = 0; v < n; ++v) {
      plan.block_at[v] = plan.var_is_int[v] && (!plan.full_fast_at[v].empty() ||
                                                !plan.partial_fast_at[v].empty());
    }
  }

  // Factorization: the unconstrained suffix of the order, then the
  // components before it (ChainOfTrees' interdependence groups), kept only
  // when two or more of them are constrained.
  std::vector<unsigned char> constrained(n, 0);
  for (const auto& c : problem.constraints()) {
    for (std::uint32_t idx : c->indices()) constrained[idx] = 1;
  }
  plan.suffix_begin = n;
  while (plan.suffix_begin > 0 && !constrained[plan.order[plan.suffix_begin - 1]]) {
    --plan.suffix_begin;
  }
  std::vector<std::vector<std::size_t>> groups =
      ChainOfTrees::interdependence_groups(problem);
  // A group of two or more variables is constrained throughout; a single
  // variable is constrained when some constraint reads it alone.
  const auto constrained_groups = std::count_if(
      groups.begin(), groups.end(),
      [&](const std::vector<std::size_t>& g) { return constrained[g[0]] != 0; });
  if (constrained_groups >= 2) {
    const auto by_position = [&](std::size_t a, std::size_t b) {
      return plan.pos_of[a] < plan.pos_of[b];
    };
    for (std::vector<std::size_t>& g : groups) {
      if (plan.pos_of[g[0]] >= plan.suffix_begin) continue;
      std::sort(g.begin(), g.end(), by_position);
      plan.components.push_back(std::move(g));
    }
    std::sort(plan.components.begin(), plan.components.end(),
              [&](const auto& a, const auto& b) { return by_position(a[0], b[0]); });
  }
  return plan;
}

BacktrackingEngine::BacktrackingEngine(const SearchPlan& plan,
                                       const std::vector<std::size_t>& order,
                                       std::size_t emit_depth)
    : plan_(&plan), order_(&order) {
  init_state(emit_depth);
  if (order.empty() || plan.unsatisfiable || emit_depth_ == 0) exhausted_ = true;
}

BacktrackingEngine::BacktrackingEngine(const SearchPlan& plan, PrefixSeed seed,
                                       std::size_t emit_depth)
    : plan_(&plan), order_(&plan.order), base_(seed.length) {
  init_state(emit_depth);
  if (plan.order.empty() || plan.unsatisfiable || base_ >= emit_depth_) {
    exhausted_ = true;
    return;
  }
  for (std::size_t q = 0; q < base_; ++q) {
    const std::size_t var = plan.order[q];
    const std::uint32_t vi = seed.values[q];
    if (plan.var_is_int[var]) int_values_[var] = plan.int_values[var][vi];
    if (plan.var_needs_boxed[var]) values_[var] = plan.domains[var][vi];
    assigned_[var] = 1;
    row_[var] = plan.orig_index[var][vi];
    value_idx_[q] = vi + 1;  // keep the chosen_index invariant for seeds too
  }
  p_ = base_;
}

void BacktrackingEngine::init_state(std::size_t emit_depth) {
  const std::size_t vars = plan_->order.size();
  const std::size_t levels = order_->size();
  emit_depth_ = std::min(emit_depth, levels);
  values_.resize(vars);
  int_values_.assign(vars, 0);
  assigned_.assign(vars, 0);
  row_.resize(vars);
  value_idx_.assign(levels, 0);
  chunk_begin_.assign(levels, kNoChunk);
  chunk_mask_.assign(levels * kBlockLanes, 0);
}

void BacktrackingEngine::add_effort(SolveStats& stats) const {
  stats.nodes += nodes_;
  stats.constraint_checks += checks_;
  stats.fast_checks += fast_checks_;
  stats.prunes += prunes_;
  stats.block_checks += block_checks_;
  stats.block_lanes += block_lanes_;
}

bool BacktrackingEngine::next() {
  if (exhausted_) return false;
  const SearchPlan& plan = *plan_;

  const std::vector<std::size_t>& order = *order_;

  while (true) {
    const std::size_t var = order[p_];
    const Domain& dom = plan.domains[var];
    const std::size_t limit = dom.size();
    const bool blocked = plan.block_at[var] != 0;
    bool descended = false;
    while (value_idx_[p_] < limit) {
      const std::size_t vi = value_idx_[p_]++;
      assigned_[var] = 1;
      ++nodes_;
      bool ok = true;
      if (blocked) {
        // Block tier: the lane-group verdicts for this position are computed
        // once per kBlockLanes candidates and consumed from the cached mask.
        // The mask stays valid for the whole sweep of this position (the
        // assignment above p_ cannot change without descending back into it,
        // which invalidates the chunk).
        if (chunk_begin_[p_] == kNoChunk || vi < chunk_begin_[p_] ||
            vi - chunk_begin_[p_] >= kBlockLanes) {
          compute_chunk(p_, vi, limit);
        }
        ok = chunk_mask_[p_ * kBlockLanes + (vi - chunk_begin_[p_])] != 0;
        if (ok) {
          // compute_chunk() used the assignment slots as lane scratch;
          // rewrite them with this candidate for the descent below.
          int_values_[var] = plan.int_values[var][vi];
          if (plan.var_needs_boxed[var]) values_[var] = dom[vi];
        }
      } else {
        if (plan.var_is_int[var]) int_values_[var] = plan.int_values[var][vi];
        // Boxed Values are only materialized for variables the boxed tier
        // actually reads; all-integer problems skip this copy entirely.
        if (plan.var_needs_boxed[var]) values_[var] = dom[vi];
        for (const Constraint* c : plan.full_fast_at[var]) {
          ++checks_;
          ++fast_checks_;
          if (!c->satisfied_fast(int_values_.data())) {
            ok = false;
            break;
          }
        }
        if (ok) {
          for (const Constraint* c : plan.full_at[var]) {
            ++checks_;
            if (!c->satisfied(values_.data())) {
              ok = false;
              break;
            }
          }
        }
        if (ok) {
          for (const Constraint* c : plan.partial_fast_at[var]) {
            ++checks_;
            ++fast_checks_;
            if (!c->consistent_fast(int_values_.data(), assigned_.data())) {
              ok = false;
              ++prunes_;
              break;
            }
          }
        }
        if (ok) {
          for (const Constraint* c : plan.partial_at[var]) {
            ++checks_;
            if (!c->consistent(values_.data(), assigned_.data())) {
              ok = false;
              ++prunes_;
              break;
            }
          }
        }
      }
      if (!ok) {
        assigned_[var] = 0;
        continue;
      }
      row_[var] = plan.orig_index[var][vi];
      if (p_ + 1 == emit_depth_) {
        assigned_[var] = 0;
        return true;  // resume at this position on the next call
      }
      ++p_;
      value_idx_[p_] = 0;
      chunk_begin_[p_] = kNoChunk;  // new parent assignment: stale lane masks
      descended = true;
      break;
    }
    if (descended) continue;
    assigned_[var] = 0;
    if (p_ == base_) {
      exhausted_ = true;
      return false;
    }
    --p_;
    assigned_[order[p_]] = 0;
  }
}

void BacktrackingEngine::compute_chunk(std::size_t p, std::size_t vi0,
                                       std::size_t limit) {
  const SearchPlan& plan = *plan_;
  const std::size_t var = (*order_)[p];
  const std::size_t m = std::min(kBlockLanes, limit - vi0);
  unsigned char* mask = &chunk_mask_[p * kBlockLanes];
  for (std::size_t i = 0; i < kBlockLanes; ++i) mask[i] = i < m ? 1 : 0;
  chunk_begin_[p] = vi0;
  const std::int64_t* cand = plan.int_values[var].data() + vi0;

  const auto alive = [&]() {
    std::uint64_t a = 0;
    for (std::size_t i = 0; i < m; ++i) a += mask[i] != 0;
    return a;
  };

  // Tier order and effort accounting mirror the scalar sweep per candidate:
  // a lane is charged one check per constraint it is still alive for, full
  // tiers run before partial tiers, and a lane killed by a constraint is
  // never charged for the ones after it.
  for (const Constraint* c : plan.full_fast_at[var]) {
    const std::uint64_t a = alive();
    if (a == 0) return;
    checks_ += a;
    fast_checks_ += a;
    ++block_checks_;
    block_lanes_ += a;
    c->satisfied_block(int_values_.data(), static_cast<std::uint32_t>(var),
                       cand, m, mask);
  }
  if (!plan.full_at[var].empty()) {
    for (std::size_t i = 0; i < m; ++i) {
      if (!mask[i]) continue;
      values_[var] = plan.domains[var][vi0 + i];
      for (const Constraint* c : plan.full_at[var]) {
        ++checks_;
        if (!c->satisfied(values_.data())) {
          mask[i] = 0;
          break;
        }
      }
    }
  }
  for (const Constraint* c : plan.partial_fast_at[var]) {
    const std::uint64_t before = alive();
    if (before == 0) return;
    checks_ += before;
    fast_checks_ += before;
    ++block_checks_;
    block_lanes_ += before;
    c->consistent_block(int_values_.data(), assigned_.data(),
                        static_cast<std::uint32_t>(var), cand, m, mask);
    prunes_ += before - alive();
  }
  if (!plan.partial_at[var].empty()) {
    for (std::size_t i = 0; i < m; ++i) {
      if (!mask[i]) continue;
      values_[var] = plan.domains[var][vi0 + i];
      for (const Constraint* c : plan.partial_at[var]) {
        ++checks_;
        if (!c->consistent(values_.data(), assigned_.data())) {
          mask[i] = 0;
          ++prunes_;
          break;
        }
      }
    }
  }
}

SuffixProduct::SuffixProduct(const SearchPlan& plan, std::size_t from,
                             std::size_t to)
    : plan_(&plan), from_(from), to_(to) {
  for (std::size_t p = to; p-- > from;) {
    nodes_ = plan.domains[plan.order[p]].size() * (1 + nodes_);
  }
  for (std::size_t p = from; p < to; ++p) {
    const std::size_t var = plan.order[p];
    const std::vector<std::uint32_t>& values = plan.orig_index[var];
    if (values.size() < 2) continue;
    vars_.push_back(var);
    values_.push_back(values.data());
    sizes_.push_back(static_cast<std::uint32_t>(values.size()));
  }
  idx_.assign(vars_.size(), 0);
}

void SuffixProduct::start(std::uint32_t* row) const {
  for (std::size_t p = from_; p < to_; ++p) {
    const std::size_t var = plan_->order[p];
    row[var] = plan_->orig_index[var][0];
  }
}

bool search_components(const SearchPlan& plan, std::vector<ComponentRows>& rows,
                       SolveStats& stats) {
  rows.assign(plan.components.size(), ComponentRows{});
  for (std::size_t c = 0; c < plan.components.size(); ++c) {
    const std::vector<std::size_t>& vars = plan.components[c];
    const std::size_t levels = vars.size();
    std::vector<std::vector<std::uint32_t>>& values = rows[c].values;
    values.resize(levels);
    BacktrackingEngine engine(plan, vars);
    while (engine.next()) {
      for (std::size_t l = 0; l < levels; ++l) {
        values[l].push_back(engine.chosen_index(l));
      }
    }
    engine.add_effort(stats);
    const std::size_t count = rows[c].size();
    if (count == 0) return false;

    // Runs are compared on pruned value indices, so two values that map to
    // one original index stay two rows, as in the search; the values are
    // mapped to original indices afterwards.
    std::vector<std::vector<std::uint32_t>>& run_end = rows[c].run_end;
    run_end.assign(levels, std::vector<std::uint32_t>(count));
    for (std::size_t i = count; i-- > 0;) {
      std::size_t diff = 0;  // first level where rows i and i + 1 differ
      if (i + 1 < count) {
        while (diff < levels && values[diff][i] == values[diff][i + 1]) ++diff;
      }
      for (std::size_t l = 0; l < levels; ++l) {
        run_end[l][i] = l < diff ? run_end[l][i + 1] : static_cast<std::uint32_t>(i + 1);
      }
    }
    for (std::size_t l = 0; l < levels; ++l) {
      for (std::uint32_t& v : values[l]) v = plan.orig_index[vars[l]][v];
    }
  }
  return true;
}

ComponentWalk::ComponentWalk(const SearchPlan& plan,
                             const std::vector<ComponentRows>& rows)
    : levels_(plan.suffix_begin),
      cur_(plan.suffix_begin, 0),
      lim_(plan.suffix_begin, 0) {
  for (std::size_t c = 0; c < plan.components.size(); ++c) {
    const std::vector<std::size_t>& vars = plan.components[c];
    for (std::size_t l = 0; l < vars.size(); ++l) {
      levels_[plan.pos_of[vars[l]]] =
          Level{rows[c].values[l].data(), rows[c].run_end[l].data(),
                static_cast<std::uint32_t>(rows[c].size()), vars[l],
                l == 0 ? kNone : plan.pos_of[vars[l - 1]]};
    }
  }
}

void ComponentWalk::seed(const std::uint32_t* cursors, std::size_t length,
                         std::uint32_t* row) {
  for (std::size_t q = 0; q < length; ++q) {
    cur_[q] = cursors[q];
    row[levels_[q].var] = levels_[q].values[cur_[q]];
  }
}

void enumerate(const SearchPlan& plan, const std::vector<ComponentRows>& components,
               BacktrackingEngine::PrefixSeed prefix, RowBlock& out,
               SolveStats& stats) {
  const std::size_t n = plan.order.size();
  const std::size_t t = plan.suffix_begin;
  if (prefix.length >= t) {
    // Nothing constrained below the prefix: its rows are one product.
    std::vector<std::uint32_t> row(n);
    for (std::size_t q = 0; q < prefix.length; ++q) {
      row[plan.order[q]] = prefix.values[q];
    }
    SuffixProduct below(plan, prefix.length, n);
    below.start(row.data());
    below.for_each(row.data(), [&] { out.push(row.data()); });
    stats.nodes += below.nodes();
    return;
  }
  SuffixProduct suffix(plan, t, n);
  const auto emit = [&](std::uint32_t* row) {
    suffix.for_each(row, [&] { out.push(row); });
    stats.nodes += suffix.nodes();
  };
  if (!plan.components.empty()) {
    std::vector<std::uint32_t> row(n);
    suffix.start(row.data());
    ComponentWalk walk(plan, components);
    walk.seed(prefix.values, prefix.length, row.data());
    walk.run(prefix.length, t, row.data(), [&] { emit(row.data()); });
    return;
  }
  BacktrackingEngine engine(plan, prefix, t);
  std::uint32_t* row = engine.row().data();
  suffix.start(row);
  while (engine.next()) emit(row);
  engine.add_effort(stats);
}

void expand_prefixes(const SearchPlan& plan,
                     const std::vector<ComponentRows>& components, std::size_t depth,
                     std::vector<std::uint32_t>& prefixes, SolveStats& stats) {
  const std::size_t t = plan.suffix_begin;
  if (plan.components.empty()) {
    BacktrackingEngine expander(plan, plan.order, depth);
    while (expander.next()) {
      for (std::size_t q = 0; q < depth; ++q) {
        prefixes.push_back(depth >= t ? expander.row()[plan.order[q]]
                                      : expander.chosen_index(q));
      }
    }
    expander.add_effort(stats);
    return;
  }
  std::vector<std::uint32_t> row(plan.order.size());
  ComponentWalk walk(plan, components);
  if (depth < t) {
    walk.run(0, depth, row.data(), [&] {
      for (std::size_t q = 0; q < depth; ++q) prefixes.push_back(walk.cursor(q));
    });
    return;
  }
  // Split inside the suffix: every walk row fans out over positions
  // [t, depth), charged as the search visits them.
  SuffixProduct above(plan, t, depth);
  above.start(row.data());
  walk.run(0, t, row.data(), [&] {
    above.for_each(row.data(), [&] {
      for (std::size_t q = 0; q < depth; ++q) prefixes.push_back(row[plan.order[q]]);
    });
    stats.nodes += above.nodes();
  });
}

}  // namespace tunespace::solver::detail
