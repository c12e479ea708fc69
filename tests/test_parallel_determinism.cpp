// Determinism + equivalence suite for the parallel backtracking engine.
//
// For randomized (seed-deterministic) synthetic problems, the sequential,
// 1-thread and N-thread constructions must produce the identical solution
// ORDER (not just set) and identical SolveStats node/check totals — the
// parallel decomposition only re-distributes work, it never changes what
// work is done.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>

#include "solver/backtracking_core.hpp"
#include "support/spec_gen.hpp"
#include "tunespace/csp/builtin_constraints.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/expr/function_constraint.hpp"
#include "tunespace/expr/parser.hpp"
#include "tunespace/solver/parallel_backtracking.hpp"
#include "tunespace/solver/solution_iterator.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/spaces/synthetic.hpp"
#include "tunespace/tuner/pipeline.hpp"

using namespace tunespace;
using namespace tunespace::solver;

namespace {

/// Byte-level equality of two solution sets including enumeration order.
void expect_identical(const SolutionSet& a, const SolutionSet& b,
                      const std::string& what) {
  ASSERT_EQ(a.num_vars(), b.num_vars()) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t v = 0; v < a.num_vars(); ++v) {
    EXPECT_EQ(a.column(v), b.column(v)) << what << " column " << v;
  }
}

void expect_same_effort(const SolveStats& a, const SolveStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.constraint_checks, b.constraint_checks) << what;
  EXPECT_EQ(a.fast_checks, b.fast_checks) << what;
  EXPECT_EQ(a.prunes, b.prunes) << what;
}

csp::Problem synthetic_problem(std::size_t dims, std::uint64_t target,
                               std::size_t constraints, std::uint64_t seed) {
  const auto space = spaces::make_synthetic(dims, target, constraints, seed);
  return tuner::build_problem(space.spec, tuner::PipelineOptions::optimized());
}

}  // namespace

// --- Backtracking engine ------------------------------------------------------

class ParallelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalence, BacktrackingIdenticalOrderAndEffort) {
  const std::uint64_t seed = GetParam();
  auto build = [&] { return synthetic_problem(4, 60000, 1 + seed % 5, seed); };

  csp::Problem p_seq = build();
  const auto sequential = OptimizedBacktracking{}.solve(p_seq);
  ASSERT_GT(sequential.solutions.size(), 0u);

  for (std::size_t threads : {1u, 4u, 8u}) {
    csp::Problem p_par = build();
    const auto parallel = ParallelBacktracking(threads).solve(p_par);
    const std::string what =
        "seed " + std::to_string(seed) + " threads " + std::to_string(threads);
    expect_identical(parallel.solutions, sequential.solutions, what);
    expect_same_effort(parallel.stats, sequential.stats, what);
    EXPECT_GE(parallel.stats.parallel_workers, 1u) << what;
    EXPECT_GE(parallel.stats.parallel_tasks, 1u) << what;
  }
}

TEST_P(ParallelEquivalence, SplitDepthDoesNotChangeResults) {
  // The split depth grows with the worker count (~8 tasks per worker), so
  // varying the threads varies the split.
  const std::uint64_t seed = GetParam();
  auto build = [&] { return synthetic_problem(4, 40000, 2, seed); };

  csp::Problem p_seq = build();
  const auto sequential = OptimizedBacktracking{}.solve(p_seq);

  std::set<std::uint64_t> task_counts;
  for (std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    SolverOptions options;
    options.threads = threads;
    csp::Problem p_par = build();
    const auto parallel = ParallelBacktracking(options).solve(p_par);
    const std::string what = "seed " + std::to_string(seed) + " threads " +
                             std::to_string(threads);
    expect_identical(parallel.solutions, sequential.solutions, what);
    expect_same_effort(parallel.stats, sequential.stats, what);
    task_counts.insert(parallel.stats.parallel_tasks);
  }
  EXPECT_GE(task_counts.size(), 2u) << "the split never moved";
}

INSTANTIATE_TEST_SUITE_P(RandomizedProblems, ParallelEquivalence,
                         ::testing::Values(3u, 17u, 42u, 2025u));

// Regression for the old `workers = min(workers, first_domain)` clamp: a
// first search variable with only 2 values must no longer cap the engine at
// 2 workers — prefix splitting exposes the fan-out of deeper levels.
TEST(ParallelBacktrackingSplit, TinyFirstDomainStillUsesManyWorkers) {
  auto build = [] {
    csp::Problem p;
    // Most-constrained-first ordering puts `x` (2 values, 1 constraint)
    // at search position 0.
    p.add_variable("x", csp::Domain::range(1, 2));
    p.add_variable("y", csp::Domain::range(1, 50));
    p.add_variable("z", csp::Domain::range(1, 50));
    p.add_constraint(std::make_unique<csp::MaxSum>(
        51, std::vector<std::string>{"x", "y"}));
    return p;
  };
  csp::Problem p_seq = build();
  const auto sequential = OptimizedBacktracking{}.solve(p_seq);

  csp::Problem p_par = build();
  const auto parallel = ParallelBacktracking(8).solve(p_par);
  expect_identical(parallel.solutions, sequential.solutions, "tiny first domain");
  expect_same_effort(parallel.stats, sequential.stats, "tiny first domain");
  EXPECT_GT(parallel.stats.parallel_workers, 2u);
  EXPECT_GT(parallel.stats.parallel_tasks, 2u);
}

// Deepening regression: a first search variable whose *valid* fan-out is
// tiny (64 domain values, but constraints leave only 2 expandable prefixes)
// must not cap the engine at 2 workers either — the auto split deepens past
// pruned levels until enough valid prefixes exist.
TEST(ParallelBacktrackingSplit, HeavilyPrunedFirstLevelStillSplits) {
  auto build = [] {
    csp::Problem p;
    p.add_variable("x", csp::Domain::range(1, 64));
    p.add_variable("y", csp::Domain::range(1, 50));
    p.add_variable("z", csp::Domain::range(1, 10));
    p.add_constraint(std::make_unique<expr::FunctionConstraint>(
        expr::parse("x <= 2")));
    return p;
  };
  // Preprocessing off keeps x's stored domain at 64 values, so the valid
  // fan-out only becomes visible during expansion — the hard case.
  const OptimizedOptions no_preprocess{false, true, true, true};
  csp::Problem p_seq = build();
  const auto sequential = OptimizedBacktracking(no_preprocess).solve(p_seq);

  SolverOptions options;
  options.threads = 8;
  csp::Problem p_par = build();
  const auto parallel = ParallelBacktracking(options, no_preprocess).solve(p_par);
  expect_identical(parallel.solutions, sequential.solutions, "pruned first level");
  expect_same_effort(parallel.stats, sequential.stats, "pruned first level");
  EXPECT_EQ(parallel.stats.parallel_workers, 8u);
  EXPECT_GT(parallel.stats.parallel_tasks, 2u);
}

TEST(ParallelBacktrackingSplit, SingleVariableProblem) {
  csp::Problem p;
  p.add_variable("x", csp::Domain::range(1, 10));
  const auto result = ParallelBacktracking(8).solve(p);
  EXPECT_EQ(result.solutions.size(), 10u);
  EXPECT_EQ(result.stats.parallel_workers, 1u);
}

namespace {

/// A user constraint that fails loudly on one value of `a`.
class ThrowsOnSeven : public csp::Constraint {
 public:
  ThrowsOnSeven() : Constraint({"a", "b", "c"}) {}
  bool satisfied(const csp::Value* values) const override {
    if (values[indices_[0]].as_int() == 7) throw std::runtime_error("a == 7");
    return true;
  }
  std::string describe() const override { return "throws on a == 7"; }
};

csp::Problem throwing_problem() {
  csp::Problem p;
  for (const char* name : {"a", "b", "c"}) {
    p.add_variable(name, csp::Domain::range(1, 40));
  }
  p.add_constraint(std::make_unique<ThrowsOnSeven>());
  return p;
}

std::string solve_error(const Solver& solver) {
  csp::Problem p = throwing_problem();
  try {
    solver.solve(p);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

}  // namespace

// A constraint that throws inside a worker's subtree must surface from
// solve() as the same exception the sequential solver throws, after every
// worker has stopped — not escape a worker thread and abort the process.
TEST(ParallelBacktrackingSplit, ThrowingConstraintPropagates) {
  ASSERT_EQ(solve_error(OptimizedBacktracking{}), "a == 7");
  for (std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(solve_error(ParallelBacktracking(threads)), "a == 7")
        << "threads " << threads;
  }
}

// --- Factorized enumeration ---------------------------------------------------
// The solvers search each constraint component once and emit the
// unconstrained suffix of the search order as a product.  The streaming
// SolutionIterator still runs the plain search, so it is the reference: the
// factorized rows must equal its rows in order and byte for byte, on every
// engine and thread count.

namespace {

/// What one (spec, options) case exercises of the factorization.
struct Shape {
  bool multi_component = false;   ///< two or more constrained components
  bool free_inside = false;       ///< unconstrained variable before the suffix
  bool mixed_suffix = false;      ///< suffix holds 1-valued and multi-valued vars
  bool empty_component = false;   ///< a component with no solution
};

Shape shape_of(csp::Problem& problem, const OptimizedOptions& options,
               std::size_t rows) {
  SolveStats ignored;
  const detail::SearchPlan plan = detail::build_plan(problem, options, ignored);
  Shape shape;
  if (plan.unsatisfiable) return shape;
  std::vector<unsigned char> constrained(problem.num_variables(), 0);
  for (const auto& c : problem.constraints()) {
    for (std::uint32_t idx : c->indices()) constrained[idx] = 1;
  }
  shape.multi_component = plan.components.size() >= 2;
  for (std::size_t p = 0; p < plan.suffix_begin; ++p) {
    shape.free_inside |= !constrained[plan.order[p]];
  }
  bool single = false, multi = false;
  for (std::size_t p = plan.suffix_begin; p < plan.order.size(); ++p) {
    (plan.domains[plan.order[p]].size() == 1 ? single : multi) = true;
  }
  shape.mixed_suffix = single && multi;
  // Nonempty components have a nonempty product: no rows means one is empty.
  shape.empty_component = shape.multi_component && rows == 0;
  return shape;
}

SolutionSet streamed_rows(csp::Problem& problem, const OptimizedOptions& options) {
  SolutionSet rows(problem);
  SolutionIterator it(problem, options);
  while (auto row = it.next()) rows.append(row->data());
  return rows;
}

/// Check one spec under every preprocess x sort_variables combination.
void expect_factorized_matches_stream(const tuner::TuningProblem& spec,
                                      const std::string& name, Shape& seen) {
  for (const bool preprocess : {false, true}) {
    for (const bool sort : {false, true}) {
      OptimizedOptions options;
      options.preprocess = preprocess;
      options.sort_variables = sort;
      const std::string what = name + (preprocess ? " preprocess" : "") +
                               (sort ? " sort" : "");
      const auto build = [&] {
        return tuner::build_problem(spec, tuner::PipelineOptions::optimized());
      };
      csp::Problem p_seq = build();
      const SolveResult sequential = OptimizedBacktracking(options).solve(p_seq);
      csp::Problem p_ref = build();
      expect_identical(sequential.solutions, streamed_rows(p_ref, options),
                       what + " vs stream");
      for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        csp::Problem p_par = build();
        const SolveResult parallel =
            ParallelBacktracking(threads, options).solve(p_par);
        const std::string where = what + " threads " + std::to_string(threads);
        expect_identical(parallel.solutions, sequential.solutions, where);
        expect_same_effort(parallel.stats, sequential.stats, where);
        EXPECT_EQ(parallel.stats.block_checks, sequential.stats.block_checks) << where;
        EXPECT_EQ(parallel.stats.block_lanes, sequential.stats.block_lanes) << where;
      }
      csp::Problem p_shape = build();
      const Shape shape = shape_of(p_shape, options, sequential.solutions.size());
      seen.multi_component |= shape.multi_component;
      seen.free_inside |= shape.free_inside;
      seen.mixed_suffix |= shape.mixed_suffix;
      seen.empty_component |= shape.empty_component;
    }
  }
}

}  // namespace

TEST(FactorizedEnumeration, RealWorldRowsEqualTheStreamAtEveryThreadCount) {
  Shape seen;
  for (const auto& rw : spaces::all_realworld()) {
    expect_factorized_matches_stream(rw.spec, rw.name, seen);
  }
  EXPECT_TRUE(seen.multi_component);  // Dedispersion and the three PRL sizes
  EXPECT_TRUE(seen.mixed_suffix);
}

TEST(FactorizedEnumeration, GeneratedRowsEqualTheStreamAtEveryThreadCount) {
  Shape seen;
  for (const double density : {0.2, 0.7}) {
    testsupport::SpecGenOptions gen;
    gen.constraint_density = density;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      expect_factorized_matches_stream(
          testsupport::random_spec(seed, gen),
          "density " + std::to_string(density) + " seed " + std::to_string(seed),
          seen);
    }
  }
  // A shape the generator does not draw: the second component has no
  // solution (its search finds that once preprocessing is off).
  tuner::TuningProblem empty("empty-component");
  empty.add_param("a", {1, 2, 4, 8})
      .add_param("b", {1, 2, 4, 8})
      .add_param("c", {1, 2, 3, 4})
      .add_param("d", {1, 2, 3, 4})
      .add_param("e", {1, 2, 3});
  empty.add_constraint("a * b <= 8");
  empty.add_constraint("c + d >= 9");
  expect_factorized_matches_stream(empty, empty.name(), seen);

  // The corpus must reach every branch of the factorization.
  EXPECT_TRUE(seen.multi_component);
  EXPECT_TRUE(seen.free_inside);
  EXPECT_TRUE(seen.empty_component);
}

// The single-component Table 2 spaces search exactly as before the
// factorization: their effort counters are pinned to the values of the
// plain search (the unconstrained suffix is charged as if searched).
TEST(FactorizedEnumeration, SingleComponentCountersArePinned) {
  struct Pinned {
    spaces::RealWorldSpace space;
    std::uint64_t rows, nodes, checks, prunes, block_checks;
  };
  const Pinned pinned[] = {
      {spaces::expdist(), 343872, 423296, 11344, 77, 1715},
      {spaces::hotspot(), 389208, 561144, 93441, 3, 27867},
      {spaces::gemm(), 107404, 887834, 244375, 0, 68839},
      {spaces::microhh(), 110534, 935494, 456078, 480, 134664},
  };
  const char* block_env = std::getenv("TUNESPACE_BLOCK_EVAL");
  const bool block = !(block_env && std::string(block_env) == "0");
  for (const Pinned& want : pinned) {
    csp::Problem p =
        tuner::build_problem(want.space.spec, tuner::PipelineOptions::optimized());
    const SolveResult result = OptimizedBacktracking{}.solve(p);
    const SolveStats& stats = result.stats;
    const std::string& what = want.space.name;
    EXPECT_EQ(result.solutions.size(), want.rows) << what;
    EXPECT_EQ(stats.nodes, want.nodes) << what;
    EXPECT_EQ(stats.constraint_checks, want.checks) << what;
    EXPECT_EQ(stats.fast_checks, want.checks) << what;  // every check is int64
    EXPECT_EQ(stats.prunes, want.prunes) << what;
    EXPECT_EQ(stats.block_checks, block ? want.block_checks : 0) << what;
    EXPECT_EQ(stats.block_lanes, block ? want.checks : 0) << what;
  }
}

// --- SolutionSet sharding primitives ------------------------------------------

TEST(SolutionSetRange, AppendRangeStitchesSegments) {
  SolutionSet shard(2);
  for (std::uint32_t i = 0; i < 6; ++i) {
    std::uint32_t row[] = {i, i + 10};
    shard.append(row);
  }
  SolutionSet merged(2);
  merged.append_range(shard, 4, 2);  // rows 4,5
  merged.append_range(shard, 0, 2);  // rows 0,1
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.index_row(0), (std::vector<std::uint32_t>{4, 14}));
  EXPECT_EQ(merged.index_row(3), (std::vector<std::uint32_t>{1, 11}));
}
