// Tests for the extension features: ternary conditional expressions, native
// lambda constraints (KTT-style API), the lazy solution iterator, the
// parallel solver, differential evolution, and CSV serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "tunespace/csp/builtin_constraints.hpp"
#include "tunespace/csp/lambda_constraint.hpp"
#include "tunespace/expr/compiler.hpp"
#include "tunespace/expr/interpreter.hpp"
#include "tunespace/expr/parser.hpp"
#include "tunespace/expr/recognizer.hpp"
#include "tunespace/searchspace/io.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/solver/parallel_backtracking.hpp"
#include "tunespace/solver/solution_iterator.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/tuner/runner.hpp"
#include "tunespace/tuner/session.hpp"

using namespace tunespace;
using csp::Value;

// --- Ternary conditional expressions -----------------------------------------

namespace {
Value ev(const std::string& src,
         const std::unordered_map<std::string, Value>& vars = {}) {
  return expr::eval(*expr::parse(src), expr::map_env(vars));
}
}  // namespace

TEST(Ternary, InterpreterSemantics) {
  EXPECT_EQ(ev("1 if True else 2"), Value(1));
  EXPECT_EQ(ev("1 if False else 2"), Value(2));
  EXPECT_EQ(ev("10 if 3 > 2 else 20"), Value(10));
}

TEST(Ternary, OnlyTakenBranchEvaluates) {
  EXPECT_EQ(ev("1 if True else 1 / 0"), Value(1));
  EXPECT_EQ(ev("1 / 0 if False else 2"), Value(2));
}

TEST(Ternary, LowestPrecedenceAndRightAssociativity) {
  // a or b if c else d parses as (a or b) if c else d
  EXPECT_EQ(ev("0 or 5 if False else 7"), Value(7));
  // nested: x if a else y if b else z == x if a else (y if b else z)
  EXPECT_EQ(ev("1 if False else 2 if False else 3"), Value(3));
}

TEST(Ternary, RoundTrip) {
  const auto a = expr::parse("x * 2 if x > 4 else x + 1");
  const auto b = expr::parse(a->to_string());
  EXPECT_TRUE(a->equals(*b));
}

TEST(Ternary, CompiledMatchesInterpreter) {
  const auto ast = expr::parse("a * 2 if a > b else b - a");
  const expr::Program prog = expr::compile(ast);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      std::unordered_map<std::string, Value> vars{{"a", Value(a)}, {"b", Value(b)}};
      const Value expected = expr::eval(*ast, expr::map_env(vars));
      std::vector<Value> values;
      std::vector<std::uint32_t> slots;
      for (const auto& name : prog.var_names()) {
        slots.push_back(static_cast<std::uint32_t>(values.size()));
        values.push_back(vars.at(name));
      }
      EXPECT_EQ(expected, prog.run(values.data(), slots.data()));
    }
  }
}

TEST(Ternary, WorksInConstraintPipeline) {
  // Real-world style: the halo only matters when temporal tiling is on.
  tuner::TuningProblem spec("ternary");
  spec.add_param("ttf", {1, 2, 4}).add_param("bsx", {8, 16, 32});
  spec.add_constraint("(bsx - 2 * ttf if ttf > 1 else bsx) >= 8");
  auto methods = tuner::construction_methods(false);
  auto a = tuner::construct(spec, methods[0]);
  auto b = tuner::construct(spec, methods[3]);  // brute force
  EXPECT_TRUE(a.solutions.same_solutions(b.solutions));
  EXPECT_GT(a.solutions.size(), 0u);
  EXPECT_LT(a.solutions.size(), 9u);
}

// --- Lambda constraints -------------------------------------------------------

TEST(LambdaConstraints, KttStyleApi) {
  tuner::TuningProblem spec("ktt");
  spec.add_param("block_size_x", {16, 32, 64}).add_param("block_size_y", {1, 2, 4, 8});
  // KTT Listing-2 style: native lambdas on a named parameter group.
  spec.add_constraint({"block_size_x", "block_size_y"},
                      [](std::span<const Value> v) {
                        return v[0].as_int() * v[1].as_int() >= 32;
                      },
                      "minWG");
  spec.add_constraint({"block_size_x", "block_size_y"},
                      [](std::span<const Value> v) {
                        return v[0].as_int() * v[1].as_int() <= 128;
                      },
                      "maxWG");
  auto methods = tuner::construction_methods(false);
  auto result = tuner::construct(spec, methods[0]);
  std::size_t expected = 0;
  for (int x : {16, 32, 64}) {
    for (int y : {1, 2, 4, 8}) {
      if (x * y >= 32 && x * y <= 128) ++expected;
    }
  }
  EXPECT_EQ(result.solutions.size(), expected);
}

TEST(LambdaConstraints, MixWithStringConstraints) {
  tuner::TuningProblem spec("mixed");
  spec.add_param("a", {1, 2, 3, 4}).add_param("b", {1, 2, 3, 4});
  spec.add_constraint("a <= b");
  spec.add_constraint({"a", "b"}, [](std::span<const Value> v) {
    return (v[0].as_int() + v[1].as_int()) % 2 == 0;
  });
  auto methods = tuner::construction_methods(false);
  auto a = tuner::construct(spec, methods[0]);
  auto brute = tuner::construct(spec, methods[3]);
  EXPECT_TRUE(a.solutions.same_solutions(brute.solutions));
  for (std::size_t r = 0; r < a.solutions.size(); ++r) {
    auto problem = tuner::build_problem(spec, tuner::PipelineOptions::optimized());
    const auto config = a.solutions.config(r, problem);
    EXPECT_LE(config[0].as_int(), config[1].as_int());
    EXPECT_EQ((config[0].as_int() + config[1].as_int()) % 2, 0);
  }
}

TEST(LambdaConstraints, ThrowingPredicateInvalidates) {
  csp::LambdaConstraint c({"x"}, [](std::span<const Value>) -> bool {
    throw std::runtime_error("boom");
  });
  c.bind({0});
  Value v[] = {Value(1)};
  EXPECT_FALSE(c.satisfied(v));
}

// --- SolutionIterator ---------------------------------------------------------

TEST(SolutionIteratorTest, StreamsAllSolutionsInSolverOrder) {
  auto rw = spaces::dedispersion();
  auto problem = tuner::build_problem(rw.spec, tuner::PipelineOptions::optimized());
  auto reference = solver::OptimizedBacktracking{}.solve(problem);

  auto problem2 = tuner::build_problem(rw.spec, tuner::PipelineOptions::optimized());
  solver::SolutionIterator it(problem2);
  std::size_t i = 0;
  while (auto row = it.next()) {
    ASSERT_LT(i, reference.solutions.size());
    EXPECT_EQ(*row, reference.solutions.index_row(i));
    ++i;
  }
  EXPECT_EQ(i, reference.solutions.size());
  EXPECT_EQ(it.count(), reference.solutions.size());
  EXPECT_EQ(it.next(), nullptr);  // stays exhausted
}

TEST(SolutionIteratorTest, EarlyExitExistenceCheck) {
  auto rw = spaces::atf_prl(4);
  auto problem = tuner::build_problem(rw.spec, tuner::PipelineOptions::optimized());
  solver::SolutionIterator it(problem);
  auto first = it.next_config();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(problem.config_valid(*first));
  EXPECT_EQ(it.count(), 1u);
}

TEST(SolutionIteratorTest, UnsatisfiableYieldsNothing) {
  csp::Problem problem;
  problem.add_variable("x", csp::Domain::range(1, 3));
  problem.add_constraint(std::make_unique<csp::MinSum>(
      100, std::vector<std::string>{"x"}));
  solver::SolutionIterator it(problem);
  EXPECT_EQ(it.next(), nullptr);
}

// --- ParallelBacktracking -----------------------------------------------------

class ParallelSolver : public ::testing::TestWithParam<int> {};

TEST_P(ParallelSolver, MatchesSequentialExactlyIncludingOrder) {
  const std::size_t threads = static_cast<std::size_t>(GetParam());
  for (const auto& rw : {spaces::dedispersion(), spaces::gemm(), spaces::atf_prl(2)}) {
    auto p1 = tuner::build_problem(rw.spec, tuner::PipelineOptions::optimized());
    auto sequential = solver::OptimizedBacktracking{}.solve(p1);
    auto p2 = tuner::build_problem(rw.spec, tuner::PipelineOptions::optimized());
    auto parallel = solver::ParallelBacktracking(threads).solve(p2);
    ASSERT_EQ(parallel.solutions.size(), sequential.solutions.size()) << rw.name;
    // Chunk-ordered concatenation preserves the sequential enumeration order.
    for (std::size_t r = 0; r < parallel.solutions.size(); r += 97) {
      EXPECT_EQ(parallel.solutions.index_row(r), sequential.solutions.index_row(r))
          << rw.name << " row " << r;
    }
    EXPECT_EQ(parallel.stats.nodes, sequential.stats.nodes) << rw.name;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelSolver, ::testing::Values(1, 2, 4, 8));

TEST(ParallelSolverEdge, MoreThreadsThanFirstDomain) {
  csp::Problem p;
  p.add_variable("x", csp::Domain::range(1, 2));
  p.add_variable("y", csp::Domain::range(1, 100));
  auto result = solver::ParallelBacktracking(16).solve(p);
  EXPECT_EQ(result.solutions.size(), 200u);
}

TEST(ParallelSolverEdge, EmptyAndUnsatisfiable) {
  csp::Problem p;
  p.add_variable("x", csp::Domain::range(1, 4));
  p.add_constraint(std::make_unique<csp::MinSum>(100, std::vector<std::string>{"x"}));
  EXPECT_EQ(solver::ParallelBacktracking(4).solve(p).solutions.size(), 0u);
}

// --- DifferentialEvolution ------------------------------------------------------

TEST(DifferentialEvolutionTest, FindsGoodConfigurationsAndTerminates) {
  tuner::TuningProblem spec("de");
  spec.add_param("block_size_x", {8, 16, 32, 64, 128})
      .add_param("block_size_y", {1, 2, 4, 8})
      .add_param("sh_power", {0, 1});
  spec.add_constraint("32 <= block_size_x * block_size_y <= 512");
  tuner::DifferentialEvolution de;
  tuner::HotspotModel model;
  tuner::TuningOptions options;
  options.budget_seconds = 150.0;
  options.seed = 13;
  auto methods = tuner::construction_methods(false);
  auto run = tuner::run_session(
      tuner::make_session_request(spec, methods[0], model, de, options));
  EXPECT_GT(run.evaluations, 10u);
  EXPECT_GT(run.best_gflops, 0.0);
}

// --- CSV serialization ----------------------------------------------------------

TEST(CsvIo, RoundTripsValuesAndValidates) {
  tuner::TuningProblem spec("csv");
  spec.add_param("x", {1, 2, 4})
      .add_param("layout", std::vector<Value>{Value("NHWC"), Value("NCHW")})
      .add_param("alpha", std::vector<Value>{Value(0.5), Value(1.0)});
  spec.add_constraint("x <= 2 or layout == 'NHWC'");
  searchspace::SearchSpace space(spec);

  std::stringstream ss;
  searchspace::write_csv(space, ss);
  const auto rows = searchspace::read_csv(spec, ss);
  ASSERT_EQ(rows.size(), space.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(rows[r], space.config(r));
  }
}

TEST(CsvIo, RejectsHeaderMismatch) {
  tuner::TuningProblem spec("csv");
  spec.add_param("x", {1, 2});
  std::stringstream ss("y\n1\n");
  EXPECT_THROW(searchspace::read_csv(spec, ss), std::runtime_error);
}

TEST(CsvIo, RejectsOutOfDomainValues) {
  tuner::TuningProblem spec("csv");
  spec.add_param("x", {1, 2});
  std::stringstream ss("x\n3\n");
  EXPECT_THROW(searchspace::read_csv(spec, ss), std::runtime_error);
}
