// `construct`: the paper's headline operation.
//
// One caller builds every input spec cold, back-to-back, as a
// searchspace::SearchSpace (`SearchSpace(spec)`: the sequential optimized
// method, no snapshot cache).  The inputs are the eight Table 2 specs plus a
// seeded draw of eight specs from the section 5.2.1 synthetic generator; the
// seed varies only the synthetic draw, which is about 4% of a pass.
// `solver` and `searchspace` do nearly all of the work; `tuner` does none.
//
// The speed probe runs between builds; builds/s and the mean pass time are
// scaled by it.
//
// Set-up builds every space once and checks it, as a set, against the
// chain-of-trees (ATF-method) construction: an independent engine and
// lowering pipeline.  Every timed build must reproduce the set-up row count.
//
// The traced run splits each build from outside: the benchmark lowers the
// spec itself through expr::parse / fold_constants / decompose / recognize,
// solves the lowered problem with the optimized method's Solver, and takes
// the index time as SearchSpace(spec) minus tuner::construct(spec) on the
// same spec.  It also builds every spec on the work-stealing engine
// (`SearchSpace(spec, SolverOptions{threads = nproc})`), whose rows must be
// byte-identical to the sequential build, and reports that engine's tasks
// and parallelism.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <thread>

#include "trace.hpp"
#include "tunespace/csp/builtin_constraints.hpp"
#include "tunespace/expr/analysis.hpp"
#include "tunespace/expr/compiler.hpp"
#include "tunespace/expr/parser.hpp"
#include "tunespace/expr/recognizer.hpp"
#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/solver/chain_of_trees.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/spaces/synthetic.hpp"
#include "workloads.hpp"

using namespace tunespace;

namespace perfbench {

namespace {

/// Synthetic specs per draw; dims cycle 2..5 and the Cartesian targets
/// cycle kSyntheticTargets, so every seed draws the same mix of shapes.
constexpr std::size_t kSynthetic = 8;
constexpr std::uint64_t kSyntheticTargets[] = {100000, 200000};

struct Input {
  std::string name;
  tuner::TuningProblem spec;
  std::size_t rows = 0;  ///< set by set-up
};

std::vector<Input> make_inputs(std::uint64_t seed) {
  std::vector<Input> inputs;
  for (auto& space : spaces::all_realworld()) {
    inputs.push_back({space.name, std::move(space.spec)});
  }
  for (std::size_t i = 0; i < kSynthetic; ++i) {
    const std::size_t dims = 2 + i % 4;
    const std::uint64_t target = kSyntheticTargets[i % std::size(kSyntheticTargets)];
    const std::size_t constraints = 1 + mix_seed(seed, 100 + i) % 6;
    auto space =
        spaces::make_synthetic(dims, target, constraints, mix_seed(seed, 200 + i));
    inputs.push_back({space.name, std::move(space.spec)});
  }
  return inputs;
}

solver::SolverOptions parallel_options() {
  solver::SolverOptions options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  return options;
}

/// Every row as one mixed-radix integer over the spec's domains, sorted: the
/// canonical form of the set of configurations (every Cartesian size here
/// fits in 64 bits).
std::vector<std::uint64_t> row_keys(const solver::SolutionSet& rows,
                                    const tuner::TuningProblem& spec) {
  std::vector<std::uint64_t> keys(rows.size(), 0);
  std::uint64_t radix = 1;
  for (std::size_t p = 0; p < spec.num_params(); ++p) {
    const auto& column = rows.column(p);
    for (std::size_t r = 0; r < keys.size(); ++r) keys[r] += column.get(r) * radix;
    radix *= spec.params()[p].values.size();
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool same_bytes(const solver::SolutionSet& a, const solver::SolutionSet& b) {
  if (a.num_vars() != b.num_vars() || a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.num_vars(); ++v) {
    if (a.column(v) != b.column(v)) return false;
  }
  return true;
}

/// Heap bytes of a space's solution store and indexes, computed from its
/// shape: packed columns, CSR posting rows and offsets, and the row table.
double space_bytes(const searchspace::SearchSpace& space) {
  const std::size_t n = space.size();
  double bytes = static_cast<double>(space.solutions().memory_bytes());
  bytes += static_cast<double>(n * space.num_params() * sizeof(std::uint32_t));
  for (std::size_t p = 0; p < space.num_params(); ++p) {
    bytes += static_cast<double>((space.problem().domain(p).size() + 1) *
                                 sizeof(std::uint64_t));
  }
  bytes += static_cast<double>(std::bit_ceil(std::max<std::size_t>(16, n * 2)) *
                               sizeof(std::uint32_t));
  return bytes;
}

/// Build every input once and check it against the chain-of-trees build.
std::vector<Input> set_up(std::uint64_t seed, Report& report) {
  std::vector<Input> inputs = make_inputs(seed);
  const tuner::Method atf{"ATF", tuner::PipelineOptions::compiled_raw(),
                          std::make_unique<solver::ChainOfTrees>("ATF")};
  for (Input& input : inputs) {
    const searchspace::SearchSpace space(input.spec);
    input.rows = space.size();
    const solver::SolveResult reference = tuner::construct(input.spec, atf);
    report.check(space.size() > 0 && row_keys(space.solutions(), input.spec) ==
                                         row_keys(reference.solutions, input.spec),
                 input.name + ": space differs from the chain-of-trees build");
  }
  return inputs;
}

/// Per-pass layer counters of the traced run.
struct LayerCounts {
  double fallbacks = 0;
  double rows = 0, nodes = 0, checks = 0, block_checks = 0, block_lanes = 0;
  double tasks = 0, parallel_cpu = 0, parallel_wall = 0;
  double bytes = 0;
};

/// The traced split of one build: lower the spec through the expr layer's
/// public functions, then solve the lowered problem.
void traced_lower_and_solve(const tuner::TuningProblem& spec, const tuner::Method& method,
                            LayerCounts& counts) {
  csp::Problem problem;
  for (const auto& param : spec.params()) {
    problem.add_variable(param.name, csp::Domain(param.values));
  }
  for (const std::string& text : spec.constraints()) {
    expr::AstPtr ast;
    {
      trace::Span span("expr.parse");
      ast = expr::parse(text);
    }
    expr::AstPtr folded;
    {
      trace::Span span("expr.fold");
      folded = expr::fold_constants(ast);
    }
    std::vector<expr::AstPtr> conjuncts;
    {
      trace::Span span("expr.decompose");
      conjuncts = expr::decompose(folded);
    }
    for (const expr::AstPtr& conjunct : conjuncts) {
      csp::ConstraintPtr constraint;
      {
        trace::Span span("expr.recognize");
        constraint = expr::recognize(conjunct, method.pipeline.eval_mode);
      }
      if (auto* b = dynamic_cast<csp::ConstBool*>(constraint.get()); b && b->value()) {
        continue;  // optimize_constraint drops always-true conjuncts too
      }
      if (dynamic_cast<expr::FunctionConstraint*>(constraint.get()) != nullptr) {
        counts.fallbacks++;
      }
      problem.add_constraint(std::move(constraint));
    }
  }
  solver::SolveResult result;
  {
    trace::Span span("solver.solve");
    result = method.solver->solve(problem);
  }
  counts.rows += static_cast<double>(result.solutions.size());
  counts.nodes += static_cast<double>(result.stats.nodes);
  counts.checks += static_cast<double>(result.stats.constraint_checks);
  counts.block_checks += static_cast<double>(result.stats.block_checks);
  counts.block_lanes += static_cast<double>(result.stats.block_lanes);
}

/// The traced work-stealing build of one spec: the solve on its own (tasks,
/// CPU / wall), then the whole SearchSpace, whose rows must match the
/// sequential build byte for byte.
void traced_parallel_build(const Input& input, const tuner::Method& parallel,
                           const searchspace::SearchSpace& sequential,
                           LayerCounts& counts, Report& report) {
  csp::Problem problem = tuner::build_problem(input.spec, parallel.pipeline);
  const double cpu0 = process_cpu_s();
  const double wall0 = now_s();
  solver::SolveResult result;
  {
    trace::Span span("solver.solve.parallel");
    result = parallel.solver->solve(problem);
  }
  counts.parallel_wall += now_s() - wall0;
  counts.parallel_cpu += process_cpu_s() - cpu0;
  counts.tasks += static_cast<double>(result.stats.parallel_tasks);
  std::unique_ptr<searchspace::SearchSpace> space;
  {
    trace::Span span("searchspace.build.parallel");
    space = std::make_unique<searchspace::SearchSpace>(input.spec, parallel_options());
  }
  report.check(same_bytes(space->solutions(), sequential.solutions()),
               input.name + ": parallel rows differ from the sequential build");
}

}  // namespace

Report run_construct(const Options& options) {
  Report report;
  EndToEnd e2e;
  std::vector<Input> inputs;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    Report checks;
    SetUpTimer timer;
    inputs = set_up(options.seed, checks);
    e2e.setup_seconds.push_back(timer.seconds());
    if (i == 0) report = std::move(checks);
  }

  const tuner::Method method = tuner::optimized_method();
  const tuner::Method parallel = tuner::parallel_method(parallel_options());
  LayerCounts counts;
  std::size_t passes = 0;
  double build_seconds = 0;
  std::uint64_t build_id = 0;
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  const double deadline = start + options.seconds;
  while (passes < 3 || now_s() < deadline) {
    for (const Input& input : inputs) {
      trace::Span span("construct.build", build_id++);
      if (options.trace) traced_lower_and_solve(input.spec, method, counts);
      const double t0 = now_s();
      std::unique_ptr<searchspace::SearchSpace> space;
      {
        trace::Span built("searchspace.build");
        space = std::make_unique<searchspace::SearchSpace>(input.spec);
      }
      build_seconds += now_s() - t0;
      report.check(space->size() == input.rows,
                   input.name + ": row count differs from set-up");
      if (options.trace) {
        {
          trace::Span reference("tuner.construct");
          tuner::construct(input.spec, method);
        }
        counts.bytes += space_bytes(*space);
        traced_parallel_build(input, parallel, *space, counts, report);
      }
      space.reset();
      e2e.probe.tick();
    }
    passes++;
  }
  const double wall = now_s() - start;
  e2e.peak_rss_mb = peak_rss_mb();
  const double cpu = process_cpu_s() - cpu0;

  char line[240];
  std::snprintf(line, sizeof line,
                "construct_s %.6g s (raw mean pass over %zu specs; %zu passes)",
                build_seconds / static_cast<double>(passes), inputs.size(), passes);
  report.note(line);

  if (!options.trace) {
    e2e.work = static_cast<double>(passes * inputs.size());
    e2e.seconds = build_seconds;
    e2e.latency_s = build_seconds / static_cast<double>(passes);
    add_end_to_end(report, e2e);
    return report;
  }
  const auto totals = trace::recorder().totals();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const double n = static_cast<double>(passes);
  const double expr_s = total("expr.parse") + total("expr.fold") +
                        total("expr.decompose") + total("expr.recognize");
  const double index_s = total("searchspace.build") - total("tuner.construct");
  report.add("expr.parse_s", total("expr.parse") / n, "s");
  report.add("expr.fold_s", total("expr.fold") / n, "s");
  report.add("expr.decompose_s", total("expr.decompose") / n, "s");
  report.add("expr.recognize_s", total("expr.recognize") / n, "s");
  report.add("expr.fallbacks", counts.fallbacks / n, "count");
  report.add("solver.solve_s", total("solver.solve") / n, "s");
  report.add("solver.nodes", counts.nodes / n, "count");
  report.add("solver.checks", counts.checks / n, "count");
  report.add("solver.block_checks", counts.block_checks / n, "count");
  report.add("solver.rows_per_node", counts.nodes > 0 ? counts.rows / counts.nodes : 0,
             "ratio");
  report.add("solver.lane_fill",
             counts.block_checks > 0 ? counts.block_lanes / (8 * counts.block_checks) : 0,
             "ratio");
  report.add("solver.tasks", counts.tasks / n, "count");
  const double parallelism =
      counts.parallel_wall > 0 ? counts.parallel_cpu / counts.parallel_wall : 0;
  report.add("solver.parallelism", parallelism, "ratio");
  report.add("searchspace.index_s", index_s / n, "s");
  report.add("searchspace.bytes", counts.bytes / n, "bytes");
  report.add("process.cpu_s", cpu, "s");
  report.add("process.parallelism", wall > 0 ? cpu / wall : 0, "ratio");

  // The work-stealing build next to the sequential one: how much of it the
  // solve takes, and the index tail that runs on one thread after it.
  const double parallel_build = total("searchspace.build.parallel") / n;
  const double parallel_solve = total("solver.solve.parallel") / n;
  std::snprintf(line, sizeof line,
                "parallel pass: SearchSpace %.6g s = solve %.6g s on %.3g CPUs + index "
                "tail %.6g s (sequential pass %.6g s)",
                parallel_build, parallel_solve, parallelism,
                parallel_build - parallel_solve, total("searchspace.build") / n);
  report.note(line);
  check_layers_add_up(report, "construct pass", total("searchspace.build") / n,
                      (expr_s + total("solver.solve") + index_s) / n);
  return report;
}

}  // namespace perfbench
