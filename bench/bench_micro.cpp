// Microbenchmarks (google-benchmark): the per-evaluation costs that drive
// the macro results — compiled vs interpreted constraint evaluation, the
// boxed vs int64 evaluator tiers, specific vs generic constraints, the
// solution store's block packing, and SearchSpace lookup, neighbour, snap,
// restriction and sampling operations.
//
// The custom main() additionally runs a self-timed boxed-vs-int64 comparison
// over an integer-only expression mix and writes machine-readable results to
// BENCH_eval.json (checks/sec and ns/check per tier), so the evaluation-cost
// trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tunespace/csp/builtin_constraints.hpp"
#include "tunespace/expr/compiler.hpp"
#include "tunespace/expr/function_constraint.hpp"
#include "tunespace/expr/int_program.hpp"
#include "tunespace/expr/int_program_block.hpp"
#include "tunespace/expr/interpreter.hpp"
#include "tunespace/expr/parser.hpp"
#include "tunespace/expr/recognizer.hpp"
#include "tunespace/searchspace/neighbors.hpp"
#include "tunespace/searchspace/sampling.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/solver/solver.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/util/rng.hpp"

using namespace tunespace;
using csp::Value;

// Effective compiler/arch flags, stamped by CMake so the JSON result can be
// traced back to the codegen configuration that produced it.
#ifndef TUNESPACE_CODEGEN_SUMMARY
#define TUNESPACE_CODEGEN_SUMMARY "unknown"
#endif

namespace {

const char* kConstraint = "32 <= block_size_x * block_size_y <= 1024";

std::vector<Value> sample_values() { return {Value(64), Value(8)}; }

}  // namespace

static void BM_EvalInterpreted(benchmark::State& state) {
  const expr::AstPtr ast = expr::parse(kConstraint);
  std::unordered_map<std::string, Value> vars{{"block_size_x", Value(64)},
                                              {"block_size_y", Value(8)}};
  const auto env = expr::map_env(vars);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::eval_bool(*ast, env));
  }
}
BENCHMARK(BM_EvalInterpreted);

static void BM_EvalCompiled(benchmark::State& state) {
  const expr::Program prog = expr::compile(expr::parse(kConstraint));
  const auto values = sample_values();
  std::vector<std::uint32_t> slots;
  for (std::size_t i = 0; i < prog.var_names().size(); ++i) {
    slots.push_back(static_cast<std::uint32_t>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(prog.run_bool(values.data(), slots.data()));
  }
}
BENCHMARK(BM_EvalCompiled);

static void BM_EvalInt64(benchmark::State& state) {
  const expr::Program prog = expr::compile(expr::parse(kConstraint));
  const auto fast = expr::IntProgram::lower(prog);
  if (!fast) {
    state.SkipWithError("kConstraint is not int-closed");
    return;
  }
  std::vector<std::int64_t> values{64, 8};
  std::vector<std::uint32_t> slots;
  for (std::size_t i = 0; i < prog.var_names().size(); ++i) {
    slots.push_back(static_cast<std::uint32_t>(i));
  }
  for (auto _ : state) {
    bool r = false;
    fast->run_bool(values.data(), slots.data(), &r);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EvalInt64);

static void BM_EvalInt64Block(benchmark::State& state) {
  const expr::Program prog = expr::compile(expr::parse(kConstraint));
  const auto block = expr::IntProgramBlock::lower(
      expr::fold_constants(expr::parse(kConstraint)), prog.var_names());
  if (!block) {
    state.SkipWithError("kConstraint did not lower to the block VM");
    return;
  }
  std::int64_t values[2] = {0, 8};
  const std::uint32_t slots[2] = {0, 1};
  constexpr std::size_t kLanes = expr::IntProgramBlock::kLanes;
  const std::int64_t candidates[kLanes] = {1, 2, 4, 8, 16, 32, 64, 128};
  unsigned char truth[kLanes], poison[kLanes];
  for (auto _ : state) {
    block->run(values, slots, 0, candidates, kLanes, truth, poison);
    benchmark::DoNotOptimize(truth[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kLanes));
}
BENCHMARK(BM_EvalInt64Block);

static void BM_EvalSpecificConstraint(benchmark::State& state) {
  csp::MaxProduct c(1024, {"block_size_x", "block_size_y"});
  c.bind({0, 1});
  const auto values = sample_values();
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.satisfied(values.data()));
  }
}
BENCHMARK(BM_EvalSpecificConstraint);

static void BM_EvalFunctionConstraint(benchmark::State& state) {
  expr::FunctionConstraint c(expr::parse(kConstraint));
  c.bind({0, 1});
  const auto values = sample_values();
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.satisfied(values.data()));
  }
}
BENCHMARK(BM_EvalFunctionConstraint);

static void BM_ParseAndOptimizeConstraint(benchmark::State& state) {
  for (auto _ : state) {
    auto constraints = expr::optimize_constraint(expr::parse(
        "2 <= block_size_y <= 32 <= block_size_x * block_size_y <= 1024"));
    benchmark::DoNotOptimize(constraints);
  }
}
BENCHMARK(BM_ParseAndOptimizeConstraint);

static void BM_ConstructDedispersion(benchmark::State& state) {
  const auto rw = spaces::dedispersion();
  auto methods = tuner::construction_methods(false);
  for (auto _ : state) {
    auto result = tuner::construct(rw.spec, methods[0]);
    benchmark::DoNotOptimize(result.solutions.size());
  }
}
BENCHMARK(BM_ConstructDedispersion)->Unit(benchmark::kMillisecond);

// A lookup that finds its row: random rows of Dedispersion, drawn as index
// rows before the timed loop.  One untimed lookup first builds the row
// table, which BM_RowTableFirstUse times.
static void BM_SearchSpaceLookup(benchmark::State& state) {
  searchspace::SearchSpace space(spaces::dedispersion().spec);
  util::Rng rng(13);
  std::vector<std::vector<std::uint32_t>> hits;
  for (int i = 0; i < 256; ++i) hits.push_back(space.indices(rng.index(space.size())));
  benchmark::DoNotOptimize(space.find(hits[0]));
  std::size_t i = 0;
  for (auto _ : state) {
    auto found = space.find(hits[i]);
    benchmark::DoNotOptimize(found);
    i = (i + 1) % hits.size();
  }
}
BENCHMARK(BM_SearchSpaceLookup);

// A lookup that finds nothing: uniform random index rows of Dedispersion
// that are not in the space, drawn before the timed loop (the draw's own
// lookups build the row table).
static void BM_SearchSpaceLookupMiss(benchmark::State& state) {
  searchspace::SearchSpace space(spaces::dedispersion().spec);
  util::Rng rng(11);
  std::vector<std::vector<std::uint32_t>> misses;
  while (misses.size() < 256) {
    std::vector<std::uint32_t> row(space.num_params());
    for (std::size_t p = 0; p < row.size(); ++p) {
      row[p] = static_cast<std::uint32_t>(rng.index(space.problem().domain(p).size()));
    }
    if (!space.find(row)) misses.push_back(std::move(row));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto found = space.find(misses[i]);
    benchmark::DoNotOptimize(found);
    i = (i + 1) % misses.size();
  }
}
BENCHMARK(BM_SearchSpaceLookupMiss);

// The first lookup on a fresh Hotspot space: building its row table from
// the packed columns.  The space is built and destroyed while timing is
// paused.
static void BM_RowTableFirstUse(benchmark::State& state) {
  const auto spec = spaces::hotspot().spec;
  std::optional<searchspace::SearchSpace> space;
  std::vector<std::uint32_t> row;
  for (auto _ : state) {
    state.PauseTiming();
    space.reset();
    space.emplace(spec);
    row = space->indices(0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(space->find(row));
  }
}
BENCHMARK(BM_RowTableFirstUse)->Iterations(8)->Unit(benchmark::kMillisecond);

// One RowBlock flush into a column of the given width (arg): 256 rows of an
// 8-variable row-major block, appended at a block boundary as every flush
// but a build's last is.  The column restarts every 4096 flushes, with
// timing paused.
static void BM_AppendStrided(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  constexpr std::size_t kVars = 8;
  constexpr std::size_t kRows = solver::RowBlock::kRows;
  std::vector<std::uint32_t> rows(kRows * kVars);
  util::Rng rng(bits);
  for (auto& v : rows) v = static_cast<std::uint32_t>(rng() & ((1u << bits) - 1));
  solver::PackedColumn col(bits);
  std::size_t flushes = 0;
  for (auto _ : state) {
    if (++flushes % 4096 == 0) {
      state.PauseTiming();
      col = solver::PackedColumn(bits);
      state.ResumeTiming();
    }
    col.append_strided(rows.data(), kRows, kVars);
  }
  benchmark::DoNotOptimize(col.words());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_AppendStrided)->Arg(1)->Arg(3)->Arg(6);

static void BM_HammingNeighbors(benchmark::State& state) {
  searchspace::SearchSpace space(spaces::dedispersion().spec);
  std::size_t row = 0;
  for (auto _ : state) {
    auto n = searchspace::neighbors_of(space, row);
    benchmark::DoNotOptimize(n);
    row = (row + 17) % space.size();
  }
}
BENCHMARK(BM_HammingNeighbors);

static void BM_LatinHypercube64(benchmark::State& state) {
  searchspace::SearchSpace space(spaces::dedispersion().spec);
  util::Rng rng(3);
  for (auto _ : state) {
    auto rows = searchspace::latin_hypercube_sample(space, 64, rng);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_LatinHypercube64)->Unit(benchmark::kMicrosecond);

// A snap miss on the two largest tuning spaces (arg 0: Hotspot, 1: GEMM).
// Targets are uniform crossovers of two random rows, as GA and NSGA-II
// children are, drawn before the timed loop; only the misses among them are
// kept.
static void BM_SnapToValidMiss(benchmark::State& state) {
  const auto rw = state.range(0) == 0 ? spaces::hotspot() : spaces::gemm();
  searchspace::SearchSpace space(rw.spec);
  util::Rng rng(7);
  std::vector<std::vector<std::uint32_t>> targets;
  while (targets.size() < 256) {
    const auto a = space.indices(rng.index(space.size()));
    const auto b = space.indices(rng.index(space.size()));
    std::vector<std::uint32_t> child(space.num_params());
    for (std::size_t p = 0; p < child.size(); ++p) {
      child[p] = rng.chance(0.5) ? a[p] : b[p];
    }
    if (!space.find(child)) targets.push_back(std::move(child));
  }
  benchmark::DoNotOptimize(searchspace::snap_to_valid(space, targets[0]));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(searchspace::snap_to_valid(space, targets[i]));
    i = (i + 1) % targets.size();
  }
  state.SetLabel(rw.name);
}
BENCHMARK(BM_SnapToValidMiss)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The four restrictions of bench_query (args 0-3), on a space whose summary
// is already derived.
static void BM_Restrict(benchmark::State& state) {
  namespace query = searchspace::query;
  const std::vector<query::Predicate> predicates = {
      query::eq("MWG", 64) && query::in_set("MDIMC", {8, 16}),
      query::between("KWG", 16, 32),
      query::eq("block_size_x", 32) && query::between("tile_size_x", 1, 3),
      query::eq("sh_power", 1) && query::between("blocks_per_sm", 1, 4),
  };
  const query::Predicate& pred = predicates[static_cast<std::size_t>(state.range(0))];
  const auto rw = state.range(0) < 2 ? spaces::gemm() : spaces::hotspot();
  searchspace::SearchSpace space(rw.spec);
  benchmark::DoNotOptimize(searchspace::SubSpace::filter(space, pred).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(searchspace::SubSpace::filter(space, pred).size());
  }
  state.SetLabel(rw.name + ": " + query::to_string(pred));
}
BENCHMARK(BM_Restrict)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

// The first query on a fresh Hotspot space: deriving its summary (code
// ranges, value counts, present values) from the packed columns.  The
// space is built and destroyed while timing is paused.
static void BM_SummaryFirstUse(benchmark::State& state) {
  const auto spec = spaces::hotspot().spec;
  std::optional<searchspace::SearchSpace> space;
  for (auto _ : state) {
    state.PauseTiming();
    space.reset();
    space.emplace(spec);
    state.ResumeTiming();
    benchmark::DoNotOptimize(space->present_values(0).size());
  }
}
BENCHMARK(BM_SummaryFirstUse)->Iterations(8)->Unit(benchmark::kMillisecond);

// A GA/NSGA-II initial population draw on Hotspot: 20 of 389,208 rows.
static void BM_SampleIndices(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    auto picked = rng.sample_indices(389208, 20);
    benchmark::DoNotOptimize(picked);
  }
}
BENCHMARK(BM_SampleIndices);

// ---------------------------------------------------------------------------
// Boxed vs int64 evaluator comparison, emitted as BENCH_eval.json
// ---------------------------------------------------------------------------

namespace {

/// Integer-only expression mix modelled on real tuning constraints.
const char* kEvalMix[] = {
    "32 <= block_size_x * block_size_y <= 1024",
    "block_size_x % block_size_y == 0",
    "block_size_x * block_size_y % 32 == 0",
    "block_size_x in (1, 2, 4, 8, 16, 32, 64, 128)",
    "min(block_size_x, block_size_y) >= 2 and block_size_x ** 2 <= 16384",
};

struct EvalTierResult {
  double ns_per_check = 0;
  double checks_per_sec = 0;
};

/// Time `iters` evaluations of fn (called with the check index).
template <typename Fn>
EvalTierResult time_tier(std::size_t iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EvalTierResult r;
  r.ns_per_check = elapsed.count() * 1e9 / static_cast<double>(iters);
  r.checks_per_sec = static_cast<double>(iters) / elapsed.count();
  return r;
}

/// Run the boxed vs int64 vs block comparison and write BENCH_eval.json.
void run_eval_comparison(const char* json_path) {
  struct Compiled {
    expr::Program boxed;
    expr::IntProgram fast;
    expr::IntProgramBlock block;
  };
  std::vector<Compiled> programs;
  for (const char* src : kEvalMix) {
    expr::Program p = expr::compile(expr::parse(src));
    auto lowered = expr::IntProgram::lower(p);
    if (!lowered) {
      std::fprintf(stderr, "expression unexpectedly not int-closed: %s\n", src);
      continue;
    }
    auto block = expr::IntProgramBlock::lower(
        expr::fold_constants(expr::parse(src)), p.var_names());
    if (!block) {
      std::fprintf(stderr, "expression unexpectedly not block-lowerable: %s\n",
                   src);
      continue;
    }
    programs.push_back({std::move(p), std::move(*lowered), std::move(*block)});
  }
  if (programs.empty()) {
    std::fprintf(stderr, "no int-closed expressions in the mix; skipping\n");
    return;
  }

  // Assignment pool cycling through plausible block sizes.
  const std::int64_t xs[] = {1, 2, 4, 8, 16, 32, 64, 128};
  const std::int64_t ys[] = {2, 4, 8, 16, 32};
  std::vector<std::array<std::int64_t, 2>> int_pool;
  std::vector<std::array<Value, 2>> boxed_pool;
  for (std::int64_t x : xs) {
    for (std::int64_t y : ys) {
      int_pool.push_back({x, y});
      boxed_pool.push_back({Value(x), Value(y)});
    }
  }
  const std::uint32_t slots[] = {0, 1};  // both programs use x, y in order

  const std::size_t iters = bench::fast_mode() ? 2000000 : 20000000;
  std::uint64_t sink = 0;
  const EvalTierResult boxed = time_tier(iters, [&](std::size_t i) {
    const auto& prog = programs[i % programs.size()].boxed;
    const auto& vals = boxed_pool[i % boxed_pool.size()];
    sink += prog.run_bool(vals.data(), slots);
  });
  const EvalTierResult fast = time_tier(iters, [&](std::size_t i) {
    const auto& prog = programs[i % programs.size()].fast;
    const auto& vals = int_pool[i % int_pool.size()];
    bool r = false;
    prog.run_bool(vals.data(), slots, &r);
    sink += r;
  });
  // Block tier: each dispatch sweeps all kLanes x-candidates for one y, so a
  // lane is the unit comparable to one scalar check.
  constexpr std::size_t kLanes = expr::IntProgramBlock::kLanes;
  static_assert(sizeof(xs) / sizeof(xs[0]) == kLanes,
                "x pool doubles as the candidate lane group");
  EvalTierResult block = time_tier(iters / kLanes, [&](std::size_t i) {
    const auto& prog = programs[i % programs.size()].block;
    std::int64_t vals[2] = {0, ys[i % (sizeof(ys) / sizeof(ys[0]))]};
    unsigned char truth[kLanes], poison[kLanes];
    prog.run(vals, slots, 0, xs, kLanes, truth, poison);
    for (std::size_t l = 0; l < kLanes; ++l) sink += truth[l];
  });
  block.ns_per_check /= static_cast<double>(kLanes);
  block.checks_per_sec *= static_cast<double>(kLanes);

  const double speedup = boxed.ns_per_check / fast.ns_per_check;
  const double block_speedup = fast.ns_per_check / block.ns_per_check;
  std::printf("\n== boxed vs int64 vs block evaluation (%zu checks, sink=%llu) ==\n",
              iters, static_cast<unsigned long long>(sink));
  std::printf("boxed : %8.2f ns/check  %12.0f checks/sec\n", boxed.ns_per_check,
              boxed.checks_per_sec);
  std::printf("int64 : %8.2f ns/check  %12.0f checks/sec\n", fast.ns_per_check,
              fast.checks_per_sec);
  std::printf("block : %8.2f ns/check  %12.0f checks/sec\n", block.ns_per_check,
              block.checks_per_sec);
  std::printf("speedup boxed->int64: %.2fx   int64->block: %.2fx\n", speedup,
              block_speedup);

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"eval_boxed_vs_int64\",\n"
                 "  \"codegen\": \"%s\",\n"
                 "  \"expression_mix\": %zu,\n"
                 "  \"checks\": %zu,\n"
                 "  \"boxed\": {\"ns_per_check\": %.4f, \"checks_per_sec\": %.0f},\n"
                 "  \"int64\": {\"ns_per_check\": %.4f, \"checks_per_sec\": %.0f},\n"
                 "  \"block\": {\"ns_per_check\": %.4f, \"checks_per_sec\": %.0f},\n"
                 "  \"speedup\": %.4f,\n"
                 "  \"speedup_block_vs_scalar\": %.4f\n"
                 "}\n",
                 TUNESPACE_CODEGEN_SUMMARY, programs.size(), iters,
                 boxed.ns_per_check, boxed.checks_per_sec, fast.ns_per_check,
                 fast.checks_per_sec, block.ns_per_check, block.checks_per_sec,
                 speedup, block_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_eval_comparison("BENCH_eval.json");
  return 0;
}
