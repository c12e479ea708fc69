// Strong-scaling benchmark of the parallel engine (ParallelBacktracking: one
// task per valid assignment prefix, handed out from a shared cursor),
// emitted as BENCH_scaling.json (threads -> seconds/speedup per suite).
//
// Suites: synthetic dense (1 constraint, enumeration-bound), synthetic
// sparse (6 constraints, pruning-heavy and skew-prone: subtree sizes vary
// widely between tasks), and the GEMM / Hotspot real-world spaces.  Every parallel run
// is verified byte-identical to the sequential enumeration; a mismatch is a
// hard failure regardless of flags.
//
// CI gate:  bench_scaling --min-speedup <threads> <x>
// exits non-zero when a *synthetic* suite's speedup at <threads> drops below
// <x> (the real-world suites are reported but not gated: they are small
// enough that scheduling overhead dominates on slow runners).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/spaces/synthetic.hpp"
#include "tunespace/util/table.hpp"
#include "tunespace/util/timer.hpp"

using namespace tunespace;

namespace {

struct Suite {
  std::string name;
  bool gated = false;  // participates in the --min-speedup check
  std::vector<tuner::TuningProblem> specs;
};

std::vector<Suite> build_suites() {
  const bool fast = bench::fast_mode();
  std::vector<Suite> suites;

  Suite dense{"synthetic-dense", true, {}};
  // Dense spaces materialize ~40% of the Cartesian product; targets are
  // capped so reference + shards + merged result stay well under a GB.
  for (std::uint64_t target : fast
           ? std::vector<std::uint64_t>{5000000, 20000000}
           : std::vector<std::uint64_t>{20000000, 50000000}) {
    dense.specs.push_back(spaces::make_synthetic(4, target, 1, 11).spec);
  }
  suites.push_back(std::move(dense));

  Suite sparse{"synthetic-sparse", true, {}};
  for (std::uint64_t target : fast
           ? std::vector<std::uint64_t>{20000000, 50000000}
           : std::vector<std::uint64_t>{50000000, 100000000, 200000000}) {
    sparse.specs.push_back(spaces::make_synthetic(4, target, 6, 12).spec);
    sparse.specs.push_back(spaces::make_synthetic(5, target, 6, 13).spec);
  }
  suites.push_back(std::move(sparse));

  suites.push_back(Suite{"gemm", false, {spaces::gemm().spec}});
  suites.push_back(Suite{"hotspot", false, {spaces::hotspot().spec}});
  return suites;
}

std::vector<std::size_t> thread_counts() {
  std::vector<std::size_t> counts{1, 2, 4, 8};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 8) counts.push_back(hw);
  return counts;
}

/// One suite run at a thread count: summed wall seconds (best of `repeats`
/// sweeps) and a byte-identity check of every space against the sequential
/// reference enumeration.
struct SuiteRun {
  double seconds = 0;
  std::size_t solutions = 0;
  bool deterministic = true;
};

bool identical(const solver::SolutionSet& a, const solver::SolutionSet& b) {
  if (a.num_vars() != b.num_vars() || a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.num_vars(); ++v) {
    if (a.column(v) != b.column(v)) return false;
  }
  return true;
}

SuiteRun run_suite(const Suite& suite, std::size_t threads,
                   const std::vector<solver::SolutionSet>& reference,
                   int repeats) {
  SuiteRun best;
  for (int rep = 0; rep < repeats; ++rep) {
    double total = 0;
    std::size_t solutions = 0;
    bool deterministic = true;
    for (std::size_t s = 0; s < suite.specs.size(); ++s) {
      solver::SolverOptions options;
      options.threads = threads;
      const auto method = tuner::parallel_method(options);
      util::WallTimer timer;
      auto problem = tuner::build_problem(suite.specs[s], method.pipeline);
      auto result = method.solver->solve(problem);
      total += timer.seconds();
      solutions += result.solutions.size();
      deterministic = deterministic && identical(result.solutions, reference[s]);
    }
    if (rep == 0 || total < best.seconds) best.seconds = total;
    best.solutions = solutions;
    best.deterministic = best.deterministic && deterministic;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t gate_threads = 0;
  double gate_speedup = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 2 < argc) {
      gate_threads = static_cast<std::size_t>(std::atoi(argv[i + 1]));
      gate_speedup = std::atof(argv[i + 2]);
      i += 2;
    } else {
      std::fprintf(stderr, "usage: %s [--min-speedup <threads> <x>]\n", argv[0]);
      return 2;
    }
  }

  const auto suites = build_suites();
  const auto counts = thread_counts();
  const int repeats = bench::fast_mode() ? 3 : 2;
  bool all_deterministic = true;
  bool gate_ok = true;
  bool gate_measured = false;

  // A speedup gate only makes sense when the hardware can actually run that
  // many workers; skip (loudly) on smaller machines instead of hard-failing.
  const std::size_t hw = std::thread::hardware_concurrency();
  if (gate_threads > 0 && hw > 0 && hw < gate_threads) {
    std::fprintf(stderr,
                 "WARNING: --min-speedup %zu requested but only %zu hardware "
                 "threads available; speedup gate disabled (determinism check "
                 "still enforced)\n",
                 gate_threads, hw);
    gate_threads = 0;
  }

  struct SuiteReport {
    std::string name;
    bool gated = false;
    std::size_t solutions = 0;
    std::vector<double> seconds;
    std::vector<double> speedup;
    bool deterministic = true;
  };
  std::vector<SuiteReport> reports;

  bench::section("Parallel engine: strong scaling");
  util::Table table({"suite", "threads", "time", "speedup", "identical"});
  for (const Suite& suite : suites) {
    // Sequential reference enumeration (also the determinism baseline).
    std::vector<solver::SolutionSet> reference;
    for (const auto& spec : suite.specs) {
      auto problem = tuner::build_problem(spec, tuner::PipelineOptions::optimized());
      reference.push_back(solver::OptimizedBacktracking{}.solve(problem).solutions);
    }

    SuiteReport report;
    report.name = suite.name;
    report.gated = suite.gated;
    double base = 0;
    for (std::size_t threads : counts) {
      const SuiteRun run = run_suite(suite, threads, reference, repeats);
      if (threads == 1) base = run.seconds;
      const double speedup = run.seconds > 0 ? base / run.seconds : 0;
      report.solutions = run.solutions;
      report.seconds.push_back(run.seconds);
      report.speedup.push_back(speedup);
      report.deterministic = report.deterministic && run.deterministic;
      all_deterministic = all_deterministic && run.deterministic;
      table.add_row({suite.name, std::to_string(threads),
                     util::fmt_seconds(run.seconds),
                     util::fmt_double(speedup, 3) + "x",
                     run.deterministic ? "yes" : "NO"});
      if (suite.gated && gate_threads == threads) {
        gate_measured = true;
        if (speedup < gate_speedup) gate_ok = false;
      }
      std::fprintf(stderr, "[scaling] %s x%zu done\n", suite.name.c_str(), threads);
    }
    reports.push_back(std::move(report));
  }
  table.print(std::cout);

  if (std::FILE* f = std::fopen("BENCH_scaling.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"scaling\",\n");
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"fast_mode\": %s,\n", bench::fast_mode() ? "true" : "false");
    std::fprintf(f, "  \"threads\": [");
    for (std::size_t i = 0; i < counts.size(); ++i) {
      std::fprintf(f, "%s%zu", i ? ", " : "", counts[i]);
    }
    std::fprintf(f, "],\n  \"suites\": [\n");
    for (std::size_t s = 0; s < reports.size(); ++s) {
      const SuiteReport& r = reports[s];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"gated\": %s, \"solutions\": %zu, "
                   "\"deterministic\": %s,\n     \"seconds\": [",
                   r.name.c_str(), r.gated ? "true" : "false", r.solutions,
                   r.deterministic ? "true" : "false");
      for (std::size_t i = 0; i < r.seconds.size(); ++i) {
        std::fprintf(f, "%s%.6f", i ? ", " : "", r.seconds[i]);
      }
      std::fprintf(f, "], \"speedup\": [");
      for (std::size_t i = 0; i < r.speedup.size(); ++i) {
        std::fprintf(f, "%s%.4f", i ? ", " : "", r.speedup[i]);
      }
      std::fprintf(f, "]}%s\n", s + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_scaling.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_scaling.json\n");
  }

  if (!all_deterministic) {
    std::fprintf(stderr,
                 "FAIL: parallel enumeration diverged from the sequential "
                 "solution order\n");
    return 1;
  }
  if (gate_threads > 0 && !gate_measured) {
    // Refuse to pass vacuously: a gate on an unmeasured thread count means
    // the regression check silently stopped gating.
    std::fprintf(stderr,
                 "FAIL: --min-speedup %zu requested but %zu threads was never "
                 "measured (thread counts: 1,2,4,8[,hw])\n",
                 gate_threads, gate_threads);
    return 2;
  }
  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: synthetic-suite speedup at %zu threads below %.2fx "
                 "(see table above)\n",
                 gate_threads, gate_speedup);
    return 1;
  }
  return 0;
}
