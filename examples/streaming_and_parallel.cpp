// Streaming and parallel construction: the lazy SolutionIterator for
// early-exit workflows, and the multi-threaded ParallelBacktracking solver
// for the heaviest enumerations, plus CSV export of a resolved space.
#include <iostream>
#include <sstream>

#include "tunespace/searchspace/io.hpp"
#include "tunespace/solver/parallel_backtracking.hpp"
#include "tunespace/solver/solution_iterator.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/util/timer.hpp"

using namespace tunespace;

int main() {
  // --- 1. Stream solutions lazily (no full materialization) ----------------
  auto rw = spaces::hotspot();
  auto problem = tuner::build_problem(rw.spec, tuner::PipelineOptions::optimized());
  solver::SolutionIterator it(problem);
  std::cout << "first 3 valid Hotspot configurations (streamed):\n";
  for (int i = 0; i < 3; ++i) {
    auto config = it.next_config();
    if (!config) break;
    std::cout << "  " << problem.config_to_string(*config) << "\n";
  }
  std::cout << "(only " << it.count() << " solutions enumerated so far)\n\n";

  // --- 2. Parallel construction of the full space --------------------------
  // The parallel engine splits the search tree at an assignment-prefix
  // depth (auto-chosen here) and hands one task per valid prefix to its
  // workers; solutions come back in the exact sequential enumeration order
  // regardless of thread count or split depth.
  for (std::size_t threads : {1u, 4u}) {
    auto p = tuner::build_problem(rw.spec, tuner::PipelineOptions::optimized());
    solver::SolverOptions options;
    options.threads = threads;
    util::WallTimer timer;
    auto result = solver::ParallelBacktracking(options).solve(p);
    std::cout << threads << " thread(s): " << result.solutions.size()
              << " solutions in " << timer.seconds() * 1e3 << " ms ("
              << result.stats.parallel_tasks << " tasks across "
              << result.stats.parallel_workers << " workers)\n";
  }

  // --- 3. Export a (small) resolved space to CSV ---------------------------
  auto dedisp = spaces::dedispersion();
  searchspace::SearchSpace space(dedisp.spec);
  std::ostringstream csv;
  searchspace::write_csv(space, csv);
  std::cout << "\nDedispersion space exported: " << space.size()
            << " rows, " << csv.str().size() / 1024 << " KiB of CSV; first lines:\n";
  std::istringstream lines(csv.str());
  std::string line;
  for (int i = 0; i < 3 && std::getline(lines, line); ++i) {
    std::cout << "  " << line << "\n";
  }
  return 0;
}
