#include "tunespace/solver/parallel_backtracking.hpp"

#include <algorithm>

#include "backtracking_core.hpp"
#include "tunespace/util/timer.hpp"
#include "util/parallel_for.hpp"

namespace tunespace::solver {

namespace {

/// Upper bound on auto-chosen prefix candidates: keeps the expanded prefix
/// pool (and per-task bookkeeping) bounded on spaces with huge level fan-out.
constexpr std::uint64_t kMaxAutoCandidates = 1u << 20;

/// Split granularity target: valid prefixes (tasks) per worker.
constexpr std::size_t kTasksPerWorker = 8;

/// Initial guess for the prefix length the search tree is split at: grow
/// until the Cartesian fan-out of the first `depth` search positions
/// reaches ~kTasksPerWorker tasks per worker, staying above the old
/// first-variable-only decomposition (depth 1) and below a full enumeration
/// (depth n-1).  The solve loop deepens further when pruning leaves too few
/// *valid* prefixes at this depth.
std::size_t initial_prefix_depth(const detail::SearchPlan& plan,
                                 std::size_t workers) {
  const std::size_t n = plan.order.size();
  const std::uint64_t target = workers * kTasksPerWorker;
  std::uint64_t product = 1;
  std::size_t depth = 0;
  while (depth + 1 < n && product < target) {
    const std::uint64_t next = product * plan.domains[plan.order[depth]].size();
    if (depth > 0 && next > kMaxAutoCandidates) break;
    product = next;
    ++depth;
  }
  return std::clamp<std::size_t>(depth, 1, n - 1);
}

}  // namespace

SolveResult ParallelBacktracking::solve(csp::Problem& problem) const {
  SolveResult result;
  const std::size_t n = problem.num_variables();
  result.solutions = SolutionSet(problem);
  util::WallTimer timer;
  if (n == 0) return result;

  detail::SearchPlan plan = detail::build_plan(problem, options_, result.stats);
  result.stats.preprocess_seconds = timer.seconds();
  if (plan.unsatisfiable) return result;

  timer.reset();
  const std::size_t workers = parallel_.resolve_threads();

  if (n == 1) {
    // No prefix to split on: a single-variable search is one flat scan.
    detail::BacktrackingEngine engine(plan, 0, plan.domains[plan.order[0]].size());
    RowBlock block(result.solutions);
    while (engine.next()) block.push(engine.row().data());
    block.flush();
    result.stats.nodes = engine.nodes();
    result.stats.constraint_checks = engine.constraint_checks();
    result.stats.fast_checks = engine.fast_checks();
    result.stats.prunes += engine.prunes();
    result.stats.block_checks = engine.block_checks();
    result.stats.block_lanes = engine.block_lanes();
    result.stats.parallel_tasks = 1;
    result.stats.parallel_workers = 1;
    result.stats.search_seconds = timer.seconds();
    return result;
  }

  // --- Phase 1: sequential prefix expansion over the top `depth` levels ----
  // When constraints prune the top of the tree so hard that fewer valid
  // prefixes than the task target survive (the old first-variable clamp's
  // failure mode, triggered by *invalid* rather than small first domains),
  // discard the probe and deepen: re-expansions are cheap exactly when they
  // trigger, because the surviving top tree is narrow.  Only the accepted
  // expansion's counters are recorded, so expansion + task counters still
  // sum to the sequential totals.
  std::size_t depth = initial_prefix_depth(plan, workers);
  const std::size_t task_target = workers * kTasksPerWorker;
  std::vector<std::uint32_t> prefixes;  // depth entries per task, rank order
  for (;;) {
    prefixes.clear();
    detail::BacktrackingEngine expander(
        plan, 0, plan.domains[plan.order[0]].size(), depth);
    while (expander.next()) {
      for (std::size_t q = 0; q < depth; ++q) {
        prefixes.push_back(expander.chosen_index(q));
      }
    }
    const std::size_t tasks = prefixes.size() / depth;
    if (depth + 1 < n && tasks > 0 && tasks < task_target &&
        tasks < kMaxAutoCandidates) {
      ++depth;
      continue;
    }
    result.stats.nodes += expander.nodes();
    result.stats.constraint_checks += expander.constraint_checks();
    result.stats.fast_checks += expander.fast_checks();
    result.stats.prunes += expander.prunes();
    result.stats.block_checks += expander.block_checks();
    result.stats.block_lanes += expander.block_lanes();
    break;
  }
  const std::size_t num_tasks = prefixes.size() / depth;
  result.stats.parallel_tasks = num_tasks;
  if (num_tasks == 0) {
    result.stats.search_seconds = timer.seconds();
    return result;
  }

  // --- Phase 2: parallel enumeration of the per-prefix subtrees -----------
  // Workers take prefix tasks from a shared cursor; solutions land in
  // per-worker sharded SolutionSets tagged with their prefix rank, with no
  // shared append lock anywhere on the hot path.
  struct Segment {
    std::uint32_t rank = 0;
    std::uint32_t worker = 0;
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  struct WorkerShard {
    SolutionSet solutions;
    std::vector<Segment> segments;
    std::uint64_t nodes = 0, checks = 0, fast_checks = 0, prunes = 0;
    std::uint64_t block_checks = 0, block_lanes = 0;
  };

  std::vector<WorkerShard> shards(std::min(workers, num_tasks));
  for (auto& shard : shards) shard.solutions = SolutionSet(problem);

  const auto run_task = [&](std::size_t w, std::size_t task) {
    WorkerShard& shard = shards[w];
    detail::BacktrackingEngine engine(
        plan, detail::BacktrackingEngine::PrefixSeed{&prefixes[task * depth], depth});
    const std::size_t begin = shard.solutions.size();
    RowBlock block(shard.solutions);
    while (engine.next()) block.push(engine.row().data());
    block.flush();
    shard.segments.push_back(Segment{static_cast<std::uint32_t>(task),
                                     static_cast<std::uint32_t>(w), begin,
                                     shard.solutions.size() - begin});
    shard.nodes += engine.nodes();
    shard.checks += engine.constraint_checks();
    shard.fast_checks += engine.fast_checks();
    shard.prunes += engine.prunes();
    shard.block_checks += engine.block_checks();
    shard.block_lanes += engine.block_lanes();
  };
  result.stats.parallel_workers = static_cast<std::uint32_t>(
      util::parallel_for(num_tasks, shards.size(), run_task));

  // --- Phase 3: deterministic merge in prefix-rank order ------------------
  std::vector<Segment> segments;
  segments.reserve(num_tasks);
  for (const WorkerShard& shard : shards) {
    segments.insert(segments.end(), shard.segments.begin(), shard.segments.end());
    result.stats.nodes += shard.nodes;
    result.stats.constraint_checks += shard.checks;
    result.stats.fast_checks += shard.fast_checks;
    result.stats.prunes += shard.prunes;
    result.stats.block_checks += shard.block_checks;
    result.stats.block_lanes += shard.block_lanes;
  }
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) { return a.rank < b.rank; });
  for (const Segment& seg : segments) {
    if (seg.count == 0) continue;
    result.solutions.append_range(shards[seg.worker].solutions, seg.begin,
                                  seg.count);
  }
  result.stats.search_seconds = timer.seconds();
  return result;
}

}  // namespace tunespace::solver
