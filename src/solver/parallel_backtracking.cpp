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

/// Add one run's effort counters to another's.
void add_effort(SolveStats& into, const SolveStats& from) {
  into.nodes += from.nodes;
  into.constraint_checks += from.constraint_checks;
  into.fast_checks += from.fast_checks;
  into.prunes += from.prunes;
  into.block_checks += from.block_checks;
  into.block_lanes += from.block_lanes;
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

  // A multi-component plan searches each component once, here, and the
  // tasks below split the walk over their product instead of the search.
  std::vector<detail::ComponentRows> components;
  if (!detail::search_components(plan, components, result.stats)) {
    result.stats.search_seconds = timer.seconds();
    return result;
  }

  if (n == 1) {
    // No prefix to split on: a single-variable search is one flat scan.
    RowBlock block(result.solutions);
    detail::enumerate(plan, components, {}, block, result.stats);
    block.flush();
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
    SolveStats expansion;
    detail::expand_prefixes(plan, components, depth, prefixes, expansion);
    const std::size_t tasks = prefixes.size() / depth;
    if (depth + 1 < n && tasks > 0 && tasks < task_target &&
        tasks < kMaxAutoCandidates) {
      ++depth;
      continue;
    }
    add_effort(result.stats, expansion);
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
    SolveStats effort;
  };

  std::vector<WorkerShard> shards(std::min(workers, num_tasks));
  for (auto& shard : shards) shard.solutions = SolutionSet(problem);

  const auto run_task = [&](std::size_t w, std::size_t task) {
    WorkerShard& shard = shards[w];
    const std::size_t begin = shard.solutions.size();
    RowBlock block(shard.solutions);
    detail::enumerate(plan, components, {&prefixes[task * depth], depth}, block,
                      shard.effort);
    block.flush();
    shard.segments.push_back(Segment{static_cast<std::uint32_t>(task),
                                     static_cast<std::uint32_t>(w), begin,
                                     shard.solutions.size() - begin});
  };
  result.stats.parallel_workers = static_cast<std::uint32_t>(
      util::parallel_for(num_tasks, shards.size(), run_task));

  // --- Phase 3: deterministic merge in prefix-rank order ------------------
  std::vector<Segment> segments;
  segments.reserve(num_tasks);
  for (const WorkerShard& shard : shards) {
    segments.insert(segments.end(), shard.segments.begin(), shard.segments.end());
    add_effort(result.stats, shard.effort);
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
