// Tests for the concurrent multi-session runtime: SharedEvalCache,
// SessionManager (shared spaces, shared measurements, determinism vs the
// isolated run_session path), the Portfolio lockstep race, and the
// shared-ownership SubSpace handoff.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "tunespace/searchspace/view.hpp"
#include "tunespace/tuner/runner.hpp"
#include "tunespace/tuner/session.hpp"
#include "tunespace/util/rng.hpp"

using namespace tunespace;

namespace {

tuner::TuningProblem small_spec() {
  tuner::TuningProblem spec("small");
  spec.add_param("block_size_x", {8, 16, 32, 64, 128})
      .add_param("block_size_y", {1, 2, 4, 8})
      .add_param("sh_power", {0, 1});
  spec.add_constraint("32 <= block_size_x * block_size_y <= 512");
  return spec;
}

tuner::TuningProblem other_spec() {
  tuner::TuningProblem spec("other");
  spec.add_param("tile", {1, 2, 4, 8, 16}).add_param("unroll", {1, 2, 4});
  spec.add_constraint("tile * unroll <= 32");
  return spec;
}

tuner::TuningOptions fixed_options(std::uint64_t seed, double budget = 120.0) {
  tuner::TuningOptions options;
  options.budget_seconds = budget;
  options.seed = seed;
  // Fix the construction charge so virtual timelines are bit-reproducible
  // across repeats, worker counts, and the isolated/managed paths.
  options.fixed_construction_seconds = 3.0;
  return options;
}

tuner::SessionRequest request_for(const tuner::TuningProblem& spec,
                                  std::uint64_t seed, double budget = 120.0) {
  tuner::SessionRequest request;
  request.spec = spec;
  request.model = std::make_shared<tuner::HotspotModel>();
  request.make_optimizer = [] { return std::make_unique<tuner::RandomSearch>(); };
  request.options = fixed_options(seed, budget);
  return request;
}

tuner::SessionManagerOptions with_workers(std::size_t workers,
                                          std::string cache_dir = "") {
  tuner::SessionManagerOptions options;
  options.workers = workers;
  options.snapshot_cache_dir = std::move(cache_dir);
  return options;
}

tuner::TuningRun isolated_run(const tuner::TuningProblem& spec,
                              std::uint64_t seed, double budget = 120.0) {
  tuner::RandomSearch rs;
  tuner::HotspotModel model;
  const tuner::Method method = tuner::optimized_method();
  return tuner::run_session(
      tuner::make_session_request(spec, method, model, rs,
                                  fixed_options(seed, budget)));
}

}  // namespace

// --- SharedEvalCache --------------------------------------------------------

TEST(SharedEvalCache, LookupInsertAndCounters) {
  tuner::SharedEvalCache cache(8);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(1, 2).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(1, 2, {123.5, 41.0});
  ASSERT_TRUE(cache.lookup(1, 2).has_value());
  EXPECT_EQ(cache.lookup(1, 2)->gflops, 123.5);
  EXPECT_EQ(cache.lookup(1, 2)->watts, 41.0);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedEvalCache, KeysAreExactNotHashed) {
  tuner::SharedEvalCache cache(1);  // one stripe: every key collides on it
  cache.insert(10, 20, {1.0, 0.0});
  cache.insert(20, 10, {2.0, 0.0});
  EXPECT_EQ(cache.lookup(10, 20)->gflops, 1.0);
  EXPECT_EQ(cache.lookup(20, 10)->gflops, 2.0);
  EXPECT_FALSE(cache.lookup(10, 10).has_value());
}

TEST(SharedEvalCache, FirstInsertWins) {
  tuner::SharedEvalCache cache;
  cache.insert(1, 1, {5.0, 0.0});
  cache.insert(1, 1, {9.0, 0.0});  // a racing duplicate must not change the value
  EXPECT_EQ(cache.lookup(1, 1)->gflops, 5.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedEvalCache, FingerprintKeepsThePersistedMixOrder) {
  // Persisted eval_cache.tsv files are keyed by this value, so the
  // (space, model, objective set) mix order must never change.
  const searchspace::SearchSpace space(small_spec());
  const tuner::HotspotModel model;
  const tuner::ObjectiveSpec objectives;
  EXPECT_EQ(tuner::eval_cache_fingerprint(space, model, objectives),
            util::mix64(util::mix64(space.fingerprint(), model.fingerprint()),
                        objectives.fingerprint()));
}

// --- run_session --------------------------------------------------------------

TEST(SessionLoop, SharedCacheDoesNotChangeTheResult) {
  const auto spec = small_spec();
  const searchspace::SearchSpace space(spec);
  tuner::HotspotModel model;
  tuner::SharedEvalCache cache;
  tuner::SessionStats stats_cold, stats_warm;
  tuner::RandomSearch rs1, rs2, rs3;
  const auto loop_request = [&](tuner::Optimizer& optimizer) {
    auto request =
        tuner::make_session_request(searchspace::SubSpace(space), model,
                                    optimizer, fixed_options(5), "optimized");
    request.construction_seconds = 0;
    return request;
  };
  const auto plain = tuner::run_session(loop_request(rs1));
  auto cold_request = loop_request(rs2);
  cold_request.shared_cache = &cache;
  cold_request.cache_fingerprint = space.fingerprint();
  cold_request.stats = &stats_cold;
  const auto cold = tuner::run_session(cold_request);
  auto warm_request = loop_request(rs3);
  warm_request.shared_cache = &cache;
  warm_request.cache_fingerprint = space.fingerprint();
  warm_request.stats = &stats_warm;
  const auto warm = tuner::run_session(warm_request);
  EXPECT_EQ(plain, cold);
  EXPECT_EQ(plain, warm);
  EXPECT_EQ(stats_cold.shared_cache_hits, 0u);
  EXPECT_GT(stats_cold.model_evaluations, 0u);
  // The second identical session replays entirely from the shared cache.
  EXPECT_EQ(stats_warm.model_evaluations, 0u);
  EXPECT_EQ(stats_warm.shared_cache_hits, cold.evaluations);
}

// --- SessionManager ---------------------------------------------------------

TEST(SessionManager, SharesSpacesAndMatchesIsolatedRuns) {
  std::vector<tuner::SessionRequest> requests;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    requests.push_back(request_for(small_spec(), seed));
  }
  requests.push_back(request_for(other_spec(), 7));
  requests.push_back(request_for(other_spec(), 8));

  tuner::SessionManager manager(with_workers(4));
  const auto results = manager.run_all(std::move(requests));
  ASSERT_EQ(results.size(), 8u);

  // Two distinct fingerprints: one build each, six reuses in total.
  EXPECT_EQ(manager.spaces_built(), 2u);
  EXPECT_EQ(manager.spaces_shared(), 6u);

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EXPECT_EQ(results[seed - 1].run, isolated_run(small_spec(), seed))
        << "session seed " << seed;
  }
  EXPECT_EQ(results[6].run, isolated_run(other_spec(), 7));
  EXPECT_EQ(results[7].run, isolated_run(other_spec(), 8));

  // Same-spec sessions overlap heavily on a small space: the shared cache
  // must have served a good share of their evaluations.
  EXPECT_GT(manager.eval_cache().hits(), 0u);
  std::uint64_t hits = 0;
  for (const auto& r : results) hits += r.stats.shared_cache_hits;
  EXPECT_EQ(hits, manager.eval_cache().hits());
}

TEST(SessionManager, DeterministicAcrossWorkerCounts) {
  const auto build_requests = [] {
    std::vector<tuner::SessionRequest> requests;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      requests.push_back(request_for(small_spec(), seed));
    }
    return requests;
  };
  tuner::SessionManager serial(with_workers(1));
  tuner::SessionManager parallel(with_workers(8));
  const auto a = serial.run_all(build_requests());
  const auto b = parallel.run_all(build_requests());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].run, b[i].run) << "session " << i;
  }
}

TEST(SessionManager, RestrictionMatchesManualViewTuning) {
  auto request = request_for(small_spec(), 11);
  request.restriction = searchspace::query::eq("sh_power", csp::Value(1));
  tuner::SessionManager manager;
  const auto results = manager.run_all({std::move(request)});
  ASSERT_EQ(results.size(), 1u);

  const searchspace::SearchSpace space(small_spec());
  const auto view = searchspace::SubSpace(space).restrict(
      searchspace::query::eq("sh_power", csp::Value(1)));
  tuner::RandomSearch rs;
  tuner::HotspotModel model;
  auto expected = tuner::run_session(
      tuner::make_session_request(view, model, rs, fixed_options(11)));
  expected.method_name = "optimized";  // manager reports the method name
  EXPECT_EQ(results[0].run, expected);
}

TEST(SessionManager, LambdaSpecsNeverShare) {
  auto spec = small_spec();
  spec.add_constraint({"block_size_x"},
                      [](std::span<const csp::Value> v) { return v[0].as_int() >= 16; },
                      "bsx >= 16");
  std::vector<tuner::SessionRequest> requests;
  requests.push_back(request_for(spec, 1));
  requests.push_back(request_for(spec, 2));
  tuner::SessionManager manager;
  const auto results = manager.run_all(std::move(requests));
  EXPECT_EQ(manager.spaces_built(), 2u);  // private space per session
  EXPECT_EQ(manager.spaces_shared(), 0u);
  // Opaque fingerprints also disable measurement sharing.
  EXPECT_EQ(results[0].stats.shared_cache_hits, 0u);
  EXPECT_EQ(results[1].stats.shared_cache_hits, 0u);
  EXPECT_GT(results[0].run.evaluations, 0u);
}

TEST(SessionManager, SnapshotCacheDirServesReloads) {
  const std::string dir = "test_sessions_cache";
  std::filesystem::remove_all(dir);
  {
    tuner::SessionManager manager(with_workers(2, dir));
    const auto results = manager.run_all({request_for(small_spec(), 3)});
    EXPECT_EQ(results[0].run, isolated_run(small_spec(), 3));
  }
  EXPECT_FALSE(std::filesystem::is_empty(dir));  // cache was populated
  {
    // A fresh manager reloads the snapshot instead of re-solving; the
    // result is unchanged.
    tuner::SessionManager manager(with_workers(2, dir));
    const auto results = manager.run_all({request_for(small_spec(), 3)});
    EXPECT_EQ(results[0].run, isolated_run(small_spec(), 3));
  }
  std::filesystem::remove_all(dir);
}

TEST(SessionManager, BuildFailuresPropagate) {
  auto request = request_for(small_spec(), 1);
  request.spec.add_constraint("this is ( not an expression");
  tuner::SessionManager manager;
  std::vector<tuner::SessionRequest> requests;
  requests.push_back(std::move(request));
  EXPECT_THROW(manager.run_all(std::move(requests)), std::exception);
}

// --- Portfolio --------------------------------------------------------------

namespace {

tuner::PortfolioResult race_once(const searchspace::SubSpace& view,
                                 std::uint64_t root_seed,
                                 double stall_seconds = 0,
                                 double target_gflops = 0) {
  tuner::PortfolioOptions options;
  options.base = fixed_options(root_seed, 150.0);
  options.stall_seconds = stall_seconds;
  options.target_gflops = target_gflops;
  tuner::HotspotModel model;
  return tuner::run_portfolio(view, model, tuner::default_portfolio(), options);
}

}  // namespace

TEST(Portfolio, DeterministicForARootSeed) {
  const searchspace::SearchSpace space(small_spec());
  const auto a = race_once(space, 99);
  const auto b = race_once(space, 99);
  ASSERT_EQ(a.members.size(), 7u);  // ...including the surrogate member
  for (std::size_t m = 0; m < a.members.size(); ++m) {
    EXPECT_EQ(a.members[m].seed, b.members[m].seed);
    EXPECT_EQ(a.members[m].run, b.members[m].run) << a.members[m].optimizer_name;
  }
  EXPECT_EQ(a.merged, b.merged);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
}

TEST(Portfolio, MembersAreSeedSplitFromTheRoot) {
  const searchspace::SearchSpace space(small_spec());
  const auto a = race_once(space, 1);
  const auto b = race_once(space, 2);
  bool any_seed_differs = false;
  for (std::size_t m = 0; m < a.members.size(); ++m) {
    if (a.members[m].seed != b.members[m].seed) any_seed_differs = true;
  }
  EXPECT_TRUE(any_seed_differs);
}

TEST(Portfolio, MergedRunIsConsistent) {
  const searchspace::SearchSpace space(small_spec());
  const auto result = race_once(space, 7);

  double member_best = 0;
  std::size_t member_evals = 0;
  for (const auto& member : result.members) {
    member_best = std::max(member_best, member.run.best_gflops);
    member_evals += member.run.evaluations;
  }
  EXPECT_EQ(result.merged.best_gflops, member_best);
  EXPECT_EQ(result.merged.evaluations, member_evals);
  EXPECT_EQ(result.members[result.winner].run.best_gflops, member_best);

  // Monotone merged trajectory, consistent best_at.
  for (std::size_t i = 1; i < result.merged.trajectory.size(); ++i) {
    EXPECT_GT(result.merged.trajectory[i].best_gflops,
              result.merged.trajectory[i - 1].best_gflops);
    EXPECT_GE(result.merged.trajectory[i].time_seconds,
              result.merged.trajectory[i - 1].time_seconds);
  }
  ASSERT_FALSE(result.merged.trajectory.empty());
  EXPECT_EQ(result.merged.best_at(result.merged.budget_seconds), member_best);
  EXPECT_EQ(result.merged.best_at(0.0), 0.0);
}

TEST(Portfolio, StallRuleStopsTheRaceEarly) {
  const searchspace::SearchSpace space(small_spec());
  const auto free_run = race_once(space, 13);
  const auto stalled = race_once(space, 13, /*stall_seconds=*/10.0);
  EXPECT_TRUE(stalled.early_stopped);
  EXPECT_FALSE(free_run.early_stopped);
  EXPECT_LT(stalled.merged.evaluations, free_run.merged.evaluations);
  // The race is still deterministic under the stall rule.
  EXPECT_EQ(stalled.merged, race_once(space, 13, 10.0).merged);
}

TEST(Portfolio, TargetStopsTheRaceImmediately) {
  const searchspace::SearchSpace space(small_spec());
  const auto result = race_once(space, 5, 0, /*target_gflops=*/0.001);
  EXPECT_TRUE(result.early_stopped);
  // Every member halts shortly after the first measurement hits the target.
  const auto free_run = race_once(space, 5);
  EXPECT_LT(result.merged.evaluations, free_run.merged.evaluations);
}

TEST(Portfolio, MembersShareMeasurements) {
  const searchspace::SearchSpace space(small_spec());
  tuner::PortfolioOptions options;
  options.base = fixed_options(3, 150.0);
  tuner::HotspotModel model;
  tuner::SharedEvalCache cache;
  const auto result = tuner::run_portfolio(space, model,
                                           tuner::default_portfolio(), options,
                                           &cache);
  EXPECT_GT(result.merged.evaluations, 0u);
  // On a 26-row space six racers must re-request rows another member
  // already measured.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_LE(cache.size(), space.size());
}

TEST(Portfolio, MemberExceptionsPropagateWithoutDeadlock) {
  class ThrowingModel : public tuner::PerformanceModel {
   public:
    std::string name() const override { return "throwing"; }
    double gflops(const std::vector<std::string>&,
                  const csp::Config&) const override {
      throw std::runtime_error("model exploded");
    }
  };
  const searchspace::SearchSpace space(small_spec());
  tuner::PortfolioOptions options;
  options.base = fixed_options(1);
  ThrowingModel model;
  // The first member's failure must surface as an exception after every
  // member unwound — not terminate the process or deadlock the race.
  EXPECT_THROW(tuner::run_portfolio(space, model, tuner::default_portfolio(),
                                    options),
               std::runtime_error);
}

TEST(Portfolio, EmptyPortfolioAndEmptyViewAreSafe) {
  const searchspace::SearchSpace space(small_spec());
  tuner::PortfolioOptions options;
  options.base = fixed_options(1);
  tuner::HotspotModel model;
  const auto none = tuner::run_portfolio(space, model, {}, options);
  EXPECT_TRUE(none.members.empty());
  EXPECT_EQ(none.merged.evaluations, 0u);

  const auto empty_view = searchspace::SubSpace(space).restrict(
      searchspace::query::eq("block_size_x", csp::Value(7)));  // no such value
  ASSERT_TRUE(empty_view.empty());
  const auto result =
      tuner::run_portfolio(empty_view, model, tuner::default_portfolio(), options);
  EXPECT_EQ(result.merged.evaluations, 0u);
  EXPECT_TRUE(result.merged.trajectory.empty());
}

// --- Shared-ownership SubSpace handoff --------------------------------------

TEST(SubSpaceKeepalive, ViewOutlivesTheLastExternalReference) {
  auto space = std::make_shared<const searchspace::SearchSpace>(small_spec());
  const std::size_t rows = space->size();
  searchspace::SubSpace view(std::move(space));  // view holds the only ref
  EXPECT_EQ(view.size(), rows);
  EXPECT_EQ(view.parent().size(), rows);

  // Restrictions chained off the view keep the parent alive too.
  auto restricted = view.restrict(searchspace::query::eq("sh_power", csp::Value(1)));
  view = searchspace::SubSpace(restricted);  // drop the original view
  EXPECT_GT(restricted.size(), 0u);
  EXPECT_LT(restricted.size(), rows);
  EXPECT_EQ(restricted.config(0).size(), 3u);
}

TEST(SubSpaceKeepalive, NullSharedParentThrows) {
  std::shared_ptr<const searchspace::SearchSpace> null_space;
  EXPECT_THROW(searchspace::SubSpace{null_space}, std::invalid_argument);
}
