// Tests for cross-session transfer learning: the ridge Surrogate (fit
// determinism, order-independence, ranking, fingerprints), cache-seeded
// warm starts (the bit-identity wall for cold / warm-off / warm-over-empty
// sessions, top-k seeding order, stats accounting), the SurrogateGuided
// model-based optimizer (repeat-run identity, refit counters), TSEC
// merge semantics (first-insert-wins, order-independent for identical
// values, concurrent saves of one path), the transfer wire fields, and the
// TuningService warm-restart path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tunespace/searchspace/view.hpp"
#include "tunespace/tuner/optimizers.hpp"
#include "tunespace/tuner/protocol.hpp"
#include "tunespace/tuner/runner.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/session.hpp"
#include "tunespace/tuner/surrogate.hpp"

using namespace tunespace;
namespace wire = tuner::wire;

namespace {

tuner::TuningProblem transfer_spec() {
  tuner::TuningProblem spec("transfer");
  spec.add_param("block_size_x", {1, 2, 4, 8, 16, 32, 64, 128})
      .add_param("block_size_y", {1, 2, 4, 8})
      .add_param("tile", {1, 2, 3, 4})
      .add_param("sh_power", {0, 1});
  spec.add_constraint("16 <= block_size_x * block_size_y <= 512");
  spec.add_constraint("tile <= block_size_y");
  return spec;
}

/// One numeric parameter, no constraints: a landscape the linear surrogate
/// can represent exactly (gflops proportional to the parameter value).
tuner::TuningProblem ramp_spec() {
  tuner::TuningProblem spec("ramp");
  spec.add_param("x", {1, 2, 4, 8, 16, 32});
  return spec;
}

tuner::TuningOptions fixed_options(std::uint64_t seed, double budget = 60.0) {
  tuner::TuningOptions options;
  options.budget_seconds = budget;
  options.seed = seed;
  options.fixed_construction_seconds = 1.0;
  return options;
}

/// Run one session over `view`, optionally against a shared cache.
tuner::TuningRun run_with(const searchspace::SubSpace& view,
                          const tuner::PerformanceModel& model,
                          const std::string& optimizer_name,
                          const tuner::TuningOptions& options,
                          tuner::SharedEvalCache* cache = nullptr,
                          std::uint64_t cache_fp = 0,
                          tuner::SessionStats* stats = nullptr) {
  const auto optimizer = tuner::make_optimizer(optimizer_name);
  auto request = tuner::make_session_request(view, model, *optimizer, options);
  request.shared_cache = cache;
  request.cache_fingerprint = cache_fp;
  request.stats = stats;
  return tuner::run_session(request);
}

tuner::SessionStepper::CostFn cost_of(const tuner::PerformanceModel& model) {
  return [&model](const tuner::Measurement& m) {
    return model.evaluation_cost(m.gflops);
  };
}

/// A scratch directory unique to the current test.
std::filesystem::path scratch_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("tunespace_transfer_") + info->test_suite_name() +
              "_" + info->name());
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace

// --- Surrogate model --------------------------------------------------------

TEST(Surrogate, UntrainedRanksByRowAlone) {
  const searchspace::SearchSpace space(ramp_spec());
  const searchspace::SubSpace view(space);
  tuner::Surrogate surrogate;
  EXPECT_FALSE(surrogate.trained());
  EXPECT_EQ(surrogate.observation_count(), 0u);
  EXPECT_EQ(surrogate.rank(view, {3, 0, 5, 2}, tuner::ObjectiveSpec{}),
            (std::vector<std::size_t>{0, 2, 3, 5}));
}

TEST(Surrogate, LearnsAValueRampAndRanksDescending) {
  const searchspace::SearchSpace space(ramp_spec());
  const searchspace::SubSpace view(space);
  ASSERT_EQ(view.size(), 6u);

  // Target exactly linear in the parameter value: representable, so the
  // ranking must recover "bigger x is better" everywhere.
  std::vector<std::pair<std::size_t, tuner::Measurement>> observations;
  const auto value_of = [&](std::size_t row) {
    return space.config(row)[0].as_real();
  };
  for (std::size_t row = 0; row < view.size(); ++row) {
    observations.push_back({row, {10.0 + value_of(row), 0.0}});
  }
  tuner::Surrogate surrogate;
  surrogate.fit(view, observations);
  ASSERT_TRUE(surrogate.trained());
  EXPECT_EQ(surrogate.observation_count(), view.size());

  std::vector<std::size_t> rows{0, 1, 2, 3, 4, 5};
  std::vector<std::size_t> by_value = rows;
  std::sort(by_value.begin(), by_value.end(), [&](std::size_t a, std::size_t b) {
    return value_of(a) > value_of(b);
  });
  EXPECT_EQ(surrogate.rank(view, rows, tuner::ObjectiveSpec{}), by_value);
  EXPECT_GT(surrogate.predict(view, by_value.front()).gflops,
            surrogate.predict(view, by_value.back()).gflops);
}

TEST(Surrogate, FitIsIndependentOfObservationOrder) {
  const searchspace::SearchSpace space(transfer_spec());
  const searchspace::SubSpace view(space);
  tuner::HotspotModel model;
  const std::vector<std::string> names = view.problem().variable_names();

  std::vector<std::pair<std::size_t, tuner::Measurement>> forward;
  for (std::size_t row = 0; row < 40; ++row) {
    forward.push_back({row, {model.gflops(names, view.config(row)), 0.0}});
  }
  std::vector<std::pair<std::size_t, tuner::Measurement>> backward(
      forward.rbegin(), forward.rend());
  // Duplicates with identical values (the only duplicates a deterministic
  // model can produce) must not perturb the fit either.
  auto with_duplicates = forward;
  with_duplicates.push_back(forward[3]);
  with_duplicates.insert(with_duplicates.begin(), forward[17]);

  tuner::Surrogate a, b, c;
  a.fit(view, forward);
  b.fit(view, backward);
  c.fit(view, with_duplicates);
  ASSERT_TRUE(a.trained());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), c.fingerprint());
  EXPECT_EQ(a.observation_count(), 40u);
  EXPECT_EQ(c.observation_count(), 40u);  // duplicates deduplicated

  // And the fingerprint really separates models: a different observation
  // set trains different weights.
  tuner::Surrogate d;
  d.fit(view, std::vector<std::pair<std::size_t, tuner::Measurement>>(
                  forward.begin(), forward.begin() + 20));
  EXPECT_NE(a.fingerprint(), d.fingerprint());
  EXPECT_NE(a.fingerprint(), tuner::Surrogate{}.fingerprint());
}

// --- Warm-start seeding -----------------------------------------------------

TEST(WarmStart, ColdWarmOffAndWarmOverEmptyCacheAreBitIdentical) {
  const searchspace::SearchSpace space(transfer_spec());
  const searchspace::SubSpace view(space);
  tuner::HotspotModel model;

  const auto cold =
      run_with(view, model, "random-sampling", fixed_options(9));
  tuner::SharedEvalCache attached;
  const auto warm_off = run_with(view, model, "random-sampling",
                                 fixed_options(9), &attached, 77);
  tuner::SharedEvalCache empty;
  tuner::TuningOptions warm_options = fixed_options(9);
  warm_options.warm_start = true;
  const auto warm_empty =
      run_with(view, model, "random-sampling", warm_options, &empty, 77);

  // The hard gate: transfer machinery is invisible until the cache has
  // rows — all three runs trace the exact same trajectory.
  EXPECT_EQ(cold, warm_off);
  EXPECT_EQ(cold, warm_empty);
}

TEST(WarmStart, SeedsTopKByScoreAndCountsStats) {
  const searchspace::SearchSpace space(transfer_spec());
  const searchspace::SubSpace view(space);
  tuner::HotspotModel model;
  const std::uint64_t fp = 42;

  // 20 cached rows with known scores: 0 -> 1 GFLOP/s ... 19 -> 20 GFLOP/s.
  tuner::SharedEvalCache cache;
  for (std::uint64_t row = 0; row < 20; ++row) {
    cache.insert(fp, row, {static_cast<double>(row + 1), 0.0});
  }

  tuner::TuningOptions options = fixed_options(5);
  options.warm_start = true;
  tuner::SessionStats stats;
  const auto optimizer = tuner::make_optimizer("random-sampling");
  tuner::SessionStepper stepper(view, "optimized", 1.0, *optimizer, options,
                                cost_of(model), &cache, fp, &stats);

  // Top-k (default 8) seeds, best cached score first.
  ASSERT_EQ(stepper.seeded().size(), 8u);
  EXPECT_EQ(stats.seeded_rows, 8u);
  for (std::size_t i = 0; i < stepper.seeded().size(); ++i) {
    EXPECT_EQ(stepper.seeded()[i].second.gflops, 20.0 - static_cast<double>(i));
  }
  // Seeds are charged as normal evaluations and move the incumbent.
  EXPECT_GE(stepper.run().evaluations, 8u);
  EXPECT_GE(stepper.run().best_gflops, 20.0);

  while (auto suggestion = stepper.suggest()) {
    stepper.report({model.gflops(stepper.param_names(), suggestion->config), 0.0});
  }
  EXPECT_TRUE(stepper.finished());
  EXPECT_GE(stepper.run().best_gflops, 20.0);
}

TEST(WarmStart, TopKIsEightAndBoundedByCacheSize) {
  const searchspace::SearchSpace space(transfer_spec());
  const searchspace::SubSpace view(space);
  tuner::HotspotModel model;
  const std::uint64_t fp = 43;
  tuner::SharedEvalCache cache;
  cache.insert(fp, 2, {5.0, 0.0});
  cache.insert(fp, 7, {9.0, 0.0});

  tuner::TuningOptions options = fixed_options(5);
  options.warm_start = true;
  // Fewer cached rows than the top-k: every one of them seeds.
  tuner::SessionStats stats;
  const auto run = run_with(view, model, "random-sampling", options, &cache,
                            fp, &stats);
  EXPECT_EQ(stats.seeded_rows, 2u);
  EXPECT_GE(run.best_gflops, 9.0);

  // More cached rows than the top-k: only the best 8 seed.
  tuner::SharedEvalCache larger;
  for (std::uint64_t row = 0; row < 12; ++row) {
    larger.insert(fp, row, {1.0 + static_cast<double>(row), 0.0});
  }
  tuner::SessionStats capped_stats;
  run_with(view, model, "random-sampling", options, &larger, fp, &capped_stats);
  EXPECT_EQ(capped_stats.seeded_rows, 8u);
}

TEST(WarmStart, TransferChangesTheTrajectoryOnceTheCacheHasRows) {
  const searchspace::SearchSpace space(transfer_spec());
  const searchspace::SubSpace view(space);
  tuner::HotspotModel model;
  const std::uint64_t fp = 44;

  tuner::SharedEvalCache cache;
  const auto first = run_with(view, model, "random-sampling",
                              fixed_options(21), &cache, fp);
  ASSERT_GT(cache.size(), 0u);

  tuner::TuningOptions warm_options = fixed_options(22);
  warm_options.warm_start = true;
  tuner::SessionStats stats;
  const auto warm = run_with(view, model, "random-sampling", warm_options,
                             &cache, fp, &stats);
  const auto cold = run_with(view, model, "random-sampling", fixed_options(22));

  EXPECT_GT(stats.seeded_rows, 0u);
  EXPECT_NE(warm.trajectory, cold.trajectory);
  // The warm session starts from the cache's best row, so its first
  // trajectory point is already at the first session's level.
  ASSERT_FALSE(warm.trajectory.empty());
  EXPECT_GE(warm.trajectory.front().best_gflops, first.best_gflops);
  EXPECT_GE(warm.best_gflops, first.best_gflops);
}

// --- SurrogateGuided optimizer ----------------------------------------------

TEST(SurrogateGuided, NamedInThePortfolioAndRepeatRunsAreIdentical) {
  EXPECT_NE(std::find(tuner::optimizer_names().begin(),
                      tuner::optimizer_names().end(), "surrogate"),
            tuner::optimizer_names().end());

  const searchspace::SearchSpace space(transfer_spec());
  const searchspace::SubSpace view(space);
  tuner::HotspotModel model;
  const auto a = run_with(view, model, "surrogate", fixed_options(31));
  const auto b = run_with(view, model, "surrogate", fixed_options(31));
  EXPECT_EQ(a, b);
  EXPECT_GT(a.evaluations, 0u);
  const auto c = run_with(view, model, "surrogate", fixed_options(32));
  EXPECT_NE(a.trajectory, c.trajectory);
}

TEST(SurrogateGuided, RefitsAreCountedAndSeedsTrainTheModel) {
  const searchspace::SearchSpace space(transfer_spec());
  const searchspace::SubSpace view(space);
  tuner::HotspotModel model;
  const std::uint64_t fp = 45;

  tuner::SessionStats cold_stats;
  const auto cold = run_with(view, model, "surrogate", fixed_options(33),
                             nullptr, 0, &cold_stats);
  EXPECT_GT(cold_stats.surrogate_refits, 0u);

  // Seeded observations are free training data: the warm surrogate session
  // still completes, still refits, and starts at the cached best.
  tuner::SharedEvalCache cache;
  const auto first = run_with(view, model, "random-sampling",
                              fixed_options(34), &cache, fp);
  tuner::TuningOptions warm_options = fixed_options(35);
  warm_options.warm_start = true;
  tuner::SessionStats warm_stats;
  const auto warm = run_with(view, model, "surrogate", warm_options, &cache,
                             fp, &warm_stats);
  EXPECT_GT(warm_stats.seeded_rows, 0u);
  EXPECT_GT(warm_stats.surrogate_refits, 0u);
  EXPECT_GE(warm.best_gflops, first.best_gflops);
  (void)cold;
}

// --- TSEC persistence and merge semantics -----------------------------------

TEST(EvalCachePersistence, MergeIsFirstInsertWinsAndOrderIndependent) {
  const auto dir = scratch_dir();
  std::filesystem::create_directories(dir);
  const std::string file_a = (dir / "a.tsv").string();
  const std::string file_b = (dir / "b.tsv").string();

  // Overlapping key (7, 10) carries the *same* value in both files;
  // (7, 11) exists only in A, (7, 12) only in B.
  tuner::SharedEvalCache a;
  a.insert(7, 10, {1.5, 0.5});
  a.insert(7, 11, {2.5, 0.0});
  tuner::SharedEvalCache b;
  b.insert(7, 10, {1.5, 0.5});
  b.insert(7, 12, {3.5, 1.0});
  save_shared_eval_cache(a, file_a);
  save_shared_eval_cache(b, file_b);

  tuner::SharedEvalCache ab, ba;
  EXPECT_EQ(load_shared_eval_cache(ab, file_a), 2u);
  EXPECT_EQ(load_shared_eval_cache(ab, file_b), 2u);
  EXPECT_EQ(load_shared_eval_cache(ba, file_b), 2u);
  EXPECT_EQ(load_shared_eval_cache(ba, file_a), 2u);

  // Identical values for overlapping keys: both load orders converge on
  // the same merged cache.
  EXPECT_EQ(ab.size(), 3u);
  EXPECT_EQ(ba.size(), 3u);
  EXPECT_EQ(ab.entries_for(7), ba.entries_for(7));

  // Conflicting values keep whichever arrived first (SharedEvalCache
  // insert semantics), so load order decides — exactly first-insert-wins.
  tuner::SharedEvalCache c;
  c.insert(7, 10, {9.0, 9.0});
  const std::string file_c = (dir / "c.tsv").string();
  save_shared_eval_cache(c, file_c);
  tuner::SharedEvalCache ac, ca;
  load_shared_eval_cache(ac, file_a);
  load_shared_eval_cache(ac, file_c);
  EXPECT_EQ(ac.lookup(7, 10)->gflops, 1.5);
  load_shared_eval_cache(ca, file_c);
  load_shared_eval_cache(ca, file_a);
  EXPECT_EQ(ca.lookup(7, 10)->gflops, 9.0);

  std::filesystem::remove_all(dir);
}

TEST(EvalCachePersistence, MissingAndForeignFilesLoadAsEmpty) {
  const auto dir = scratch_dir();
  std::filesystem::create_directories(dir);
  tuner::SharedEvalCache cache;
  EXPECT_EQ(load_shared_eval_cache(cache, (dir / "absent.tsv").string()), 0u);
  {
    std::FILE* f = std::fopen((dir / "garbage.tsv").string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a TSEC file\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(load_shared_eval_cache(cache, (dir / "garbage.tsv").string()), 0u);
  EXPECT_EQ(cache.size(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(EvalCachePersistence, ConcurrentSavesOfOnePathAllSucceed) {
  const auto dir = scratch_dir();
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "eval_cache.tsv").string();
  constexpr std::uint64_t kRows = 5000;
  tuner::SharedEvalCache cache;
  for (std::uint64_t row = 0; row < kRows; ++row) {
    cache.insert(7, row, {1.0 + static_cast<double>(row), 0.5});
  }
  // Four writers publish the same cache to one path again and again: every
  // save must succeed, and whichever rename lands last leaves a whole file.
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        try {
          save_shared_eval_cache(cache, path);
        } catch (const ServiceError&) {
          failures++;
        }
      }
    });
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(failures.load(), 0);
  tuner::SharedEvalCache loaded;
  EXPECT_EQ(load_shared_eval_cache(loaded, path), kRows);
  EXPECT_EQ(loaded.entries_for(7), cache.entries_for(7));
  // No writer left its temp file behind.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

// --- Transfer wire fields ---------------------------------------------------

TEST(TransferWire, OpenSessionRequestCarriesTransferFlags) {
  tuner::OpenSessionRequest request;
  request.kernel = "gemm";
  request.optimizer = "surrogate";
  request.warm_start = true;
  EXPECT_EQ(wire::open_session_request_from_json(wire::to_json(request)),
            request);

  // Absent means off: a cold envelope carries no transfer field and
  // decodes back to the defaults.
  tuner::OpenSessionRequest cold;
  cold.kernel = "gemm";
  const auto encoded = wire::to_json(cold);
  EXPECT_EQ(encoded.find("warm_start"), nullptr);
  EXPECT_EQ(encoded.find("surrogate"), nullptr);
  const auto decoded = wire::open_session_request_from_json(encoded);
  EXPECT_FALSE(decoded.warm_start);
  EXPECT_EQ(decoded.optimizer, "random-sampling");

  // A "surrogate": true flag names the surrogate optimizer, whatever the
  // optimizer field says; false leaves the field alone.
  auto flagged = wire::to_json(cold);
  flagged.set("surrogate", true);
  EXPECT_EQ(wire::open_session_request_from_json(flagged).optimizer, "surrogate");
  flagged.set("surrogate", false);
  EXPECT_EQ(wire::open_session_request_from_json(flagged).optimizer,
            "random-sampling");
}

TEST(TransferWire, SessionInfoAndServiceStatsCarryTransferCounters) {
  tuner::SessionInfo info;
  info.session_id = 5;
  info.kernel = "gemm";
  info.seeded_rows = 8;
  info.surrogate_refits = 3;
  EXPECT_EQ(wire::session_info_from_json(wire::to_json(info)), info);

  tuner::ServiceStats stats;
  stats.live_sessions = 1;
  stats.seeded_rows = 16;
  stats.surrogate_refits = 7;
  EXPECT_EQ(wire::service_stats_from_json(wire::to_json(stats)), stats);
}

// --- Service front end ------------------------------------------------------

TEST(ServiceTransfer, WarmRestartSeedsFromThePersistedCache) {
  const auto dir = scratch_dir();
  tuner::TuningServiceOptions service_options;
  service_options.state_dir = dir.string();

  tuner::OpenSessionRequest request;
  request.kernel = "hotspot";
  request.seed = 3;
  request.budget_seconds = 1.0;
  request.fixed_construction_seconds = 0.25;

  const auto* kernel = tuner::find_service_kernel("hotspot");
  ASSERT_NE(kernel, nullptr);
  {
    tuner::TuningService service(service_options);
    const auto opened = service.open(request);
    EXPECT_EQ(opened.info.seeded_rows, 0u);  // nothing persisted yet
    const std::vector<std::string> names = opened.info.param_names;
    while (true) {
      const auto ask = service.suggest({opened.session_id});
      if (ask.finished) break;
      csp::Config config;
      for (const auto& entry : ask.config) config.push_back(entry.value);
      service.report(
          {opened.session_id, kernel->model->gflops(names, config), -1.0});
    }
    service.close({opened.session_id});
    service.save_state();
  }

  tuner::TuningService restarted(service_options);
  request.seed = 4;  // a different trajectory, seeded from the old one
  request.warm_start = true;
  const auto warm = restarted.open(request);
  EXPECT_GT(warm.info.seeded_rows, 0u);
  EXPECT_GT(restarted.stats().seeded_rows, 0u);
  restarted.close({warm.session_id});
  std::filesystem::remove_all(dir);
}

TEST(ServiceTransfer, SurrogateFlagSelectsTheModelBasedOptimizer) {
  tuner::TuningService service;
  tuner::OpenSessionRequest request;
  request.kernel = "hotspot";
  request.seed = 2;
  request.budget_seconds = 1.0;
  request.fixed_construction_seconds = 0.25;
  request.optimizer = "surrogate";
  const auto opened = service.open(request);
  EXPECT_EQ(opened.info.optimizer, "surrogate");
  const auto closed = service.close({opened.session_id});
  EXPECT_EQ(closed.run.method_name, "optimized");

  // An open body that sets the "surrogate" flag instead of naming the
  // optimizer reaches the same optimizer.
  auto body = wire::to_json(request);
  body.set("optimizer", "random-sampling");
  body.set("surrogate", true);
  const auto flagged = service.open(wire::open_session_request_from_json(body));
  EXPECT_EQ(flagged.info.optimizer, "surrogate");
  service.close({flagged.session_id});
}
