// Tests for the SessionStepper ask/tell core: bit-identity of a manual
// suggest/report replay against the closed-loop run_session path for every
// optimizer (over the full space and a restricted view), the ask/tell
// ordering contract, cancellation, shared-cache interaction, custom
// measurement charges, and which thread run_session, the SessionManager and
// the stepper run the optimizer on.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "tunespace/searchspace/query.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/tuner/runner.hpp"
#include "tunespace/tuner/session.hpp"

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

tuner::TuningOptions fixed_options(std::uint64_t seed, double budget = 120.0) {
  tuner::TuningOptions options;
  options.budget_seconds = budget;
  options.seed = seed;
  options.fixed_construction_seconds = 3.0;
  return options;
}

tuner::SessionStepper::CostFn cost_of(const tuner::PerformanceModel& model) {
  return [&model](const tuner::Measurement& m) {
    return model.evaluation_cost(m.gflops);
  };
}

/// The closed loop a remote client would run: answer every suggestion with
/// the model.  By the stepper's determinism contract this must reproduce
/// run_session bit for bit.
tuner::TuningRun drive(tuner::SessionStepper& stepper,
                       const tuner::PerformanceModel& model) {
  while (auto ask = stepper.suggest()) {
    stepper.report({model.gflops(stepper.param_names(), ask->config), 0.0});
  }
  EXPECT_TRUE(stepper.finished());
  return stepper.take_run();
}

}  // namespace

// --- Ask/tell replay is bit-identical to the closed loop --------------------

TEST(Stepper, ReplayMatchesClosedLoopForEveryOptimizerFullSpace) {
  const auto spec = small_spec();
  const searchspace::SearchSpace space(spec);
  tuner::HotspotModel model;
  for (const auto& name : tuner::optimizer_names()) {
    auto opt_loop = tuner::make_optimizer(name);
    auto loop_request = tuner::make_session_request(
        searchspace::SubSpace(space), model, *opt_loop, fixed_options(7),
        "optimized");
    loop_request.construction_seconds = space.construction_seconds();
    const auto loop = tuner::run_session(loop_request);

    auto opt_step = tuner::make_optimizer(name);
    tuner::SessionStepper stepper(space, "optimized",
                                  space.construction_seconds(), *opt_step,
                                  fixed_options(7), cost_of(model));
    const auto replay = drive(stepper, model);
    EXPECT_EQ(replay, loop) << "optimizer " << name;
  }
}

TEST(Stepper, ReplayMatchesClosedLoopForEveryOptimizerRestrictedView) {
  const auto spec = small_spec();
  const auto space =
      std::make_shared<searchspace::SearchSpace>(spec);
  const searchspace::SubSpace view =
      searchspace::SubSpace(space).restrict(searchspace::query::eq("sh_power", 1));
  ASSERT_GT(view.size(), 0u);
  tuner::HotspotModel model;
  for (const auto& name : tuner::optimizer_names()) {
    auto opt_loop = tuner::make_optimizer(name);
    auto loop_request = tuner::make_session_request(
        view, model, *opt_loop, fixed_options(23), "optimized");
    loop_request.construction_seconds = space->construction_seconds();
    const auto loop = tuner::run_session(loop_request);

    auto opt_step = tuner::make_optimizer(name);
    tuner::SessionStepper stepper(view, "optimized",
                                  space->construction_seconds(), *opt_step,
                                  fixed_options(23), cost_of(model));
    const auto replay = drive(stepper, model);
    EXPECT_EQ(replay, loop) << "optimizer " << name;
  }
}

TEST(Stepper, SpecRequestsAgreeWithTheStepper) {
  const auto spec = small_spec();
  tuner::HotspotModel model;
  tuner::RandomSearch rs;
  const auto legacy = tuner::run_session(tuner::make_session_request(
      spec, tuner::optimized_method(), model, rs, fixed_options(41)));

  const searchspace::SearchSpace space(spec, tuner::optimized_method());
  tuner::RandomSearch rs2;
  tuner::SessionStepper stepper(space, "optimized",
                                space.construction_seconds(), rs2,
                                fixed_options(41), cost_of(model));
  EXPECT_EQ(drive(stepper, model), legacy);
}

// --- Ordering contract ------------------------------------------------------

TEST(Stepper, ReportWithoutSuggestionThrowsWrongState) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  tuner::RandomSearch rs;
  tuner::SessionStepper stepper(space, "optimized", 0.0, rs, fixed_options(1),
                                cost_of(model));
  try {
    stepper.report({1.0, 0.0});
    FAIL() << "report before suggest must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWrongState);
  }
}

TEST(Stepper, SuggestTwiceWithoutReportThrowsWrongState) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  tuner::RandomSearch rs;
  tuner::SessionStepper stepper(space, "optimized", 0.0, rs, fixed_options(1),
                                cost_of(model));
  ASSERT_TRUE(stepper.suggest().has_value());
  EXPECT_TRUE(stepper.awaiting_report());
  try {
    stepper.suggest();
    FAIL() << "second suggest without report must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWrongState);
  }
}

TEST(Stepper, FinishedSessionIsIdempotentOnSuggestAndRejectsReport) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  tuner::RandomSearch rs;
  // A zero-second budget finishes during construction.
  tuner::SessionStepper stepper(space, "optimized", 0.0, rs,
                                fixed_options(1, 0.0), cost_of(model));
  EXPECT_TRUE(stepper.finished());
  EXPECT_FALSE(stepper.suggest().has_value());
  EXPECT_FALSE(stepper.suggest().has_value());  // idempotent
  try {
    stepper.report({1.0, 0.0});
    FAIL() << "report after completion must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSessionFinished);
  }
}

TEST(Stepper, TakeRunBeforeFinishThrowsWrongState) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  tuner::RandomSearch rs;
  tuner::SessionStepper stepper(space, "optimized", 0.0, rs, fixed_options(1),
                                cost_of(model));
  ASSERT_TRUE(stepper.suggest().has_value());
  try {
    stepper.take_run();
    FAIL() << "take_run on a live session must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWrongState);
  }
  stepper.cancel();
}

// --- Cancellation -----------------------------------------------------------

TEST(Stepper, CancelMidSessionYieldsPartialRun) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  tuner::RandomSearch rs;
  tuner::SessionStepper stepper(space, "optimized", 0.0, rs, fixed_options(3),
                                cost_of(model));
  for (int i = 0; i < 3; ++i) {
    auto ask = stepper.suggest();
    ASSERT_TRUE(ask.has_value());
    stepper.report({model.gflops(stepper.param_names(), ask->config), 0.0});
  }
  stepper.cancel();
  EXPECT_TRUE(stepper.finished());
  EXPECT_FALSE(stepper.suggest().has_value());
  const auto run = stepper.take_run();
  EXPECT_EQ(run.evaluations, 3u);
  EXPECT_GT(run.best_gflops, 0.0);
  stepper.cancel();  // idempotent
}

TEST(Stepper, CancelWithOutstandingSuggestionIsSafe) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  tuner::RandomSearch rs;
  tuner::SessionStepper stepper(space, "optimized", 0.0, rs, fixed_options(3),
                                cost_of(model));
  ASSERT_TRUE(stepper.suggest().has_value());
  stepper.cancel();
  EXPECT_TRUE(stepper.finished());
  EXPECT_FALSE(stepper.suggest().has_value());
}

// --- Shared cache and custom charges ----------------------------------------

TEST(Stepper, SharedCacheHitsResolveInternallyWithoutChangingTheRun) {
  const auto spec = small_spec();
  const searchspace::SearchSpace space(spec);
  tuner::HotspotModel model;

  tuner::RandomSearch rs1;
  tuner::SessionStepper cold(space, "optimized", 0.0, rs1, fixed_options(11),
                             cost_of(model));
  const auto cold_run = drive(cold, model);

  // Prime a cache with every measurement of the space, then replay: the
  // stepper answers all asks internally — the driver sees zero suggestions —
  // yet the TuningRun must be bit-identical.
  tuner::SharedEvalCache cache;
  const std::uint64_t fp = 99;
  const searchspace::SubSpace view(
      std::make_shared<searchspace::SearchSpace>(spec));
  std::vector<std::string> names;
  for (std::size_t p = 0; p < view.num_params(); ++p) {
    names.push_back(view.param_name(p));
  }
  for (std::size_t row = 0; row < view.size(); ++row) {
    cache.insert(fp, view.parent_row(row),
                 {model.gflops(names, view.config(row)), 0.0});
  }
  tuner::RandomSearch rs2;
  tuner::SessionStats stats;
  tuner::SessionStepper warm(view, "optimized", 0.0, rs2, fixed_options(11),
                             cost_of(model), &cache, fp, &stats);
  EXPECT_FALSE(warm.suggest().has_value());  // everything served by the cache
  EXPECT_EQ(warm.take_run(), cold_run);
  EXPECT_EQ(stats.model_evaluations, 0u);
  EXPECT_EQ(stats.shared_cache_hits, cold_run.evaluations);
}

TEST(Stepper, ReportedMeasureSecondsChargeTheClock) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  tuner::RandomSearch rs;
  tuner::TuningOptions options = fixed_options(5, 100.0);
  options.overhead_per_request = 0.0;
  options.fixed_construction_seconds = 0.0;
  tuner::SessionStepper stepper(space, "optimized", 0.0, rs, options,
                                cost_of(model));
  auto ask = stepper.suggest();
  ASSERT_TRUE(ask.has_value());
  stepper.report({10.0, 0.0}, 2.5);  // explicit wall charge instead of cost(gflops)
  EXPECT_DOUBLE_EQ(stepper.now(), 2.5);
  stepper.cancel();
}

TEST(Stepper, BestTracksTheImprovingSuggestion) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  tuner::RandomSearch rs;
  tuner::SessionStepper stepper(space, "optimized", 0.0, rs, fixed_options(9),
                                cost_of(model));
  EXPECT_FALSE(stepper.best().has_value());
  auto ask = stepper.suggest();
  ASSERT_TRUE(ask.has_value());
  const std::size_t first_row = ask->row;
  stepper.report({model.gflops(stepper.param_names(), ask->config), 0.0});
  ASSERT_TRUE(stepper.best().has_value());
  EXPECT_EQ(stepper.best()->row, first_row);
  stepper.cancel();
}

// --- Thread model -----------------------------------------------------------

namespace {

/// Random sampling that records the thread its run() executes on.
class ThreadRecorder : public tuner::Optimizer {
 public:
  explicit ThreadRecorder(std::thread::id& ran_on) : ran_on_(ran_on) {}
  std::string name() const override { return "thread-recorder"; }
  void run(tuner::EvalContext& ctx) override {
    ran_on_ = std::this_thread::get_id();
    inner_.run(ctx);
  }

 private:
  std::thread::id& ran_on_;
  tuner::RandomSearch inner_;
};

}  // namespace

TEST(ThreadModel, RunSessionRunsTheOptimizerOnTheCallingThread) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  std::thread::id ran_on;
  ThreadRecorder recorder(ran_on);
  const auto run = tuner::run_session(
      tuner::make_session_request(space, model, recorder, fixed_options(3)));
  EXPECT_GT(run.evaluations, 0u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadModel, SingleWorkerManagerRunsTheOptimizerOnTheCallingThread) {
  tuner::SessionManagerOptions options;
  options.workers = 1;
  tuner::SessionManager manager(options);
  std::thread::id ran_on;
  tuner::SessionRequest request;
  request.spec = small_spec();
  request.model = std::make_shared<tuner::HotspotModel>();
  request.make_optimizer = [&ran_on] { return std::make_unique<ThreadRecorder>(ran_on); };
  request.options = fixed_options(3);
  const auto results = manager.run_all({request});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].run.evaluations, 0u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadModel, StepperRunsTheOptimizerOnItsWorkerThread) {
  const searchspace::SearchSpace space(small_spec());
  tuner::HotspotModel model;
  std::thread::id ran_on;
  ThreadRecorder recorder(ran_on);
  tuner::SessionStepper stepper(space, "optimized", 0.0, recorder, fixed_options(3),
                                cost_of(model));
  // The constructor returns with the worker parked at its first request, so
  // the recorded id is visible here.
  EXPECT_NE(ran_on, std::thread::id());
  EXPECT_NE(ran_on, std::this_thread::get_id());
  EXPECT_GT(drive(stepper, model).evaluations, 0u);
}
