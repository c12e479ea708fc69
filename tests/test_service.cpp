// Tests for the TuningService front end: the kernel catalog, admission
// control (global, per-tenant, budget and evaluation caps), the ask/tell
// entry points and their error codes, graceful drain, and warm restart
// from a persisted state directory.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "tunespace/tuner/service.hpp"

using namespace tunespace;
using tuner::TuningService;

namespace {

tuner::OpenSessionRequest quick_request(const std::string& kernel,
                                        std::uint64_t seed = 1,
                                        double budget = 1.0) {
  tuner::OpenSessionRequest request;
  request.kernel = kernel;
  request.seed = seed;
  request.budget_seconds = budget;
  // Fix the construction charge so runs are bit-reproducible across
  // services and restarts (measured latency is machine noise).
  request.fixed_construction_seconds = 0.25;
  return request;
}

/// Drive a session to completion answering with the catalog model; returns
/// the closed run summary.
tuner::RunSummary drive(TuningService& service, std::uint64_t id,
                        const tuner::ServiceKernel& kernel,
                        const std::vector<std::string>& names) {
  while (true) {
    const auto ask = service.suggest({id});
    if (ask.finished) break;
    csp::Config config;
    config.reserve(ask.config.size());
    for (const auto& entry : ask.config) config.push_back(entry.value);
    service.report({id, kernel.model->gflops(names, config), -1.0});
  }
  return service.close({id}).run;
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ServiceError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

/// A scratch directory unique to the current test.
std::filesystem::path scratch_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("tunespace_service_") + info->test_suite_name() + "_" +
              info->name());
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace

// --- Catalog ----------------------------------------------------------------

TEST(ServiceCatalog, CarriesTheTable2KernelsUnderWireNames) {
  ASSERT_NE(tuner::find_service_kernel("gemm"), nullptr);
  ASSERT_NE(tuner::find_service_kernel("hotspot"), nullptr);
  ASSERT_NE(tuner::find_service_kernel("dedispersion"), nullptr);
  EXPECT_EQ(tuner::find_service_kernel("no-such-kernel"), nullptr);
  EXPECT_EQ(tuner::service_catalog().size(), 8u);
  // Dedicated surfaces for the kernels the paper tunes end to end.
  EXPECT_EQ(tuner::find_service_kernel("gemm")->model->name(), "gemm");
  EXPECT_EQ(tuner::find_service_kernel("hotspot")->model->name(), "hotspot");
}

// --- Open / validation ------------------------------------------------------

TEST(Service, OpenRejectsUnknownKernelOptimizerAndMethod) {
  TuningService service;
  auto request = quick_request("no-such-kernel");
  EXPECT_EQ(code_of([&] { service.open(request); }), ErrorCode::kInvalidArgument);

  request = quick_request("hotspot");
  request.optimizer = "no-such-optimizer";
  EXPECT_EQ(code_of([&] { service.open(request); }), ErrorCode::kInvalidArgument);

  request = quick_request("hotspot");
  request.method = "no-such-method";
  EXPECT_EQ(code_of([&] { service.open(request); }), ErrorCode::kInvalidArgument);

  request = quick_request("hotspot");
  request.budget_seconds = -1.0;
  EXPECT_EQ(code_of([&] { service.open(request); }), ErrorCode::kInvalidArgument);
  EXPECT_EQ(service.stats().total_opened, 0u);
}

TEST(Service, OpenAppliesRestrictionsAndRejectsUnknownParams) {
  TuningService service;
  auto request = quick_request("hotspot");
  request.restrictions = {{"sh_power", {csp::Value(1)}}};
  const auto opened = service.open(request);
  const auto unrestricted_rows =
      tuner::find_service_kernel("hotspot") != nullptr
          ? service.open(quick_request("hotspot")).info.space_rows
          : 0;
  EXPECT_GT(opened.info.space_rows, 0u);
  EXPECT_LT(opened.info.space_rows, unrestricted_rows);

  auto bad = quick_request("hotspot");
  bad.restrictions = {{"no_such_param", {csp::Value(1)}}};
  EXPECT_EQ(code_of([&] { service.open(bad); }), ErrorCode::kInvalidArgument);
}

TEST(Service, SessionsOverTheSameKernelShareOneSpace) {
  TuningService service;
  const auto first = service.open(quick_request("hotspot", 1));
  const auto second = service.open(quick_request("hotspot", 2));
  EXPECT_FALSE(first.info.shared_space);
  EXPECT_TRUE(second.info.shared_space);
  EXPECT_EQ(service.stats().spaces_built, 1u);
  EXPECT_EQ(service.stats().spaces_shared, 1u);
}

// --- Admission control ------------------------------------------------------

TEST(Service, GlobalLiveSessionLimitIsEnforced) {
  tuner::TuningServiceOptions options;
  options.limits.max_live_sessions = 2;
  TuningService service(options);
  const auto a = service.open(quick_request("hotspot", 1));
  service.open(quick_request("hotspot", 2));
  EXPECT_EQ(code_of([&] { service.open(quick_request("hotspot", 3)); }),
            ErrorCode::kAdmissionLimit);
  EXPECT_EQ(service.stats().total_rejected, 1u);
  // Closing frees the slot.
  service.close({a.session_id});
  service.open(quick_request("hotspot", 3));
}

TEST(Service, PerTenantLimitIsIndependentAcrossTenants) {
  tuner::TuningServiceOptions options;
  options.limits.max_sessions_per_tenant = 1;
  TuningService service(options);
  auto request = quick_request("hotspot", 1);
  request.tenant = "alice";
  service.open(request);
  EXPECT_EQ(code_of([&] { service.open(request); }), ErrorCode::kAdmissionLimit);
  request.tenant = "bob";  // a different bucket
  service.open(request);
}

TEST(Service, BudgetCapRejectsOversizedSessions) {
  tuner::TuningServiceOptions options;
  options.limits.max_budget_seconds = 10.0;
  TuningService service(options);
  EXPECT_EQ(code_of([&] { service.open(quick_request("hotspot", 1, 60.0)); }),
            ErrorCode::kAdmissionLimit);
  service.open(quick_request("hotspot", 1, 5.0));
}

TEST(Service, EvaluationCapFinishesTheSessionEarly) {
  tuner::TuningServiceOptions options;
  options.limits.max_evaluations_per_session = 3;
  TuningService service(options);
  const auto& kernel = *tuner::find_service_kernel("hotspot");
  const auto opened = service.open(quick_request("hotspot", 1, 500.0));
  const auto run = drive(service, opened.session_id, kernel,
                         opened.info.param_names);
  EXPECT_EQ(run.evaluations, 3u);
}

// --- Entry-point error codes ------------------------------------------------

TEST(Service, UnknownSessionIdsAreRejectedEverywhere) {
  TuningService service;
  EXPECT_EQ(code_of([&] { service.suggest({42}); }), ErrorCode::kUnknownSession);
  EXPECT_EQ(code_of([&] { service.report({42, 1.0}); }),
            ErrorCode::kUnknownSession);
  EXPECT_EQ(code_of([&] { service.best({42}); }), ErrorCode::kUnknownSession);
  EXPECT_EQ(code_of([&] { service.info(42); }), ErrorCode::kUnknownSession);
  EXPECT_EQ(code_of([&] { service.close({42}); }), ErrorCode::kUnknownSession);
}

TEST(Service, AskTellOrderingViolationsSurfaceAsWrongState) {
  TuningService service;
  const auto opened = service.open(quick_request("hotspot"));
  EXPECT_EQ(code_of([&] { service.report({opened.session_id, 1.0}); }),
            ErrorCode::kWrongState);
  const auto ask = service.suggest({opened.session_id});
  ASSERT_FALSE(ask.finished);
  EXPECT_EQ(code_of([&] { service.suggest({opened.session_id}); }),
            ErrorCode::kWrongState);
  EXPECT_TRUE(service.info(opened.session_id).awaiting_report);
}

TEST(Service, BestReportsTheImprovingConfiguration) {
  TuningService service;
  const auto& kernel = *tuner::find_service_kernel("hotspot");
  const auto opened = service.open(quick_request("hotspot"));
  EXPECT_TRUE(service.best({opened.session_id}).config.empty());
  const auto ask = service.suggest({opened.session_id});
  ASSERT_FALSE(ask.finished);
  csp::Config config;
  for (const auto& entry : ask.config) config.push_back(entry.value);
  const double gflops = kernel.model->gflops(opened.info.param_names, config);
  const auto reported = service.report({opened.session_id, gflops, -1.0});
  EXPECT_TRUE(reported.improved);
  const auto best = service.best({opened.session_id});
  EXPECT_DOUBLE_EQ(best.best_gflops, gflops);
  EXPECT_EQ(best.config, ask.config);
}

// --- Drain ------------------------------------------------------------------

TEST(Service, DrainRejectsNewSessionsAndCompletesWhenSessionsClose) {
  TuningService service;
  const auto opened = service.open(quick_request("hotspot"));
  service.begin_drain();
  EXPECT_TRUE(service.draining());
  EXPECT_FALSE(service.drained());
  EXPECT_EQ(code_of([&] { service.open(quick_request("hotspot", 2)); }),
            ErrorCode::kDraining);
  EXPECT_FALSE(service.wait_drained(0.05));  // a session is still live
  service.close({opened.session_id});
  EXPECT_TRUE(service.wait_drained(5.0));
  EXPECT_TRUE(service.drained());
}

// --- Warm restart -----------------------------------------------------------

TEST(Service, WarmRestartReplaysFromThePersistedEvalCache) {
  const auto dir = scratch_dir();
  const auto& kernel = *tuner::find_service_kernel("hotspot");

  tuner::RunSummary cold_run;
  {
    tuner::TuningServiceOptions options;
    options.state_dir = dir.string();
    TuningService service(options);
    const auto opened = service.open(quick_request("hotspot", 7, 2.0));
    cold_run = drive(service, opened.session_id, kernel,
                     opened.info.param_names);
    EXPECT_GT(cold_run.evaluations, 0u);
    service.save_state();
  }
  ASSERT_TRUE(std::filesystem::exists(dir / "eval_cache.tsv"));

  {
    tuner::TuningServiceOptions options;
    options.state_dir = dir.string();
    TuningService service(options);
    EXPECT_GT(service.stats().cache_entries, 0u);  // loaded at startup
    const auto opened = service.open(quick_request("hotspot", 7, 2.0));
    // The same session replays entirely from the persisted cache: the
    // driver sees no suggestions, and the result is bit-identical.
    EXPECT_TRUE(service.suggest({opened.session_id}).finished);
    const auto info = service.info(opened.session_id);
    EXPECT_EQ(info.model_evaluations, 0u);
    EXPECT_EQ(info.shared_cache_hits, cold_run.evaluations);
    const auto warm_run = service.close({opened.session_id}).run;
    EXPECT_EQ(warm_run, cold_run);
  }
  std::filesystem::remove_all(dir);
}

TEST(Service, EvalCacheSavesAsTsec2AndStartsColdOnOtherVersions) {
  const auto dir = scratch_dir();
  const auto& kernel = *tuner::find_service_kernel("hotspot");

  tuner::RunSummary cold_run;
  {
    tuner::TuningServiceOptions options;
    options.state_dir = dir.string();
    TuningService service(options);
    const auto opened = service.open(quick_request("hotspot", 9, 2.0));
    cold_run = drive(service, opened.session_id, kernel,
                     opened.info.param_names);
    EXPECT_GT(cold_run.evaluations, 0u);
    service.save_state();
  }

  // The persisted file is TSEC 2: a version header and four hex columns
  // (fingerprint, row, gflops bits, watts bits).
  const auto path = dir / "eval_cache.tsv";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "TSEC 2");
  std::vector<std::array<std::string, 4>> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::array<std::string, 4> row;
    ASSERT_TRUE(fields >> row[0] >> row[1] >> row[2] >> row[3]) << line;
    rows.push_back(row);
  }
  in.close();
  ASSERT_FALSE(rows.empty());

  // Rewrite the file as a TSEC 1 file (three columns, scalar gflops).  Only
  // TSEC 2 is read: a restarted service starts cold, and the session runs
  // again from scratch, bit-identically.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "TSEC 1\n";
    for (const auto& row : rows) {
      out << row[0] << ' ' << row[1] << ' ' << row[2] << '\n';
    }
  }
  tuner::SharedEvalCache cache;
  EXPECT_EQ(tuner::load_shared_eval_cache(cache, path.string()), 0u);
  {
    tuner::TuningServiceOptions options;
    options.state_dir = dir.string();
    TuningService service(options);
    EXPECT_EQ(service.stats().cache_entries, 0u);
    const auto opened = service.open(quick_request("hotspot", 9, 2.0));
    EXPECT_EQ(drive(service, opened.session_id, kernel, opened.info.param_names),
              cold_run);
    EXPECT_EQ(service.stats().cache_hits, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(Service, CloseCancelsALiveSessionAndReturnsThePartialRun) {
  TuningService service;
  const auto& kernel = *tuner::find_service_kernel("hotspot");
  const auto opened = service.open(quick_request("hotspot", 1, 500.0));
  const auto ask = service.suggest({opened.session_id});
  ASSERT_FALSE(ask.finished);
  csp::Config config;
  for (const auto& entry : ask.config) config.push_back(entry.value);
  service.report(
      {opened.session_id, kernel.model->gflops(opened.info.param_names, config)});
  const auto closed = service.close({opened.session_id});
  EXPECT_EQ(closed.run.evaluations, 1u);
  EXPECT_EQ(code_of([&] { service.info(opened.session_id); }),
            ErrorCode::kUnknownSession);
}
