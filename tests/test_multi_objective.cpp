// Tests for the multi-objective measurement API: ObjectiveSpec semantics
// (scalarization, masking, dominance, fingerprints), the PowerModel
// surfaces, bit-identical two-objective replays across every driver
// (closed loop, manual ask/tell stepper, SessionManager, in-process
// service, wire), the best_at contract for scalar and vector runs, and the
// wire's version contract (the client stamps the current version, requests
// without one are served, newer versions are rejected typed, hello is an
// unknown op).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tunespace/tuner/net.hpp"
#include "tunespace/tuner/protocol.hpp"
#include "tunespace/tuner/server.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/service_client.hpp"
#include "tunespace/tuner/session.hpp"

using namespace tunespace;
namespace json = util::json;
namespace wire = tuner::wire;

namespace {

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ServiceError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

tuner::TuningProblem small_spec() {
  tuner::TuningProblem spec("small");
  spec.add_param("block_size_x", {8, 16, 32, 64, 128})
      .add_param("block_size_y", {1, 2, 4, 8})
      .add_param("sh_power", {0, 1});
  spec.add_constraint("32 <= block_size_x * block_size_y <= 512");
  return spec;
}

/// Two-objective options: maximize throughput, minimize power (the
/// perf-per-watt recipe), with a fixed construction charge so replays are
/// bit-reproducible.
tuner::TuningOptions vector_options(std::uint64_t seed, double budget = 60.0) {
  tuner::TuningOptions options;
  options.budget_seconds = budget;
  options.seed = seed;
  options.fixed_construction_seconds = 2.0;
  options.objectives = tuner::ObjectiveSpec::perf_and_power(1.0, 0.05);
  return options;
}

tuner::SessionStepper::CostFn cost_of(const tuner::PerformanceModel& model) {
  return [&model](const tuner::Measurement& m) {
    return model.evaluation_cost(m.gflops);
  };
}

/// Project a TuningRun onto the wire RunSummary shape for comparison with
/// service/wire results.
tuner::RunSummary summarize(const tuner::TuningRun& run) {
  tuner::RunSummary summary;
  summary.method_name = run.method_name;
  summary.construction_seconds = run.construction_seconds;
  summary.budget_seconds = run.budget_seconds;
  summary.best_gflops = run.best_gflops;
  summary.evaluations = run.evaluations;
  for (const auto& point : run.trajectory) {
    summary.trajectory.push_back({point.time_seconds, point.best_gflops,
                                  static_cast<std::uint64_t>(point.evaluations),
                                  point.measurement});
  }
  summary.objectives = run.objectives;
  summary.best_score = run.best_score;
  summary.best = run.best;
  summary.front = run.front;
  return summary;
}

}  // namespace

// --- ObjectiveSpec ----------------------------------------------------------

TEST(ObjectiveSpec, SingleScalarizesToExactlyGflops) {
  const auto spec = tuner::ObjectiveSpec::single();
  EXPECT_TRUE(spec.is_single());
  EXPECT_TRUE(tuner::ObjectiveSpec{}.is_single());
  // Bit-exact, not approximately: this identity is what keeps legacy scalar
  // sessions byte-identical through the vector API.
  const tuner::Measurement m{123.4567891234, 87.5};
  EXPECT_EQ(spec.scalarize(m), 123.4567891234);
  // Unnamed components are masked to zero before entering session state.
  EXPECT_EQ(spec.mask(m), (tuner::Measurement{123.4567891234, 0.0}));
}

TEST(ObjectiveSpec, PerfAndPowerScalarizesWeightedDirections) {
  const auto spec = tuner::ObjectiveSpec::perf_and_power(1.0, 0.25);
  EXPECT_FALSE(spec.is_single());
  EXPECT_EQ(spec.size(), 2u);
  const tuner::Measurement m{100.0, 40.0};
  // Minimized objectives contribute negatively.
  EXPECT_EQ(spec.scalarize(m), 100.0 - 0.25 * 40.0);
  EXPECT_EQ(spec.mask(m), m);  // both components are named: nothing masked
}

TEST(ObjectiveSpec, DominanceFollowsDirections) {
  const auto spec = tuner::ObjectiveSpec::perf_and_power();
  const tuner::Measurement fast_hot{100.0, 50.0};
  const tuner::Measurement fast_cool{100.0, 30.0};
  const tuner::Measurement slow_cool{60.0, 30.0};
  EXPECT_TRUE(spec.dominates(fast_cool, fast_hot));   // same perf, less power
  EXPECT_TRUE(spec.dominates(fast_cool, slow_cool));  // same power, more perf
  EXPECT_FALSE(spec.dominates(fast_hot, slow_cool));  // trade: incomparable
  EXPECT_FALSE(spec.dominates(slow_cool, fast_hot));
  EXPECT_FALSE(spec.dominates(fast_cool, fast_cool));  // strict
  EXPECT_TRUE(spec.dominates_or_equal(fast_cool, fast_cool));
}

TEST(ObjectiveSpec, FingerprintSeparatesObjectiveSets) {
  const auto single = tuner::ObjectiveSpec::single();
  const auto both = tuner::ObjectiveSpec::perf_and_power();
  const auto reweighted = tuner::ObjectiveSpec::perf_and_power(1.0, 0.5);
  EXPECT_NE(single.fingerprint(), both.fingerprint());
  EXPECT_NE(both.fingerprint(), reweighted.fingerprint());
  EXPECT_EQ(single.fingerprint(), tuner::ObjectiveSpec{}.fingerprint());
}

// --- PowerModel surfaces ----------------------------------------------------

TEST(PowerModels, MeasureFillsWattsDeterministically) {
  const auto spec = small_spec();
  const searchspace::SearchSpace space(spec);
  ASSERT_GT(space.size(), 0u);
  std::vector<std::string> names;
  for (const auto& param : spec.params()) names.push_back(param.name);
  const auto config = space.config(0);

  tuner::HotspotModel hotspot;
  tuner::GemmModel gemm;
  tuner::SyntheticModel synthetic(17);
  for (const tuner::PerformanceModel* model :
       {static_cast<const tuner::PerformanceModel*>(&hotspot),
        static_cast<const tuner::PerformanceModel*>(&gemm),
        static_cast<const tuner::PerformanceModel*>(&synthetic)}) {
    const auto first = model->measure(names, config);
    const auto second = model->measure(names, config);
    EXPECT_EQ(first, second) << model->name();  // deterministic, bit-exact
    EXPECT_EQ(first.gflops, model->gflops(names, config)) << model->name();
    EXPECT_GT(first.watts, 0.0) << model->name();
  }
  // Fingerprints separate the surfaces (and thereby their cache entries).
  EXPECT_NE(hotspot.fingerprint(), gemm.fingerprint());
  EXPECT_NE(hotspot.fingerprint(), synthetic.fingerprint());
}

// --- Two-objective replays are bit-identical across every driver ------------

TEST(MultiObjective, ClosedLoopStepperAndManagerAgreeBitForBit) {
  const auto spec = small_spec();
  tuner::HotspotModel model;
  const auto options = vector_options(11);

  // Closed loop from the spec.
  tuner::RandomSearch loop_opt;
  const tuner::Method method = tuner::optimized_method();
  const auto loop = tuner::run_session(
      tuner::make_session_request(spec, method, model, loop_opt, options));
  ASSERT_GT(loop.evaluations, 0u);
  EXPECT_FALSE(loop.objectives.is_single());

  // Manual ask/tell over a pre-resolved space, answering with the full
  // measurement vector.
  const searchspace::SearchSpace space(spec);
  tuner::RandomSearch step_opt;
  tuner::SessionStepper stepper(space, "optimized",
                                space.construction_seconds(), step_opt,
                                options, cost_of(model));
  while (auto ask = stepper.suggest()) {
    stepper.report(model.measure(stepper.param_names(), ask->config));
  }
  ASSERT_TRUE(stepper.finished());
  EXPECT_EQ(stepper.take_run(), loop);

  // The same session under a SessionManager.
  std::vector<tuner::SessionRequest> requests(1);
  requests[0].spec = spec;
  requests[0].model = std::make_shared<tuner::HotspotModel>();
  requests[0].make_optimizer = [] {
    return std::make_unique<tuner::RandomSearch>();
  };
  requests[0].options = options;
  tuner::SessionManager manager;
  const auto managed = manager.run_all(std::move(requests));
  ASSERT_EQ(managed.size(), 1u);
  EXPECT_EQ(managed[0].run, loop);
}

TEST(MultiObjective, ServiceAndV2WireReplayTheClosedLoopBitForBit) {
  // Reference: the catalog hotspot kernel through the plain closed loop.
  const auto* kernel = tuner::find_service_kernel("hotspot");
  ASSERT_NE(kernel, nullptr);
  tuner::TuningOptions options = vector_options(3, 20.0);
  auto optimizer = tuner::make_optimizer("random-sampling");
  const tuner::Method method = tuner::optimized_method();
  const auto reference = summarize(tuner::run_session(tuner::make_session_request(
      kernel->spec, method, *kernel->model, *optimizer, options)));
  ASSERT_GT(reference.evaluations, 0u);
  ASSERT_FALSE(reference.front.empty());

  tuner::OpenSessionRequest open;
  open.kernel = "hotspot";
  open.seed = 3;
  open.budget_seconds = 20.0;
  open.fixed_construction_seconds = options.fixed_construction_seconds;
  open.objectives = options.objectives;

  // In-process service.
  tuner::RunSummary in_process;
  {
    tuner::TuningService service;
    const auto opened = service.open(open);
    EXPECT_EQ(opened.info.objectives, options.objectives);
    while (true) {
      const auto ask = service.suggest({opened.session_id});
      if (ask.finished) break;
      csp::Config config;
      for (const auto& entry : ask.config) config.push_back(entry.value);
      tuner::ReportRequest report;
      report.session_id = opened.session_id;
      report.measurement =
          kernel->model->measure(opened.info.param_names, config);
      report.gflops = report.measurement.gflops;
      service.report(report);
    }
    in_process = service.close({opened.session_id}).run;
  }
  EXPECT_EQ(in_process, reference);

  // The same session over the v2 wire (objective maps in both directions).
  tuner::TuningService service;
  tuner::ServiceServerOptions server_options;
  server_options.port = 0;
  tuner::ServiceServer server(service, server_options);
  server.start();
  tuner::ServiceClientOptions client_options;
  client_options.port = server.port();
  tuner::ServiceClient client(client_options);

  const auto opened = client.open(open);
  EXPECT_EQ(opened.info.objectives, options.objectives);
  while (true) {
    const auto ask = client.suggest(opened.session_id);
    if (ask.finished) break;
    csp::Config config;
    for (const auto& entry : ask.config) config.push_back(entry.value);
    tuner::ReportRequest report;
    report.session_id = opened.session_id;
    report.measurement = kernel->model->measure(opened.info.param_names, config);
    report.gflops = report.measurement.gflops;
    client.report(report);
  }
  const auto over_wire = client.close_session(opened.session_id).run;
  server.stop();
  EXPECT_EQ(over_wire, reference);
}

TEST(MultiObjective, ScalarSessionsKeepTheLegacyShape) {
  // A default-objective session through the vector-first stack: every
  // derived scalar must coincide with the measured gflops bit-for-bit.
  tuner::RandomSearch rs;
  tuner::HotspotModel model;
  tuner::TuningOptions options;
  options.budget_seconds = 60.0;
  options.seed = 5;
  options.fixed_construction_seconds = 2.0;
  const tuner::Method method = tuner::optimized_method();
  const auto run = tuner::run_session(
      tuner::make_session_request(small_spec(), method, model, rs, options));
  ASSERT_GT(run.evaluations, 0u);
  EXPECT_TRUE(run.objectives.is_single());
  EXPECT_EQ(run.best_score, run.best_gflops);
  EXPECT_EQ(run.best, (tuner::Measurement{run.best_gflops, 0.0}));
  for (const auto& point : run.trajectory) {
    EXPECT_EQ(point.measurement.gflops, point.best_gflops);
    EXPECT_EQ(point.measurement.watts, 0.0);  // unmeasured, masked
  }
  // A scalar front degenerates to the incumbent.
  ASSERT_EQ(run.front.size(), 1u);
  EXPECT_EQ(run.front[0].measurement, run.best);
}

TEST(MultiObjective, ParetoFrontIsNonDominatedAndCanonicallyOrdered) {
  tuner::RandomSearch rs;
  tuner::HotspotModel model;
  const tuner::Method method = tuner::optimized_method();
  const auto run = tuner::run_session(tuner::make_session_request(
      small_spec(), method, model, rs, vector_options(29, 120.0)));
  ASSERT_GT(run.front.size(), 1u) << "power landscape should force trades";

  // No front member dominates another.
  for (const auto& a : run.front) {
    for (const auto& b : run.front) {
      EXPECT_FALSE(run.objectives.dominates(a.measurement, b.measurement));
    }
  }
  // The canonical view is sorted by descending scalarized score, ties by
  // ascending row, and contains the scalar incumbent first.
  const auto sorted = run.pareto();
  ASSERT_EQ(sorted.size(), run.front.size());
  EXPECT_EQ(run.objectives.scalarize(sorted.front().measurement),
            run.best_score);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const double prev = run.objectives.scalarize(sorted[i - 1].measurement);
    const double cur = run.objectives.scalarize(sorted[i].measurement);
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(sorted[i - 1].row, sorted[i].row);
    }
  }
}

// --- best_at contract (scalar and vector) -----------------------------------

TEST(BestAt, ExactTimestampIsIncludedAndPreHistoryIsZero) {
  tuner::TuningRun run;
  run.trajectory = {{10.0, 100.0, 1, {100.0, 0.0}},
                    {20.0, 150.0, 2, {150.0, 0.0}}};
  // Before the first improvement — including negative time — the answer is 0.
  EXPECT_EQ(run.best_at(-1.0), 0.0);
  EXPECT_EQ(run.best_at(0.0), 0.0);
  EXPECT_EQ(run.best_at(9.999999), 0.0);
  // A point exactly at `time` IS included: the improvement happens at that
  // instant.
  EXPECT_EQ(run.best_at(10.0), 100.0);
  EXPECT_EQ(run.best_at(20.0), 150.0);
  EXPECT_EQ(run.best_at(1e9), 150.0);
}

TEST(BestAt, VectorRunsReportTheScalarizedIncumbentsThroughput) {
  // A two-objective run where a later incumbent trades gflops for power:
  // best_at follows the *scalarized* incumbent, so the reported throughput
  // may drop when another objective paid for the trade.
  tuner::TuningRun run;
  run.objectives = tuner::ObjectiveSpec::perf_and_power(1.0, 1.0);
  // score 100-60=40, then score 90-30=60: the second point wins on score
  // with lower gflops.
  run.trajectory = {{5.0, 100.0, 1, {100.0, 60.0}},
                    {15.0, 90.0, 2, {90.0, 30.0}}};
  EXPECT_EQ(run.best_at(4.0), 0.0);
  EXPECT_EQ(run.best_at(5.0), 100.0);
  EXPECT_EQ(run.best_at(15.0), 90.0);  // incumbent's throughput, not max
  EXPECT_EQ(run.best_at(16.0), 90.0);
}

// --- Wire version -------------------------------------------------------------

namespace {

/// One request/response round trip over raw frames, with the body exactly as
/// given (no version stamp).
json::Value raw_call(tuner::net::FdStream& stream, const std::string& op,
                     const json::Value& body) {
  wire::write_frame(stream, wire::encode_request(op, body));
  auto frame = wire::read_frame(stream);
  if (!frame) throw ServiceError(ErrorCode::kIo, "server closed the connection");
  return wire::decode_response(*frame);
}

}  // namespace

TEST(WireVersion, UnversionedScalarRequestsAreServedAsSingleObjective) {
  // Requests without "v" and scalar gflops reports, the shape curl and
  // scripts send: the server serves them as a single-objective session.
  const auto* kernel = tuner::find_service_kernel("gemm");
  ASSERT_NE(kernel, nullptr);

  tuner::OpenSessionRequest open;
  open.kernel = "gemm";
  open.seed = 5;
  open.budget_seconds = 2.0;
  open.fixed_construction_seconds = 0.5;

  // Reference: the same session in-process.
  tuner::RunSummary reference;
  {
    tuner::TuningService local;
    const auto opened = local.open(open);
    while (true) {
      const auto ask = local.suggest({opened.session_id});
      if (ask.finished) break;
      csp::Config config;
      for (const auto& entry : ask.config) config.push_back(entry.value);
      local.report({opened.session_id,
                    kernel->model->gflops(opened.info.param_names, config),
                    -1.0});
    }
    reference = local.close({opened.session_id}).run;
  }

  tuner::TuningService service;
  tuner::ServiceServerOptions server_options;
  server_options.port = 0;
  tuner::ServiceServer server(service, server_options);
  server.start();
  const int fd = tuner::net::connect_tcp("127.0.0.1", server.port(), 10.0);
  tuner::net::FdStream stream(fd);

  const json::Value open_body = wire::to_json(open);
  ASSERT_EQ(open_body.find("v"), nullptr);
  const auto opened =
      wire::open_session_response_from_json(raw_call(stream, "open", open_body));
  EXPECT_TRUE(opened.info.objectives.is_single());
  json::Value session = json::Value::object();
  session.set("session_id", opened.session_id);
  while (true) {
    const auto ask =
        wire::suggest_response_from_json(raw_call(stream, "suggest", session));
    if (ask.finished) break;
    csp::Config config;
    for (const auto& entry : ask.config) config.push_back(entry.value);
    json::Value report = json::Value::object();
    report.set("session_id", opened.session_id);
    report.set("gflops", kernel->model->gflops(opened.info.param_names, config));
    raw_call(stream, "report", report);
  }
  const auto over_wire =
      wire::close_session_response_from_json(raw_call(stream, "close", session)).run;
  tuner::net::close_fd(fd);
  server.stop();
  EXPECT_EQ(over_wire, reference);
  EXPECT_TRUE(over_wire.objectives.is_single());
}

TEST(WireVersion, VersionsAboveTheServersAreRejectedTyped) {
  tuner::TuningService service;
  tuner::ServiceServerOptions server_options;
  server_options.port = 0;
  tuner::ServiceServer server(service, server_options);
  server.start();
  const int fd = tuner::net::connect_tcp("127.0.0.1", server.port(), 10.0);
  tuner::net::FdStream stream(fd);

  tuner::OpenSessionRequest open;
  open.kernel = "gemm";
  json::Value body = wire::to_json(open);
  body.set("v", static_cast<std::int64_t>(wire::kProtocolVersion + 1));
  EXPECT_EQ(code_of([&] { raw_call(stream, "open", body); }),
            ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(service.stats().total_opened, 0u);
  // The connection survives the rejection, and the current version is served.
  json::Value ping = json::Value::object();
  ping.set("v", static_cast<std::int64_t>(wire::kProtocolVersion));
  EXPECT_TRUE(raw_call(stream, "ping", ping).at("pong").as_bool());
  tuner::net::close_fd(fd);
  server.stop();
}

TEST(WireVersion, HelloIsAnUnknownOp) {
  // The version handshake is gone: a client that still opens with hello gets
  // the ordinary unknown-op error, and its connection stays usable.
  tuner::TuningService service;
  tuner::ServiceServerOptions server_options;
  server_options.port = 0;
  tuner::ServiceServer server(service, server_options);
  server.start();
  const int fd = tuner::net::connect_tcp("127.0.0.1", server.port(), 10.0);
  tuner::net::FdStream stream(fd);

  json::Value hello = json::Value::object();
  hello.set("max_version", static_cast<std::int64_t>(wire::kProtocolVersion));
  try {
    raw_call(stream, "hello", hello);
    FAIL() << "hello must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
    EXPECT_NE(std::string(e.what()).find("unknown op 'hello'"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(raw_call(stream, "ping", json::Value::object()).at("pong").as_bool());
  tuner::net::close_fd(fd);
  server.stop();
}

TEST(WireVersion, ClientStampsTheCurrentVersionOnEveryRequest) {
  // A scripted server records what the client sends: no handshake precedes
  // the first request, and each request carries "v": kProtocolVersion.
  const int listen_fd = tuner::net::listen_tcp("127.0.0.1", 0);
  const std::uint16_t port = tuner::net::local_port(listen_fd);
  std::vector<std::pair<std::string, json::Value>> received;
  std::thread scripted_server([&] {
    const int fd = tuner::net::accept_timeout(listen_fd, 10000);
    if (fd < 0) return;
    tuner::net::FdStream stream(fd);
    while (auto frame = wire::read_frame(stream)) {
      received.push_back(wire::decode_request(*frame));
      json::Value reply = json::Value::object();
      reply.set("pong", true);
      wire::write_frame(stream, wire::encode_ok(reply));
    }
    tuner::net::close_fd(fd);
  });

  tuner::ServiceClientOptions options;
  options.port = port;
  tuner::ServiceClient client(options);
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.ping());
  client.disconnect();
  scripted_server.join();
  tuner::net::close_fd(listen_fd);

  ASSERT_EQ(received.size(), 2u);
  for (const auto& [op, document] : received) {
    EXPECT_EQ(op, "ping");
    EXPECT_EQ(document.at("v").as_int(), wire::kProtocolVersion);
  }
}
