// Tuning-service benchmark: ask/tell request throughput of the TuningService
// front end, in-process and over the loopback wire protocol, emitted as
// BENCH_service.json.
//
// Every session is replayed three ways with identical options — the plain
// run_session closed loop, the in-process TuningService ask/tell surface, and
// a TCP client against a loopback ServiceServer — and all three TuningRuns
// must be *bit-identical*; an identity mismatch is a hard failure regardless
// of flags.  The throughput numbers (service requests per second for both
// transports, plus the wire amplification factor) are informational.
//
// CI gate:  bench_service --min-rps <x>
// exits non-zero when the in-process request throughput drops below <x>.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tunespace/tuner/server.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/service_client.hpp"
#include "tunespace/util/timer.hpp"

using namespace tunespace;

namespace {

constexpr std::size_t kSessions = 8;
const char* kOptimizers[] = {"random-sampling", "genetic-algorithm",
                             "simulated-annealing", "hill-climbing",
                             "differential-evolution"};

tuner::OpenSessionRequest session_request(std::size_t i) {
  tuner::OpenSessionRequest request;
  request.kernel = "hotspot";
  request.optimizer = kOptimizers[i % 5];
  request.seed = i + 1;
  request.budget_seconds = 120.0;
  // Fixed construction charge: the identity check compares virtual
  // timelines bit-for-bit across transports.
  request.fixed_construction_seconds = 5.0;
  return request;
}

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

/// Drive every session through any object exposing the service's ask/tell
/// calls (TuningService or ServiceClient); returns the closed runs and
/// counts each open/suggest/report/close as one request.
template <typename Api>
std::vector<tuner::RunSummary> drive_sessions(Api& api, std::uint64_t& requests) {
  const auto* kernel = tuner::find_service_kernel("hotspot");
  std::vector<tuner::RunSummary> runs;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto opened = api.open(session_request(i));
    requests++;
    while (true) {
      const auto ask = api.suggest({opened.session_id});
      requests++;
      if (ask.finished) break;
      csp::Config config;
      config.reserve(ask.config.size());
      for (const auto& entry : ask.config) config.push_back(entry.value);
      api.report({opened.session_id,
                  kernel->model->gflops(opened.info.param_names, config), -1.0});
      requests++;
    }
    runs.push_back(api.close({opened.session_id}).run);
    requests++;
  }
  return runs;
}

/// ServiceClient adapter with the same call shapes as TuningService.
struct WireApi {
  tuner::ServiceClient& client;
  tuner::OpenSessionResponse open(const tuner::OpenSessionRequest& r) {
    return client.open(r);
  }
  tuner::SuggestResponse suggest(const tuner::SuggestRequest& r) {
    return client.suggest(r.session_id);
  }
  tuner::ReportResponse report(const tuner::ReportRequest& r) {
    return client.report(r);
  }
  tuner::CloseSessionResponse close(const tuner::CloseSessionRequest& r) {
    return client.close_session(r.session_id);
  }
};

/// Multi-objective leg: one two-objective session replayed through the
/// closed loop, the in-process service and the v2 wire (objective maps in
/// both directions), with the same bit-identity hard-fail as the scalar
/// legs.
struct MultiObjectiveReport {
  bool identical = true;
  std::size_t pareto_front_size = 0;
  double perf_per_watt_improvement = 0;  ///< vs the scalar session-0 incumbent
};

tuner::OpenSessionRequest multi_objective_request() {
  tuner::OpenSessionRequest request = session_request(0);  // seed 1, random
  request.objectives = tuner::ObjectiveSpec::perf_and_power(1.0, 1.0);
  return request;
}

/// Drive the two-objective session through any ask/tell api, answering
/// with the model's full measurement vector.
template <typename Api>
tuner::RunSummary drive_multi_objective(Api& api) {
  const auto* kernel = tuner::find_service_kernel("hotspot");
  const auto opened = api.open(multi_objective_request());
  while (true) {
    const auto ask = api.suggest({opened.session_id});
    if (ask.finished) break;
    csp::Config config;
    config.reserve(ask.config.size());
    for (const auto& entry : ask.config) config.push_back(entry.value);
    tuner::ReportRequest report;
    report.session_id = opened.session_id;
    report.measurement =
        kernel->model->measure(opened.info.param_names, config);
    report.gflops = report.measurement.gflops;
    api.report(report);
  }
  return api.close({opened.session_id}).run;
}

MultiObjectiveReport run_multi_objective_leg(
    const tuner::RunSummary& scalar_reference) {
  MultiObjectiveReport report;
  const auto* kernel = tuner::find_service_kernel("hotspot");
  const auto request = multi_objective_request();

  // Closed-loop reference.
  auto optimizer = tuner::make_optimizer(request.optimizer);
  tuner::TuningOptions options;
  options.budget_seconds = request.budget_seconds;
  options.seed = request.seed;
  options.overhead_per_request = request.overhead_per_request;
  options.fixed_construction_seconds = request.fixed_construction_seconds;
  options.objectives = request.objectives;
  const tuner::Method method = tuner::optimized_method();
  const auto reference_run = tuner::run_session(tuner::make_session_request(
      kernel->spec, method, *kernel->model, *optimizer, options));
  report.pareto_front_size = reference_run.pareto().size();
  const auto reference = summarize(reference_run);

  // In-process and wire replays.
  tuner::RunSummary inprocess;
  {
    tuner::TuningService service;
    inprocess = drive_multi_objective(service);
  }
  tuner::RunSummary over_wire;
  {
    tuner::TuningService service;
    tuner::ServiceServerOptions server_options;
    server_options.port = 0;
    tuner::ServiceServer server(service, server_options);
    server.start();
    tuner::ServiceClientOptions client_options;
    client_options.port = server.port();
    tuner::ServiceClient client(client_options);
    WireApi api{client};
    over_wire = drive_multi_objective(api);
    server.stop();
  }
  if (!(inprocess == reference) || !(over_wire == reference)) {
    report.identical = false;
    std::fprintf(stderr,
                 "[service] multi-objective session diverged: reference "
                 "score %.6f, in-process score %.6f, wire score %.6f\n",
                 reference.best_score, inprocess.best_score,
                 over_wire.best_score);
  }

  // Efficiency gain of power-aware tuning over the scalar incumbent of the
  // same (optimizer, seed) session; the scalar run masks watts, so its
  // incumbent is re-measured at its front row.
  if (!scalar_reference.front.empty() && !reference.front.empty() &&
      reference.best.watts > 0) {
    std::vector<std::string> names;
    names.reserve(kernel->spec.params().size());
    for (const auto& param : kernel->spec.params()) names.push_back(param.name);
    const searchspace::SearchSpace space(kernel->spec);
    const auto scalar_best = kernel->model->measure(
        names, space.config(static_cast<std::size_t>(
                   scalar_reference.front[0].parent_row)));
    if (scalar_best.watts > 0) {
      report.perf_per_watt_improvement =
          (reference.best.gflops / reference.best.watts) /
          (scalar_best.gflops / scalar_best.watts);
    }
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  double gate_rps = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-rps") == 0 && i + 1 < argc) {
      gate_rps = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--min-rps <x>]\n", argv[0]);
      return 2;
    }
  }

  bench::section("Tuning service: ask/tell throughput, in-process and wire");

  // Reference: the same sessions through the plain closed loop.
  const auto* kernel = tuner::find_service_kernel("hotspot");
  std::vector<tuner::RunSummary> reference;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto request = session_request(i);
    auto optimizer = tuner::make_optimizer(request.optimizer);
    tuner::TuningOptions options;
    options.budget_seconds = request.budget_seconds;
    options.seed = request.seed;
    options.overhead_per_request = request.overhead_per_request;
    options.fixed_construction_seconds = request.fixed_construction_seconds;
    const tuner::Method method = tuner::optimized_method();
    reference.push_back(summarize(tuner::run_session(tuner::make_session_request(
        kernel->spec, method, *kernel->model, *optimizer, options))));
  }

  // In-process service.
  std::uint64_t inprocess_requests = 0;
  util::WallTimer timer;
  std::vector<tuner::RunSummary> inprocess;
  {
    tuner::TuningService service;
    inprocess = drive_sessions(service, inprocess_requests);
  }
  const double inprocess_seconds = timer.seconds();

  // The same sessions over loopback TCP.
  std::uint64_t wire_requests = 0;
  std::vector<tuner::RunSummary> wire;
  timer.reset();
  double wire_seconds = 0;
  {
    tuner::TuningService service;
    tuner::ServiceServerOptions server_options;
    server_options.port = 0;  // ephemeral
    tuner::ServiceServer server(service, server_options);
    server.start();
    tuner::ServiceClientOptions client_options;
    client_options.port = server.port();
    tuner::ServiceClient client(client_options);
    WireApi api{client};
    timer.reset();  // exclude server/client setup
    wire = drive_sessions(api, wire_requests);
    wire_seconds = timer.seconds();
    server.stop();
  }

  bool identical = true;
  std::uint64_t evaluations = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    evaluations += reference[i].evaluations;
    if (!(inprocess[i] == reference[i]) || !(wire[i] == reference[i])) {
      identical = false;
      std::fprintf(stderr,
                   "[service] session %zu diverged: reference best %.4f "
                   "(%llu evals), in-process best %.4f (%llu evals), wire "
                   "best %.4f (%llu evals)\n",
                   i, reference[i].best_gflops,
                   static_cast<unsigned long long>(reference[i].evaluations),
                   inprocess[i].best_gflops,
                   static_cast<unsigned long long>(inprocess[i].evaluations),
                   wire[i].best_gflops,
                   static_cast<unsigned long long>(wire[i].evaluations));
    }
  }

  const double inprocess_rps =
      inprocess_seconds > 0 ? static_cast<double>(inprocess_requests) /
                                  inprocess_seconds
                            : 0;
  const double wire_rps =
      wire_seconds > 0 ? static_cast<double>(wire_requests) / wire_seconds : 0;
  const double wire_amplification =
      wire_rps > 0 ? inprocess_rps / wire_rps : 0;

  std::printf(
      "%zu sessions, %llu evaluations: in-process %llu requests in %.4fs "
      "(%.0f req/s), wire %llu requests in %.4fs (%.0f req/s, %.1fx "
      "amplification), identical %s\n",
      kSessions, static_cast<unsigned long long>(evaluations),
      static_cast<unsigned long long>(inprocess_requests), inprocess_seconds,
      inprocess_rps, static_cast<unsigned long long>(wire_requests),
      wire_seconds, wire_rps, wire_amplification, identical ? "yes" : "NO");

  const MultiObjectiveReport mo = run_multi_objective_leg(reference[0]);
  std::printf(
      "multi-objective: identical %s, Pareto front %zu points, "
      "perf-per-watt improvement %.3fx over throughput-only tuning\n",
      mo.identical ? "yes" : "NO", mo.pareto_front_size,
      mo.perf_per_watt_improvement);

  // Connection churn: sequential connect/ping/disconnect cycles against a
  // deliberately small worker pool.  This is the fd-recycling path — every
  // departed connection must be reclaimed by its close event, so the count
  // can exceed any fd budget; a leak shows up here as EMFILE long before
  // the loop ends.
  const std::size_t churn_connections = bench::fast_mode() ? 200 : 1000;
  double churn_seconds = 0;
  bool churn_ok = true;
  {
    tuner::TuningService service;
    tuner::ServiceServerOptions server_options;
    server_options.port = 0;
    server_options.workers = 2;
    tuner::ServiceServer server(service, server_options);
    server.start();
    tuner::ServiceClientOptions client_options;
    client_options.port = server.port();
    timer.reset();
    for (std::size_t i = 0; i < churn_connections && churn_ok; ++i) {
      try {
        tuner::ServiceClient client(client_options);
        churn_ok = client.ping();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[service] churn connect %zu failed: %s\n", i,
                     e.what());
        churn_ok = false;
      }
    }
    churn_seconds = timer.seconds();
    server.stop();
  }
  const double churn_cps =
      churn_seconds > 0 ? static_cast<double>(churn_connections) / churn_seconds
                        : 0;
  std::printf("connection churn: %zu sequential connects in %.4fs "
              "(%.0f connects/s, 2 workers), %s\n",
              churn_connections, churn_seconds, churn_cps,
              churn_ok ? "all served" : "FAILED");

  if (std::FILE* f = std::fopen("BENCH_service.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"service\",\n");
    std::fprintf(f, "  \"fast_mode\": %s,\n", bench::fast_mode() ? "true" : "false");
    std::fprintf(f, "  \"sessions\": %zu,\n", kSessions);
    std::fprintf(f, "  \"evaluations\": %llu,\n",
                 static_cast<unsigned long long>(evaluations));
    std::fprintf(f, "  \"inprocess_requests_per_second\": %.1f,\n", inprocess_rps);
    std::fprintf(f, "  \"wire_requests_per_second\": %.1f,\n", wire_rps);
    std::fprintf(f, "  \"wire_amplification\": %.2f,\n", wire_amplification);
    std::fprintf(f,
                 "  \"multi_objective\": {\"identical\": %s, "
                 "\"pareto_front_size\": %zu, "
                 "\"perf_per_watt_improvement\": %.4f},\n",
                 mo.identical ? "true" : "false", mo.pareto_front_size,
                 mo.perf_per_watt_improvement);
    std::fprintf(f, "  \"churn_connections\": %zu,\n", churn_connections);
    std::fprintf(f, "  \"churn_connects_per_second\": %.1f,\n", churn_cps);
    std::fprintf(f, "  \"identical\": %s\n", identical ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

  if (!identical || !mo.identical) {
    std::fprintf(stderr, "[service] FAIL: transports are not bit-identical\n");
    return 1;
  }
  if (!churn_ok) {
    std::fprintf(stderr,
                 "[service] FAIL: connection churn leg did not survive %zu "
                 "sequential connects\n",
                 churn_connections);
    return 1;
  }
  if (gate_rps > 0 && inprocess_rps < gate_rps) {
    std::fprintf(stderr,
                 "[service] FAIL: in-process throughput %.0f req/s below the "
                 "--min-rps gate of %.0f\n",
                 inprocess_rps, gate_rps);
    return 1;
  }
  return 0;
}
