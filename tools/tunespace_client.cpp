// tunespace_client: scripted ask/tell session against a tunespace_serve.
//
//   tunespace_client [--host H] [--port P] [--kernel NAME]
//                    [--optimizer NAME] [--budget S] [--seed N]
//                    [--tenant NAME] [--objectives SPEC]
//                    [--warm-start] [--surrogate]
//                    [--min-cache-hits N] [--min-seeded-rows N] [--drain]
//
// Opens one session, answers every suggestion with the kernel's local
// performance model (the client links the library, so it owns the same
// deterministic surface the in-process tuner uses), and closes the session
// printing the run summary.  --objectives takes a comma-separated list of
// name:direction:weight triples (direction/weight optional), e.g.
// "gflops:maximize:1,watts:minimize:0.01"; the session then tunes the full
// objective vector and the client reports complete
// measurements and prints the Pareto front size plus perf-per-watt of the
// incumbent.  --drain then asks the server to drain and waits until it
// quiesces — the graceful-shutdown path the CI smoke job exercises.
// --min-cache-hits fails the run unless the service served at least that
// many shared-cache hits, which is how the smoke job proves a warm restart
// actually reused the persisted eval cache.  --warm-start opens the session
// with cache-seeded transfer (OpenSessionRequest::warm_start) and
// --min-seeded-rows fails unless the session was seeded with at least that
// many cached rows; --surrogate is short for --optimizer surrogate.  Every run
// prints a greppable "model_evaluations=N seeded_rows=N" line so a smoke
// script can assert that a warm session re-measured fewer configurations
// than a cold one.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "tunespace/tuner/protocol.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/service_client.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--kernel NAME] "
               "[--optimizer NAME] [--budget S] [--seed N] [--tenant NAME] "
               "[--objectives name:dir:weight,...] [--warm-start] "
               "[--surrogate] [--min-cache-hits N] [--min-seeded-rows N] "
               "[--drain]\n",
               argv0);
  std::exit(2);
}

/// "gflops:maximize:1,watts:minimize:0.01" -> ObjectiveSpec.  Direction and
/// weight are optional per objective (defaults: maximize, 1.0).
tunespace::tuner::ObjectiveSpec parse_objectives(const std::string& text,
                                                 const char* argv0) {
  using tunespace::tuner::Direction;
  using tunespace::tuner::Objective;
  tunespace::tuner::ObjectiveSpec spec;
  spec.objectives.clear();
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string part = text.substr(start, comma - start);
    start = comma + 1;
    if (part.empty()) continue;
    Objective objective;
    const std::size_t c1 = part.find(':');
    objective.name = part.substr(0, c1);
    if (c1 != std::string::npos) {
      const std::size_t c2 = part.find(':', c1 + 1);
      const std::string dir = part.substr(c1 + 1, c2 - c1 - 1);
      if (dir == "minimize" || dir == "min") {
        objective.direction = Direction::kMinimize;
      } else if (dir == "maximize" || dir == "max" || dir.empty()) {
        objective.direction = Direction::kMaximize;
      } else {
        std::fprintf(stderr, "%s: bad objective direction '%s'\n", argv0,
                     dir.c_str());
        std::exit(2);
      }
      if (c2 != std::string::npos) {
        objective.weight = std::atof(part.c_str() + c2 + 1);
      }
    }
    spec.objectives.push_back(std::move(objective));
  }
  if (spec.objectives.empty()) {
    std::fprintf(stderr, "%s: --objectives needs at least one objective\n",
                 argv0);
    std::exit(2);
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tunespace::tuner;

  ServiceClientOptions client_options;
  client_options.port = 7971;
  OpenSessionRequest open_request;
  open_request.kernel = "gemm";
  open_request.budget_seconds = 3.0;
  open_request.fixed_construction_seconds = 0.5;
  bool drain = false;
  long long min_cache_hits = -1;
  long long min_seeded_rows = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--host") {
      client_options.host = next();
    } else if (arg == "--port") {
      client_options.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--kernel") {
      open_request.kernel = next();
    } else if (arg == "--optimizer") {
      open_request.optimizer = next();
    } else if (arg == "--budget") {
      open_request.budget_seconds = std::atof(next());
    } else if (arg == "--seed") {
      open_request.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--tenant") {
      open_request.tenant = next();
    } else if (arg == "--objectives") {
      open_request.objectives = parse_objectives(next(), argv[0]);
    } else if (arg == "--warm-start") {
      open_request.warm_start = true;
    } else if (arg == "--surrogate") {
      open_request.optimizer = "surrogate";
    } else if (arg == "--min-cache-hits") {
      min_cache_hits = std::atoll(next());
    } else if (arg == "--min-seeded-rows") {
      min_seeded_rows = std::atoll(next());
    } else if (arg == "--drain") {
      drain = true;
    } else {
      usage(argv[0]);
    }
  }

  try {
    const ServiceKernel* kernel = find_service_kernel(open_request.kernel);
    if (kernel == nullptr) {
      std::fprintf(stderr, "tunespace_client: unknown kernel '%s'\n",
                   open_request.kernel.c_str());
      return 1;
    }

    ServiceClient client(client_options);
    if (!client.ping()) {
      std::fprintf(stderr, "tunespace_client: server did not answer ping\n");
      return 1;
    }
    std::printf("connected (protocol v%d)\n", wire::kProtocolVersion);

    const bool multi_objective = !open_request.objectives.is_single();
    const auto opened = client.open(open_request);
    std::printf("opened session %llu over %s (%llu rows, optimizer %s, "
                "%zu objectives)\n",
                static_cast<unsigned long long>(opened.session_id),
                opened.info.kernel.c_str(),
                static_cast<unsigned long long>(opened.info.space_rows),
                opened.info.optimizer.c_str(), opened.info.objectives.size());
    if (opened.info.seeded_rows > 0) {
      std::printf("warm start seeded %llu cached rows\n",
                  static_cast<unsigned long long>(opened.info.seeded_rows));
    }
    if (min_seeded_rows >= 0 &&
        opened.info.seeded_rows < static_cast<std::uint64_t>(min_seeded_rows)) {
      std::fprintf(stderr,
                   "tunespace_client: expected >= %lld seeded rows, saw %llu "
                   "— warm start did not take\n",
                   min_seeded_rows,
                   static_cast<unsigned long long>(opened.info.seeded_rows));
      return 1;
    }

    // The ask/tell loop: measure every suggestion with the local model.
    const std::vector<std::string>& names = opened.info.param_names;
    std::uint64_t measured = 0;
    while (true) {
      const auto suggestion = client.suggest(opened.session_id);
      if (suggestion.finished) break;
      tunespace::csp::Config config;
      config.reserve(suggestion.config.size());
      for (const auto& entry : suggestion.config) config.push_back(entry.value);
      ReportRequest report;
      report.session_id = opened.session_id;
      if (multi_objective) {
        report.measurement = kernel->model->measure(names, config);
        report.gflops = report.measurement.gflops;
      } else {
        report.gflops = kernel->model->gflops(names, config);
      }
      client.report(report);
      measured++;
    }

    // Greppable transfer line: the smoke job compares this count between a
    // cold and a warm run of the same session.
    const auto final_info = client.info(opened.session_id);
    std::printf("model_evaluations=%llu seeded_rows=%llu\n",
                static_cast<unsigned long long>(final_info.model_evaluations),
                static_cast<unsigned long long>(final_info.seeded_rows));

    const auto closed = client.close_session(opened.session_id);
    std::printf("session %llu finished: best %.3f GFLOP/s, %llu evaluations "
                "(%llu reported by this client), %zu trajectory points\n",
                static_cast<unsigned long long>(closed.session_id),
                closed.run.best_gflops,
                static_cast<unsigned long long>(closed.run.evaluations),
                static_cast<unsigned long long>(measured),
                closed.run.trajectory.size());
    if (multi_objective) {
      const double watts = closed.run.best.watts;
      std::printf("multi-objective: score %.6f, Pareto front %zu points, "
                  "incumbent %.3f GFLOP/s at %.1f W (%.4f GFLOP/s/W)\n",
                  closed.run.best_score, closed.run.front.size(),
                  closed.run.best.gflops, watts,
                  watts > 0 ? closed.run.best.gflops / watts : 0.0);
      if (closed.run.front.empty()) {
        std::fprintf(stderr, "tunespace_client: empty Pareto front\n");
        return 1;
      }
    }

    if (min_cache_hits >= 0) {
      const auto stats = client.stats();
      std::printf("service cache: %llu entries, %llu hits\n",
                  static_cast<unsigned long long>(stats.cache_entries),
                  static_cast<unsigned long long>(stats.cache_hits));
      if (stats.cache_hits < static_cast<std::uint64_t>(min_cache_hits)) {
        std::fprintf(stderr,
                     "tunespace_client: expected >= %lld shared-cache hits, "
                     "saw %llu — warm start did not take\n",
                     min_cache_hits,
                     static_cast<unsigned long long>(stats.cache_hits));
        return 1;
      }
    }

    if (drain) {
      const auto drained = client.drain({true, 30.0});
      std::printf("drain: draining=%d drained=%d live=%llu\n",
                  drained.draining ? 1 : 0, drained.drained ? 1 : 0,
                  static_cast<unsigned long long>(drained.live_sessions));
      if (!drained.drained) {
        std::fprintf(stderr, "tunespace_client: drain did not complete\n");
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tunespace_client: %s\n", e.what());
    return 1;
  }
}
