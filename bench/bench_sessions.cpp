// Concurrent multi-session runtime benchmark: aggregate throughput of N
// overlapping same-spec tuning sessions under the SessionManager (shared
// space + shared evaluation cache) versus the same N sessions as isolated
// run_session calls, emitted as BENCH_sessions.json.
//
// Each case runs a rotation of the five optimizers with per-session seeds
// and a fixed construction charge, so every session's TuningRun must be
// *bit-identical* between the isolated and the managed path — an identity
// mismatch is a hard failure regardless of flags.  The headline metric is
// the aggregate speedup (total isolated wall seconds / total managed wall
// seconds over all cases); per-case speedups and the shared-cache hit
// throughput are reported alongside.
//
// The transfer leg runs three sequential warm-start sessions over one
// shared eval cache: the third session, seeded from the rows the first two
// accumulated, must reach the first session's final best in fewer
// evaluations.  Warm-start with an empty cache (and warm-start off) must
// stay bit-identical to a cold run — that identity is a hard failure
// regardless of flags.
//
// CI gate:  bench_sessions --min-speedup <x> [--min-transfer-speedup <y>]
// exits non-zero when the aggregate speedup drops below <x> or the
// transfer evals-to-target speedup drops below <y>.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/tuner/session.hpp"
#include "tunespace/util/rng.hpp"
#include "tunespace/util/table.hpp"
#include "tunespace/util/timer.hpp"

using namespace tunespace;

namespace {

std::unique_ptr<tuner::Optimizer> make_optimizer(std::size_t i) {
  switch (i % 5) {
    case 0: return std::make_unique<tuner::RandomSearch>();
    case 1: return std::make_unique<tuner::GeneticAlgorithm>();
    case 2: return std::make_unique<tuner::SimulatedAnnealing>();
    case 3: return std::make_unique<tuner::HillClimber>();
    default: return std::make_unique<tuner::DifferentialEvolution>();
  }
}

tuner::TuningOptions session_options(std::uint64_t seed) {
  tuner::TuningOptions options;
  options.budget_seconds = 120.0;
  options.seed = seed;
  // Fix the construction charge: wall-clock construction latency is
  // machine noise, and the identity check below compares virtual
  // timelines bit-for-bit.
  options.fixed_construction_seconds = 5.0;
  return options;
}

struct CaseReport {
  std::string name;
  std::size_t rows = 0;
  std::size_t sessions = 0;
  double isolated_seconds = 0;
  double shared_seconds = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  bool identical = true;
  double speedup() const {
    return shared_seconds > 0 ? isolated_seconds / shared_seconds : 0;
  }
  double hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0 ? static_cast<double>(cache_hits) / total : 0;
  }
};

/// Multi-objective leg: the same isolated-vs-managed identity under a
/// two-objective (maximize gflops, minimize watts) session set, plus the
/// Pareto-front yield and the efficiency gain of power-aware tuning over
/// the throughput-only incumbent.
struct MultiObjectiveReport {
  bool identical = true;
  std::size_t pareto_front_size = 0;          ///< largest front in the set
  double perf_per_watt_improvement = 0;       ///< vector vs scalar incumbent
};

MultiObjectiveReport run_multi_objective(const spaces::RealWorldSpace& rw,
                                         std::size_t sessions,
                                         const tuner::PerformanceModel& model) {
  MultiObjectiveReport report;
  tuner::TuningOptions vector_options = session_options(1);
  vector_options.objectives = tuner::ObjectiveSpec::perf_and_power(1.0, 1.0);

  std::vector<tuner::TuningRun> isolated(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto optimizer = make_optimizer(i);
    tuner::TuningOptions options = vector_options;
    options.seed = i + 1;
    const tuner::Method method = tuner::optimized_method();
    isolated[i] = tuner::run_session(
        tuner::make_session_request(rw.spec, method, model, *optimizer, options));
    report.pareto_front_size =
        std::max(report.pareto_front_size, isolated[i].pareto().size());
  }

  std::vector<tuner::SessionRequest> requests(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    requests[i].spec = rw.spec;
    requests[i].model = std::shared_ptr<const tuner::PerformanceModel>(
        &model, [](const tuner::PerformanceModel*) {});
    requests[i].make_optimizer = [i] { return make_optimizer(i); };
    requests[i].options = vector_options;
    requests[i].options.seed = i + 1;
  }
  tuner::SessionManager manager;
  const auto managed = manager.run_all(std::move(requests));
  for (std::size_t i = 0; i < sessions; ++i) {
    if (!(managed[i].run == isolated[i])) {
      report.identical = false;
      std::fprintf(stderr,
                   "[sessions] %s multi-objective session %zu diverged: "
                   "managed score %.6f vs isolated score %.6f\n",
                   rw.name.c_str(), i, managed[i].run.best_score,
                   isolated[i].best_score);
    }
  }

  // Efficiency gain: re-tune session 0 throughput-only, then compare
  // GFLOP/s-per-watt of the two incumbents (the scalar run masks watts, so
  // its incumbent is re-measured at its front row).
  tuner::TuningOptions scalar_options = session_options(1);
  const auto scalar_optimizer = make_optimizer(0);
  const tuner::Method method = tuner::optimized_method();
  const auto scalar = tuner::run_session(tuner::make_session_request(
      rw.spec, method, model, *scalar_optimizer, scalar_options));
  if (!scalar.front.empty() && !isolated[0].front.empty()) {
    std::vector<std::string> names;
    names.reserve(rw.spec.params().size());
    for (const auto& param : rw.spec.params()) names.push_back(param.name);
    const searchspace::SearchSpace space(rw.spec);
    const auto scalar_measured = model.measure(
        names, space.config(static_cast<std::size_t>(scalar.front[0].parent_row)));
    const tuner::Measurement& vector_best = isolated[0].best;
    if (scalar_measured.watts > 0 && vector_best.watts > 0) {
      const double scalar_ppw = scalar_measured.gflops / scalar_measured.watts;
      const double vector_ppw = vector_best.gflops / vector_best.watts;
      report.perf_per_watt_improvement = vector_ppw / scalar_ppw;
    }
  }
  return report;
}

/// Transfer leg: cache-seeded warm starts across sequential sessions.
struct TransferReport {
  bool identical = true;          ///< cold == cache-attached == warm-on-empty
  std::uint64_t seeded_rows = 0;  ///< rows seeded into the third session
  std::uint64_t evals_to_target_cold = 0;
  std::uint64_t evals_to_target_warm = 0;
  double evals_to_target_speedup = 0;
};

/// Evaluations the run needed before its best first reached `target`
/// (falls back to the full evaluation count if it never did).
std::uint64_t evals_to_target(const tuner::TuningRun& run, double target) {
  for (const auto& pt : run.trajectory) {
    if (pt.best_gflops >= target) return pt.evaluations;
  }
  return run.evaluations;
}

tuner::TuningRun transfer_session(const searchspace::SubSpace& view,
                                  const tuner::PerformanceModel& model,
                                  std::size_t which, std::uint64_t seed,
                                  bool warm, tuner::SharedEvalCache* cache,
                                  std::uint64_t cache_fp,
                                  tuner::SessionStats* stats = nullptr) {
  const auto optimizer = make_optimizer(which);
  tuner::TuningOptions options = session_options(seed);
  options.warm_start = warm;
  auto request = tuner::make_session_request(view, model, *optimizer, options);
  request.shared_cache = cache;
  request.cache_fingerprint = cache_fp;
  request.stats = stats;
  return tuner::run_session(request);
}

TransferReport run_transfer(const spaces::RealWorldSpace& rw,
                            const tuner::PerformanceModel& model) {
  TransferReport report;
  const searchspace::SearchSpace space(rw.spec);
  const searchspace::SubSpace view(space);
  const std::uint64_t cache_fp =
      util::mix64(util::mix64(space.fingerprint(), model.fingerprint()),
                  tuner::ObjectiveSpec{}.fingerprint());

  // The hard identity wall: the same session cold, with an empty shared
  // cache attached, and with warm-start requested over an empty cache must
  // all trace the exact same run — transfer is invisible until the cache
  // actually has rows to seed from.
  const auto cold = transfer_session(view, model, 0, 301, false, nullptr, 0);
  tuner::SharedEvalCache scratch;
  const auto cache_off =
      transfer_session(view, model, 0, 301, false, &scratch, cache_fp);
  tuner::SharedEvalCache cache;
  const auto first =
      transfer_session(view, model, 0, 301, true, &cache, cache_fp);
  report.identical = cold == cache_off && cold == first;
  if (!report.identical) {
    std::fprintf(stderr,
                 "[sessions] %s transfer session diverged from its cold "
                 "run: cold %.4f/%zu evals, cache-off %.4f/%zu, "
                 "warm-empty %.4f/%zu\n",
                 rw.name.c_str(), cold.best_gflops, cold.evaluations,
                 cache_off.best_gflops, cache_off.evaluations,
                 first.best_gflops, first.evaluations);
  }

  // Sessions two and three keep feeding the same cache; the third starts
  // from the best rows the first two measured.
  transfer_session(view, model, 1, 302, true, &cache, cache_fp);
  tuner::SessionStats third_stats;
  const auto third =
      transfer_session(view, model, 2, 303, true, &cache, cache_fp, &third_stats);

  const double target = first.best_gflops;
  report.seeded_rows = third_stats.seeded_rows;
  report.evals_to_target_cold = evals_to_target(first, target);
  report.evals_to_target_warm = evals_to_target(third, target);
  report.evals_to_target_speedup =
      report.evals_to_target_warm > 0
          ? static_cast<double>(report.evals_to_target_cold) /
                static_cast<double>(report.evals_to_target_warm)
          : 0;
  return report;
}

CaseReport run_case(const spaces::RealWorldSpace& rw, std::size_t sessions,
                    const tuner::PerformanceModel& model) {
  CaseReport report;
  report.name = rw.name;
  report.sessions = sessions;

  // Isolated baseline: every session pays its own construction.
  std::vector<tuner::TuningRun> isolated(sessions);
  util::WallTimer timer;
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto optimizer = make_optimizer(i);
    const tuner::Method method = tuner::optimized_method();
    isolated[i] = tuner::run_session(tuner::make_session_request(
        rw.spec, method, model, *optimizer, session_options(i + 1)));
  }
  report.isolated_seconds = timer.seconds();

  // Managed: one shared space, one shared evaluation cache.
  std::vector<tuner::SessionRequest> requests(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    requests[i].spec = rw.spec;
    requests[i].model = std::shared_ptr<const tuner::PerformanceModel>(
        &model, [](const tuner::PerformanceModel*) {});
    requests[i].make_optimizer = [i] { return make_optimizer(i); };
    requests[i].options = session_options(i + 1);
  }
  tuner::SessionManager manager;
  timer.reset();
  const auto results = manager.run_all(std::move(requests));
  report.shared_seconds = timer.seconds();
  report.cache_hits = manager.eval_cache().hits();
  report.cache_misses = manager.eval_cache().misses();
  // Row count via the manager's registry — a free hit on the shared space
  // the sessions just used, not a third re-solve.
  report.rows =
      manager.acquire_space(rw.spec, tuner::optimized_method())->size();
  for (std::size_t i = 0; i < sessions; ++i) {
    if (!(results[i].run == isolated[i])) {
      report.identical = false;
      std::fprintf(stderr,
                   "[sessions] %s session %zu diverged: managed best %.4f "
                   "(%zu evals) vs isolated best %.4f (%zu evals)\n",
                   rw.name.c_str(), i, results[i].run.best_gflops,
                   results[i].run.evaluations, isolated[i].best_gflops,
                   isolated[i].evaluations);
    }
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  double gate_speedup = 0;
  double gate_transfer = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      gate_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-transfer-speedup") == 0 &&
               i + 1 < argc) {
      gate_transfer = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--min-speedup <x>] [--min-transfer-speedup <y>]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::section("Concurrent sessions: shared space + eval cache vs isolated");

  tuner::HotspotModel hotspot_model;
  tuner::GemmModel gemm_model;
  tuner::SyntheticModel synthetic_model(17);

  std::vector<CaseReport> reports;
  reports.push_back(run_case(spaces::hotspot(), 8, hotspot_model));
  reports.push_back(run_case(spaces::gemm(), 8, gemm_model));
  // Cheap-construction case: the win here comes from the shared eval cache
  // rather than amortized construction.
  reports.push_back(run_case(spaces::dedispersion(), 16, synthetic_model));

  util::Table table({"case", "rows", "sessions", "isolated", "shared",
                     "speedup", "hit-rate", "identical"});
  double total_isolated = 0, total_shared = 0;
  std::uint64_t total_hits = 0;
  bool all_identical = true;
  for (const auto& r : reports) {
    total_isolated += r.isolated_seconds;
    total_shared += r.shared_seconds;
    total_hits += r.cache_hits;
    all_identical = all_identical && r.identical;
    table.add_row({r.name, std::to_string(r.rows), std::to_string(r.sessions),
                   util::fmt_seconds(r.isolated_seconds),
                   util::fmt_seconds(r.shared_seconds),
                   util::fmt_double(r.speedup(), 2) + "x",
                   util::fmt_double(100 * r.hit_rate(), 3) + "%",
                   r.identical ? "yes" : "NO"});
  }
  table.print(std::cout);

  const double aggregate_speedup =
      total_shared > 0 ? total_isolated / total_shared : 0;
  const double hits_per_second =
      total_shared > 0 ? static_cast<double>(total_hits) / total_shared : 0;
  std::printf(
      "suite total: isolated %.4fs, shared %.4fs, aggregate speedup %.1fx, "
      "%.0f cache hits/s\n",
      total_isolated, total_shared, aggregate_speedup, hits_per_second);

  const auto mo = run_multi_objective(spaces::hotspot(), 4, hotspot_model);
  std::printf(
      "multi-objective: identical %s, Pareto front %zu points, "
      "perf-per-watt improvement %.3fx over throughput-only tuning\n",
      mo.identical ? "yes" : "NO", mo.pareto_front_size,
      mo.perf_per_watt_improvement);

  const auto transfer = run_transfer(spaces::hotspot(), hotspot_model);
  std::printf(
      "transfer: identical %s, %llu seeded rows, evals-to-target %llu cold "
      "vs %llu warm (%.2fx)\n",
      transfer.identical ? "yes" : "NO",
      static_cast<unsigned long long>(transfer.seeded_rows),
      static_cast<unsigned long long>(transfer.evals_to_target_cold),
      static_cast<unsigned long long>(transfer.evals_to_target_warm),
      transfer.evals_to_target_speedup);

  if (std::FILE* f = std::fopen("BENCH_sessions.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"sessions\",\n");
    std::fprintf(f, "  \"fast_mode\": %s,\n", bench::fast_mode() ? "true" : "false");
    std::fprintf(f, "  \"total_isolated_seconds\": %.6f,\n", total_isolated);
    std::fprintf(f, "  \"total_shared_seconds\": %.6f,\n", total_shared);
    std::fprintf(f, "  \"aggregate_speedup\": %.2f,\n", aggregate_speedup);
    std::fprintf(f, "  \"cache_hits_per_second\": %.1f,\n", hits_per_second);
    std::fprintf(f, "  \"identical\": %s,\n", all_identical ? "true" : "false");
    std::fprintf(f,
                 "  \"multi_objective\": {\"identical\": %s, "
                 "\"pareto_front_size\": %zu, "
                 "\"perf_per_watt_improvement\": %.4f},\n",
                 mo.identical ? "true" : "false", mo.pareto_front_size,
                 mo.perf_per_watt_improvement);
    std::fprintf(f,
                 "  \"transfer\": {\"identical\": %s, \"seeded_rows\": %llu, "
                 "\"evals_to_target_cold\": %llu, "
                 "\"evals_to_target_warm\": %llu, "
                 "\"evals_to_target_speedup\": %.2f},\n",
                 transfer.identical ? "true" : "false",
                 static_cast<unsigned long long>(transfer.seeded_rows),
                 static_cast<unsigned long long>(transfer.evals_to_target_cold),
                 static_cast<unsigned long long>(transfer.evals_to_target_warm),
                 transfer.evals_to_target_speedup);
    std::fprintf(f, "  \"cases\": [\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const CaseReport& r = reports[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"rows\": %zu, \"sessions\": %zu, "
                   "\"isolated_seconds\": %.6f, \"shared_seconds\": %.6f, "
                   "\"speedup\": %.2f, \"cache_hits\": %llu, "
                   "\"cache_hit_rate\": %.4f, \"identical\": %s}%s\n",
                   r.name.c_str(), r.rows, r.sessions, r.isolated_seconds,
                   r.shared_seconds, r.speedup(),
                   static_cast<unsigned long long>(r.cache_hits), r.hit_rate(),
                   r.identical ? "true" : "false",
                   i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_sessions.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_sessions.json\n");
  }

  if (!all_identical || !mo.identical || !transfer.identical) {
    std::fprintf(stderr,
                 "FAIL: a managed session diverged from its isolated "
                 "counterpart (see above)\n");
    return 1;
  }
  if (gate_speedup > 0 && aggregate_speedup < gate_speedup) {
    std::fprintf(stderr,
                 "FAIL: aggregate speedup %.1fx below the %.1fx gate\n",
                 aggregate_speedup, gate_speedup);
    return 1;
  }
  if (gate_transfer > 0 && transfer.evals_to_target_speedup < gate_transfer) {
    std::fprintf(stderr,
                 "FAIL: transfer evals-to-target speedup %.2fx below the "
                 "%.2fx gate\n",
                 transfer.evals_to_target_speedup, gate_transfer);
    return 1;
  }
  return 0;
}
