// Concurrent multi-session tuning recipe: one SessionManager serving many
// overlapping tuning sessions, plus a portfolio race.
//
//   $ ./concurrent_sessions
//
// Eight sessions tune the Hotspot space at once (different seeds and
// optimizers, as if eight users submitted jobs): the manager resolves the
// space once, every session reuses it, and the lock-striped shared
// evaluation cache lets overlapping sessions skip re-measuring
// configurations another session already benchmarked — while each session's
// result stays bit-identical to what an isolated run_session call would
// produce.  The portfolio then races all five optimizers (seed-split from
// one root seed) over the same space with a shared best-so-far and a stall
// rule, which is the practical answer to "which optimizer should I use for
// this kernel?" — run them all, deterministically, and keep the winner.
#include <iostream>
#include <memory>

#include "tunespace/spaces/realworld.hpp"
#include "tunespace/tuner/session.hpp"

using namespace tunespace;

int main() {
  const auto rw = spaces::hotspot();
  const auto model = std::make_shared<tuner::HotspotModel>();

  // 1. Eight overlapping sessions, one shared space + evaluation cache.
  std::vector<tuner::SessionRequest> requests;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    tuner::SessionRequest request;
    request.spec = rw.spec;
    request.model = model;
    request.make_optimizer = [seed]() -> std::unique_ptr<tuner::Optimizer> {
      if (seed % 2) return std::make_unique<tuner::RandomSearch>();
      return std::make_unique<tuner::GeneticAlgorithm>();
    };
    request.options.budget_seconds = 120.0;
    request.options.seed = seed;
    // Pin the construction charge: this (not sharing) is what makes a
    // managed session bit-identical to an isolated run_session call —
    // measured construction latency is machine noise.
    request.options.fixed_construction_seconds = 5.0;
    requests.push_back(std::move(request));
  }

  tuner::SessionManager manager;
  const auto results = manager.run_all(std::move(requests));
  std::cout << rw.name << ": " << results.size() << " sessions, "
            << manager.spaces_built() << " space built, "
            << manager.spaces_shared() << " reused; shared cache served "
            << manager.eval_cache().hits() << " of "
            << manager.eval_cache().hits() + manager.eval_cache().misses()
            << " measurement requests\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::cout << "  session " << i + 1 << ": best "
              << results[i].run.best_gflops << " GFLOP/s after "
              << results[i].run.evaluations << " evals ("
              << (results[i].stats.shared_space ? "shared" : "built")
              << " space, " << results[i].stats.shared_cache_hits
              << " cache hits)\n";
  }

  // 2. Portfolio race: all five optimizers, one root seed, shared
  //    best-so-far, early stop after 60 stalled virtual seconds.
  const searchspace::SearchSpace space(rw.spec);
  tuner::PortfolioOptions options;
  options.base.budget_seconds = 240.0;
  options.base.seed = 2025;
  options.stall_seconds = 60.0;
  const auto race = tuner::run_portfolio(space, *model,
                                         tuner::default_portfolio(), options);
  std::cout << "portfolio (root seed 2025"
            << (race.early_stopped ? ", stalled early" : "") << "):\n";
  for (const auto& member : race.members) {
    std::cout << "  " << member.optimizer_name << ": best "
              << member.run.best_gflops << " after " << member.run.evaluations
              << " evals\n";
  }
  std::cout << "  winner: " << race.members[race.winner].optimizer_name
            << " with " << race.merged.best_gflops << " GFLOP/s (portfolio "
            << "total " << race.merged.evaluations << " evals)\n";
  return 0;
}
