#include "tunespace/tuner/optimizers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "tunespace/searchspace/neighbors.hpp"
#include "tunespace/searchspace/sampling.hpp"
#include "tunespace/tuner/api.hpp"

namespace tunespace::tuner {

std::vector<std::string> optimizer_names() {
  return {"random-sampling", "genetic-algorithm", "simulated-annealing",
          "hill-climbing", "differential-evolution", "nsga2", "surrogate"};
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& name) {
  if (name == "random-sampling") return std::make_unique<RandomSearch>();
  if (name == "genetic-algorithm") return std::make_unique<GeneticAlgorithm>();
  if (name == "simulated-annealing") return std::make_unique<SimulatedAnnealing>();
  if (name == "hill-climbing") return std::make_unique<HillClimber>();
  if (name == "differential-evolution") {
    return std::make_unique<DifferentialEvolution>();
  }
  if (name == "nsga2") return std::make_unique<Nsga2>();
  if (name == "surrogate") return std::make_unique<SurrogateGuided>();
  throw ServiceError(ErrorCode::kInvalidArgument,
                     "unknown optimizer '" + name + "'");
}

using searchspace::NeighborMethod;
using searchspace::SubSpace;

namespace {

/// The Hamming-1 neighbourhoods one run() has asked for.  Mutation and
/// annealing steps revisit the same rows many times, and a view's
/// neighbourhoods never change, so each row's list is computed once.
class Hamming1Memo {
 public:
  explicit Hamming1Memo(const SubSpace& space) : space_(space) {}
  const std::vector<std::size_t>& operator()(std::size_t row) {
    auto [it, inserted] = lists_.try_emplace(row);
    if (inserted) {
      it->second = searchspace::neighbors_of(space_, row, NeighborMethod::Hamming1);
    }
    return it->second;
  }

 private:
  const SubSpace& space_;
  std::unordered_map<std::size_t, std::vector<std::size_t>> lists_;
};

}  // namespace

void RandomSearch::run(EvalContext& ctx) {
  const std::size_t n = ctx.space.size();
  if (n == 0) return;
  // Shuffled sweep = sampling without replacement, with the Fisher–Yates
  // permutation generated incrementally: position i draws its element from
  // the not-yet-visited suffix, and only displaced suffix entries live in
  // the journal.  A budget-limited run therefore allocates O(evaluated)
  // instead of shuffling an O(n) index vector before the first evaluation.
  std::unordered_map<std::size_t, std::size_t> displaced;
  const auto slot = [&](std::size_t k) {
    const auto it = displaced.find(k);
    return it == displaced.end() ? k : it->second;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (ctx.exhausted()) return;
    const std::size_t j = i + ctx.rng->index(n - i);
    const std::size_t pick = slot(j);
    displaced[j] = slot(i);
    displaced.erase(i);  // positions < i are never drawn again
    ctx.evaluate(pick);
  }
}

void GeneticAlgorithm::run(EvalContext& ctx) {
  const SubSpace& space = ctx.space;
  const std::size_t n = space.size();
  if (n == 0) return;
  const std::size_t pop_size = std::min(params_.population, n);

  struct Member {
    std::size_t row;
    double fitness;
  };
  std::vector<Member> population;
  for (std::size_t row : searchspace::random_sample(space, pop_size, *ctx.rng)) {
    if (ctx.exhausted()) return;
    population.push_back({row, ctx.evaluate(row)});
  }

  Hamming1Memo hamming1(space);
  auto tournament_pick = [&]() -> const Member& {
    const Member* best = &population[ctx.rng->index(population.size())];
    for (std::size_t t = 1; t < params_.tournament; ++t) {
      const Member& cand = population[ctx.rng->index(population.size())];
      if (cand.fitness > best->fitness) best = &cand;
    }
    return *best;
  };

  while (!ctx.exhausted()) {
    std::vector<Member> next;
    // Elitism: carry the best member over.
    const auto best_it =
        std::max_element(population.begin(), population.end(),
                         [](const Member& a, const Member& b) {
                           return a.fitness < b.fitness;
                         });
    next.push_back(*best_it);
    while (next.size() < pop_size && !ctx.exhausted()) {
      const Member& pa = tournament_pick();
      const Member& pb = tournament_pick();
      // Uniform crossover in index space, snapped to a valid configuration.
      std::vector<std::uint32_t> child(space.num_params());
      for (std::size_t p = 0; p < space.num_params(); ++p) {
        child[p] = ctx.rng->chance(0.5) ? space.value_index(pa.row, p)
                                        : space.value_index(pb.row, p);
      }
      std::size_t row = searchspace::snap_to_valid(space, child);
      // Mutation: jump to a random valid Hamming-1 neighbour.
      if (ctx.rng->chance(params_.mutation_rate)) {
        const auto& neigh = hamming1(row);
        if (!neigh.empty()) row = neigh[ctx.rng->index(neigh.size())];
      }
      next.push_back({row, ctx.evaluate(row)});
    }
    population = std::move(next);
  }
}

void SimulatedAnnealing::run(EvalContext& ctx) {
  const SubSpace& space = ctx.space;
  if (space.empty()) return;
  std::size_t current = ctx.rng->index(space.size());
  if (ctx.exhausted()) return;
  double current_perf = ctx.evaluate(current);
  double temperature = params_.initial_temperature * std::max(current_perf, 1.0);

  Hamming1Memo hamming1(space);
  while (!ctx.exhausted()) {
    const auto& neigh = hamming1(current);
    if (neigh.empty()) {
      // Isolated configuration: restart from a random point.
      current = ctx.rng->index(space.size());
      current_perf = ctx.evaluate(current);
      continue;
    }
    const std::size_t cand = neigh[ctx.rng->index(neigh.size())];
    const double cand_perf = ctx.evaluate(cand);
    const double delta = cand_perf - current_perf;
    if (delta >= 0 ||
        ctx.rng->uniform() < std::exp(delta / std::max(temperature, 1e-9))) {
      current = cand;
      current_perf = cand_perf;
    }
    temperature *= params_.cooling;
    if (temperature < 1e-6) {
      // Reheat with a random restart to keep exploring within the budget.
      current = ctx.rng->index(space.size());
      current_perf = ctx.evaluate(current);
      temperature = params_.initial_temperature * std::max(current_perf, 1.0);
    }
  }
}

void DifferentialEvolution::run(EvalContext& ctx) {
  const SubSpace& space = ctx.space;
  const std::size_t n = space.size();
  const std::size_t d = space.num_params();
  if (n == 0) return;
  const std::size_t pop_size = std::min(std::max<std::size_t>(4, params_.population), n);

  // Work in "present-value position" coordinates per parameter, so the
  // difference vectors stay inside the true bounds (§4.4).
  auto position_of = [&](std::size_t row, std::size_t p) -> double {
    const auto& present = space.present_values(p);
    const std::uint32_t vi = space.value_index(row, p);
    const auto it = std::lower_bound(present.begin(), present.end(), vi);
    return static_cast<double>(it - present.begin());
  };

  struct Member {
    std::size_t row;
    double fitness;
  };
  std::vector<Member> population;
  for (std::size_t row : searchspace::random_sample(space, pop_size, *ctx.rng)) {
    if (ctx.exhausted()) return;
    population.push_back({row, ctx.evaluate(row)});
  }

  std::vector<std::uint32_t> candidate(d);
  while (!ctx.exhausted()) {
    for (std::size_t i = 0; i < population.size() && !ctx.exhausted(); ++i) {
      // Pick three distinct members a, b, c different from i.
      std::size_t a, b, c;
      do { a = ctx.rng->index(population.size()); } while (a == i);
      do { b = ctx.rng->index(population.size()); } while (b == i || b == a);
      do { c = ctx.rng->index(population.size()); } while (c == i || c == a || c == b);

      const std::size_t forced = ctx.rng->index(d);  // at least one crossover dim
      for (std::size_t p = 0; p < d; ++p) {
        const auto& present = space.present_values(p);
        if (p == forced || ctx.rng->chance(params_.crossover_rate)) {
          const double pos = position_of(population[a].row, p) +
                             params_.differential_weight *
                                 (position_of(population[b].row, p) -
                                  position_of(population[c].row, p));
          const auto clamped = std::clamp<long long>(
              std::llround(pos), 0, static_cast<long long>(present.size()) - 1);
          candidate[p] = present[static_cast<std::size_t>(clamped)];
        } else {
          candidate[p] = space.value_index(population[i].row, p);
        }
      }
      const std::size_t row = searchspace::snap_to_valid(space, candidate);
      const double fitness = ctx.evaluate(row);
      if (fitness > population[i].fitness) population[i] = {row, fitness};
    }
  }
}

void Nsga2::run(EvalContext& ctx) {
  const SubSpace& space = ctx.space;
  const std::size_t n = space.size();
  const std::size_t d = space.num_params();
  if (n == 0) return;
  const ObjectiveSpec fallback_spec;  // legacy single objective
  const ObjectiveSpec& spec = ctx.objectives ? *ctx.objectives : fallback_spec;
  const auto measure = [&ctx](std::size_t row) {
    // Hand-rolled contexts may lack the vector channel; the scalar is then
    // the whole vector (its gflops component).
    return ctx.measure ? ctx.measure(row) : Measurement{ctx.evaluate(row), 0.0};
  };
  const std::size_t pop_size =
      std::min(std::max<std::size_t>(4, params_.population), n);

  struct Member {
    std::size_t row = 0;
    Measurement m;
    std::size_t rank = 0;
    double crowding = 0;
  };

  // Fast non-dominated sort (Deb et al.) + crowding distance.  All sorts
  // are stable and ties keep insertion order, so the whole pass is a pure
  // function of the member sequence — determinism comes free.
  const auto rank_and_crowd = [&spec](std::vector<Member>& members) {
    const std::size_t k = members.size();
    const std::size_t objectives = spec.objectives.size();
    // Each member's components, read once: value[i * objectives + o].
    std::vector<double> value(k * objectives);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t o = 0; o < objectives; ++o) {
        value[i * objectives + o] =
            ObjectiveSpec::component(members[i].m, spec.objectives[o].name);
      }
    }
    // ObjectiveSpec::dominates over those values: direction-adjusted, no
    // worse in every objective and strictly better in one.
    const auto oriented = [&](std::size_t i, std::size_t o) {
      const double v = value[i * objectives + o];
      return spec.objectives[o].direction == Direction::kMinimize ? -v : v;
    };
    const auto dominates = [&](std::size_t a, std::size_t b) {
      bool strictly_better = false;
      for (std::size_t o = 0; o < objectives; ++o) {
        const double av = oriented(a, o);
        const double bv = oriented(b, o);
        if (av < bv) return false;
        if (av > bv) strictly_better = true;
      }
      return strictly_better;
    };
    std::vector<std::vector<std::size_t>> dominated(k);
    std::vector<std::size_t> dominators(k, 0);
    std::vector<std::vector<std::size_t>> fronts(1);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        if (i == j) continue;
        if (dominates(i, j)) {
          dominated[i].push_back(j);
        } else if (dominates(j, i)) {
          dominators[i]++;
        }
      }
      if (dominators[i] == 0) {
        members[i].rank = 0;
        fronts[0].push_back(i);
      }
    }
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      std::vector<std::size_t> next;
      for (std::size_t i : fronts[f]) {
        for (std::size_t j : dominated[i]) {
          if (--dominators[j] == 0) {
            members[j].rank = f + 1;
            next.push_back(j);
          }
        }
      }
      if (!next.empty()) fronts.push_back(std::move(next));
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (auto& member : members) member.crowding = 0;
    for (const auto& front : fronts) {
      if (front.size() <= 2) {
        for (std::size_t i : front) members[i].crowding = inf;
        continue;
      }
      for (std::size_t o = 0; o < objectives; ++o) {
        const auto at = [&](std::size_t i) { return value[i * objectives + o]; };
        std::vector<std::size_t> order(front);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) { return at(a) < at(b); });
        const double lo = at(order.front());
        const double hi = at(order.back());
        members[order.front()].crowding = inf;
        members[order.back()].crowding = inf;
        if (hi <= lo) continue;  // degenerate axis: no spread to reward
        for (std::size_t s = 1; s + 1 < order.size(); ++s) {
          members[order[s]].crowding += (at(order[s + 1]) - at(order[s - 1])) / (hi - lo);
        }
      }
    }
  };

  std::vector<Member> population;
  for (std::size_t row : searchspace::random_sample(space, pop_size, *ctx.rng)) {
    if (ctx.exhausted()) return;
    population.push_back({row, measure(row), 0, 0});
  }
  rank_and_crowd(population);

  const auto better = [](const Member& a, const Member& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.crowding > b.crowding;
  };
  // Binary tournament on (rank, crowding); the first draw wins ties.
  const auto tournament = [&]() -> const Member& {
    const Member& a = population[ctx.rng->index(population.size())];
    const Member& b = population[ctx.rng->index(population.size())];
    return better(b, a) ? b : a;
  };

  Hamming1Memo hamming1(space);
  std::vector<std::uint32_t> child(d);
  while (!ctx.exhausted()) {
    std::vector<Member> combined = population;
    while (combined.size() < 2 * pop_size && !ctx.exhausted()) {
      const Member& pa = tournament();
      const Member& pb = tournament();
      // Variation as in the plain GA: uniform crossover in index space
      // snapped to a valid configuration, Hamming-1 mutation.
      for (std::size_t p = 0; p < d; ++p) {
        child[p] = ctx.rng->chance(0.5) ? space.value_index(pa.row, p)
                                        : space.value_index(pb.row, p);
      }
      std::size_t row = searchspace::snap_to_valid(space, child);
      if (ctx.rng->chance(params_.mutation_rate)) {
        const auto& neigh = hamming1(row);
        if (!neigh.empty()) row = neigh[ctx.rng->index(neigh.size())];
      }
      combined.push_back({row, measure(row), 0, 0});
    }
    // Environmental selection: survivors by (front, crowding), elitist over
    // parents + offspring; stable_sort keeps insertion order on exact ties.
    rank_and_crowd(combined);
    std::stable_sort(combined.begin(), combined.end(),
                     [&better](const Member& a, const Member& b) {
                       return better(a, b);
                     });
    combined.resize(std::min(pop_size, combined.size()));
    population = std::move(combined);
    rank_and_crowd(population);
  }
}

void HillClimber::run(EvalContext& ctx) {
  const SubSpace& space = ctx.space;
  if (space.empty()) return;
  while (!ctx.exhausted()) {
    std::size_t current = ctx.rng->index(space.size());
    double current_perf = ctx.evaluate(current);
    bool improved = true;
    while (improved && !ctx.exhausted()) {
      improved = false;
      for (std::size_t cand :
           searchspace::neighbors_of(space, current, NeighborMethod::Adjacent)) {
        if (ctx.exhausted()) return;
        const double perf = ctx.evaluate(cand);
        if (perf > current_perf) {
          current = cand;
          current_perf = perf;
          improved = true;
          break;  // first-improvement ascent
        }
      }
    }
    // Local optimum reached: random restart.
  }
}

}  // namespace tunespace::tuner
