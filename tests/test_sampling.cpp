// Tests for uniform and Latin Hypercube sampling over resolved spaces, and
// for the row snap_to_valid picks on a miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <latch>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "support/spec_gen.hpp"
#include "tunespace/searchspace/io.hpp"
#include "tunespace/searchspace/neighbors.hpp"
#include "tunespace/searchspace/sampling.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/spaces/realworld.hpp"

using namespace tunespace;
using namespace tunespace::searchspace;

namespace {

tuner::TuningProblem sample_spec() {
  tuner::TuningProblem spec("sample");
  spec.add_param("x", {1, 2, 3, 4, 5, 6, 7, 8})
      .add_param("y", {1, 2, 3, 4, 5, 6, 7, 8})
      .add_param("z", {1, 2, 3, 4});
  spec.add_constraint("x + y <= 12");
  return spec;
}

/// snap_to_valid's rule, restated over the decoded columns (no summary, no
/// row table):
///   1. an exact hit returns its own row;
///   2. each parameter takes the target value, or its nearest value present
///      in the view (ties go to the smaller value);
///   3. the first parameter whose value has the fewest rows in the parent
///      space picks the candidates;
///   4. among the view's rows with that value, in ascending order, the first
///      with the smallest normalized-L1 sum (summed in parameter order) wins.
class SnapOracle {
 public:
  explicit SnapOracle(const SubSpace& view) : view_(view) {
    const SearchSpace& parent = view.parent();
    const std::size_t d = view.num_params();
    codes_.assign(d, std::vector<std::uint32_t>(parent.size()));
    counts_.resize(d);
    present_.resize(d);
    for (std::size_t p = 0; p < d; ++p) {
      counts_[p].assign(view.problem().domain(p).size(), 0);
      for (std::size_t r = 0; r < parent.size(); ++r) {
        codes_[p][r] = parent.value_index(r, p);
        counts_[p][codes_[p][r]]++;
      }
    }
    for (std::size_t local = 0; local < view.size(); ++local) {
      const std::size_t r = view.parent_row(local);
      std::uint64_t key = 0;
      for (std::size_t p = 0; p < d; ++p) {
        present_[p].insert(codes_[p][r]);
        key = key * view.problem().domain(p).size() + codes_[p][r];
      }
      local_of_key_.emplace(key, local);
    }
  }

  std::size_t snap(const std::vector<std::uint32_t>& target) const {
    const std::size_t d = view_.num_params();
    std::uint64_t key = 0;
    for (std::size_t p = 0; p < d; ++p) {
      key = key * view_.problem().domain(p).size() + target[p];
    }
    if (const auto hit = local_of_key_.find(key); hit != local_of_key_.end()) {
      return hit->second;
    }
    std::size_t best_param = 0;
    std::uint32_t best_value = 0;
    for (std::size_t p = 0; p < d; ++p) {
      std::uint32_t value = *present_[p].begin();
      for (std::uint32_t candidate : present_[p]) {  // ascending
        if (std::llabs(static_cast<long long>(candidate) - target[p]) <
            std::llabs(static_cast<long long>(value) - target[p])) {
          value = candidate;
        }
      }
      if (p == 0 || counts_[p][value] < counts_[best_param][best_value]) {
        best_param = p;
        best_value = value;
      }
    }
    double best_sum = std::numeric_limits<double>::infinity();
    std::size_t best_local = 0;
    for (std::size_t local = 0; local < view_.size(); ++local) {
      const std::size_t r = view_.parent_row(local);
      if (codes_[best_param][r] != best_value) continue;
      double sum = 0;
      for (std::size_t p = 0; p < d; ++p) {
        const double span = static_cast<double>(
            std::max<std::size_t>(1, view_.problem().domain(p).size() - 1));
        sum += std::fabs(static_cast<double>(codes_[p][r]) -
                         static_cast<double>(target[p])) /
               span;
      }
      if (sum < best_sum) {
        best_sum = sum;
        best_local = local;
      }
    }
    return best_local;
  }

 private:
  const SubSpace& view_;
  std::vector<std::vector<std::uint32_t>> codes_;   ///< [param][parent row]
  std::vector<std::vector<std::size_t>> counts_;    ///< parent rows per value
  std::vector<std::set<std::uint32_t>> present_;    ///< values in the view
  std::unordered_map<std::uint64_t, std::size_t> local_of_key_;
};

/// Compare snap_to_valid with the oracle on random targets of three kinds:
/// uniform over the domains (mostly misses), view rows (hits) and uniform
/// crossovers of two view rows (what GA and DE children look like).
void expect_snaps_match_the_rule(const SubSpace& view, std::uint64_t seed,
                                 const std::string& what) {
  if (view.empty()) return;
  const SnapOracle oracle(view);
  util::Rng rng(seed);
  const std::size_t d = view.num_params();
  std::vector<std::uint32_t> target(d);
  for (int i = 0; i < 60; ++i) {
    const std::vector<std::uint32_t> a = view.indices(rng.index(view.size()));
    const std::vector<std::uint32_t> b = view.indices(rng.index(view.size()));
    for (std::size_t p = 0; p < d; ++p) {
      switch (i % 3) {
        case 0:
          target[p] = static_cast<std::uint32_t>(
              rng.index(view.problem().domain(p).size()));
          break;
        case 1: target[p] = a[p]; break;
        default: target[p] = rng.uniform() < 0.5 ? a[p] : b[p];
      }
    }
    ASSERT_EQ(snap_to_valid(view, target), oracle.snap(target))
        << what << ", target " << i;
  }
}

}  // namespace

TEST(Sampling, RandomSampleDistinctAndInRange) {
  SearchSpace space(sample_spec());
  util::Rng rng(5);
  auto rows = random_sample(space, 50, rng);
  EXPECT_EQ(rows.size(), 50u);
  std::set<std::size_t> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), rows.size());
  for (std::size_t r : rows) EXPECT_LT(r, space.size());
}

TEST(Sampling, RandomSampleClampsToSize) {
  SearchSpace space(sample_spec());
  util::Rng rng(5);
  auto rows = random_sample(space, space.size() * 10, rng);
  EXPECT_EQ(rows.size(), space.size());
}

TEST(Sampling, RandomSampleDeterministicInSeed) {
  SearchSpace space(sample_spec());
  util::Rng a(42), b(42), c(43);
  EXPECT_EQ(random_sample(space, 20, a), random_sample(space, 20, b));
  util::Rng a2(42);
  EXPECT_NE(random_sample(space, 20, a2), random_sample(space, 20, c));
}

TEST(Sampling, SnapToValidReturnsExactHit) {
  SearchSpace space(sample_spec());
  for (std::size_t r = 0; r < space.size(); r += 7) {
    EXPECT_EQ(snap_to_valid(space, space.indices(r)), r);
  }
}

TEST(Sampling, SnapToValidFindsNearbyConfig) {
  SearchSpace space(sample_spec());
  // (8, 8, 0) violates x + y <= 12; the snap must return a valid row.
  const std::size_t row = snap_to_valid(space, {7, 7, 0});
  const csp::Config config = space.config(row);
  EXPECT_LE(config[0].as_int() + config[1].as_int(), 12);
  // And it should stay reasonably close to the corner.
  EXPECT_GE(config[0].as_int() + config[1].as_int(), 10);
}

TEST(Sampling, SnapToValidFollowsItsRuleOnTable2SpecsAndGeneratedSpecs) {
  std::uint64_t seed = 1;
  for (const auto& rw : spaces::all_realworld()) {
    const auto space = std::make_shared<const SearchSpace>(rw.spec);
    const SubSpace whole(space);
    expect_snaps_match_the_rule(whole, seed++, rw.name);
    // A restricted view: every other present value of the parameter with
    // the most of them, so the view's present values differ from the
    // parent's and its rows are a strict subset.
    std::size_t widest = 0;
    for (std::size_t p = 1; p < space->num_params(); ++p) {
      if (space->present_values(p).size() > space->present_values(widest).size()) {
        widest = p;
      }
    }
    std::vector<csp::Value> kept;
    const auto& present = space->present_values(widest);
    for (std::size_t i = 0; i < present.size(); i += 2) {
      kept.push_back(space->problem().domain(widest)[present[i]]);
    }
    const SubSpace restricted =
        whole.restrict(query::in_set(space->param_name(widest), kept));
    ASSERT_LT(restricted.size(), whole.size()) << rw.name;
    expect_snaps_match_the_rule(restricted, seed++, rw.name + " restricted");
  }
  for (std::uint64_t spec_seed = 0; spec_seed < 40; ++spec_seed) {
    const auto space =
        std::make_shared<const SearchSpace>(testsupport::random_spec(spec_seed));
    expect_snaps_match_the_rule(SubSpace(space), seed++,
                                "spec_gen seed " + std::to_string(spec_seed));
  }
}

/// `count` crossover-style targets (each parameter from one of two random
/// rows of `space`) that are not rows of `space`: snap misses.
std::vector<std::vector<std::uint32_t>> crossover_misses(const SearchSpace& space,
                                                         std::size_t count,
                                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> targets;
  std::vector<std::uint32_t> target(space.num_params());
  while (targets.size() < count) {
    const std::vector<std::uint32_t> a = space.indices(rng.index(space.size()));
    const std::vector<std::uint32_t> b = space.indices(rng.index(space.size()));
    for (std::size_t p = 0; p < target.size(); ++p) {
      target[p] = rng.chance(0.5) ? a[p] : b[p];
    }
    if (!space.find(target)) targets.push_back(target);
  }
  return targets;
}

TEST(Sampling, SnapOnAShapeLoadedSnapshotEqualsSnapOnTheFreshBuild) {
  // A kShape load borrows its columns from the file buffer; the block
  // ranges the snap walk skips by are derived over those borrowed words.
  const tuner::TuningProblem spec = spaces::gemm().spec;
  const SearchSpace fresh(spec);
  const std::string dir = "test_sampling_scratch";
  std::filesystem::create_directories(dir);
  save_snapshot(fresh, dir + "/gemm.tss");
  const SearchSpace loaded =
      load_snapshot(spec, dir + "/gemm.tss", SnapshotVerify::kShape);
  std::filesystem::remove_all(dir);
  const auto pred = query::in_set("MWG", {csp::Value(32), csp::Value(128)});
  const SubSpace fresh_view = SubSpace(fresh).restrict(pred);
  const SubSpace loaded_view = SubSpace(loaded).restrict(pred);
  for (const auto& target : crossover_misses(fresh, 300, 3)) {
    ASSERT_EQ(snap_to_valid(loaded, target), snap_to_valid(fresh, target));
    ASSERT_EQ(snap_to_valid(loaded_view, target), snap_to_valid(fresh_view, target));
  }
}

TEST(Sampling, SnapTiesGoToTheLowestRowAcrossBlockBoundaries) {
  // Every diagonal target (k, k) is a miss with up to four rows at the
  // smallest distance.  Rows come out in x-major order, 31 per x, so for
  // even k the tied pair (k, k-1), (k, k+1) sits at rows 32k-1 and 32k:
  // either side of a 64-row block boundary.
  std::vector<std::int64_t> values(32);
  std::iota(values.begin(), values.end(), 0);
  tuner::TuningProblem spec("ties");
  spec.add_param("x", values).add_param("y", values);
  spec.add_constraint("x != y");
  const SearchSpace space(spec);
  ASSERT_EQ(space.size(), 32u * 31u);
  const SubSpace whole(space);
  const SubSpace restricted = whole.restrict(query::between("y", 5, 30));
  for (const SubSpace& view : {whole, restricted}) {
    const SnapOracle oracle(view);
    for (std::uint32_t k = 0; k < 32; ++k) {
      const std::vector<std::uint32_t> diagonal = {k, k};
      ASSERT_EQ(snap_to_valid(view, diagonal), oracle.snap(diagonal)) << "k " << k;
    }
  }
  for (std::uint32_t k = 2; k < 32; k += 2) {
    ASSERT_EQ(space.indices(32 * k - 1), (std::vector<std::uint32_t>{k, k - 1}));
    EXPECT_EQ(snap_to_valid(whole, {k, k}), 32 * k - 1) << "k " << k;
  }
}

/// What a caller reads through each query that derives something on first
/// use: the space's summary, and the present values of a restricted view.
struct FirstUse {
  std::vector<std::vector<std::uint32_t>> present, shared_present;
  std::vector<std::uint32_t> restricted;
  std::vector<std::size_t> snaps_whole, snaps_view, snaps_shared;
  std::vector<std::vector<std::size_t>> neighbors;
  bool operator==(const FirstUse&) const = default;
};

/// Make every query of FirstUse.  The calls on `shared`, a restricted view
/// made before the call, come first: with an even `first` a snap miss,
/// which reads the view's present values, leads, otherwise present_values.
/// The queries on `space` follow, starting with query `first` (0:
/// present_values, 1: restrict, 2: a snap miss, 3: neighbors_of).
FirstUse first_use(const SearchSpace& space, const SubSpace& shared,
                   const query::Predicate& pred,
                   const std::vector<std::vector<std::uint32_t>>& targets,
                   std::size_t first) {
  FirstUse got;
  const auto shared_snaps = [&] {
    for (const auto& target : targets) {
      got.snaps_shared.push_back(snap_to_valid(shared, target));
    }
  };
  const auto shared_present = [&] {
    for (std::size_t p = 0; p < shared.num_params(); ++p) {
      got.shared_present.push_back(shared.present_values(p));
    }
  };
  if (first % 2 == 0) {
    shared_snaps();
    shared_present();
  } else {
    shared_present();
    shared_snaps();
  }
  const SubSpace whole(space);
  const auto present = [&] {
    for (std::size_t p = 0; p < space.num_params(); ++p) {
      got.present.push_back(space.present_values(p));
    }
  };
  std::optional<SubSpace> view;
  const auto restriction = [&] {
    view = whole.restrict(pred);
    got.restricted.assign(view->selection().begin(), view->selection().end());
  };
  const auto snap = [&] { got.snaps_whole.push_back(snap_to_valid(whole, targets[0])); };
  const auto neighbors = [&] {
    for (std::size_t r = 0; r < space.size(); r += space.size() / 50 + 1) {
      got.neighbors.push_back(neighbors_of(whole, r));
    }
  };
  const std::function<void()> queries[] = {present, restriction, snap, neighbors};
  for (std::size_t q = 0; q < 4; ++q) queries[(first + q) % 4]();
  for (std::size_t i = 1; i < targets.size(); ++i) {
    got.snaps_whole.push_back(snap_to_valid(whole, targets[i]));
  }
  for (const auto& target : targets) {
    got.snaps_view.push_back(snap_to_valid(*view, target));
  }
  return got;
}

TEST(Sampling, ConcurrentFirstMissesOnAFreshSpaceAgreeWithOneThread) {
  // Four threads make the first queries at once on a space whose summary
  // nobody has derived yet, each starting with a different query, and on
  // one restricted view whose present values nobody has derived yet: once
  // on fresh builds, once on snapshots loaded at SnapshotVerify::kShape,
  // whose columns are borrowed from the file buffer.  Restricting derives
  // the parent's summary, so the shared view is made over a second space.
  const tuner::TuningProblem spec = spaces::dedispersion().spec;
  const auto pred = query::between("block_size_x", csp::Value(8), csp::Value(512));
  std::vector<std::vector<std::uint32_t>> targets;
  FirstUse expect;
  {
    const SearchSpace reference(spec);
    targets = crossover_misses(reference, 100, 11);
    const SubSpace view = SubSpace(reference).restrict(pred);
    expect = first_use(reference, view, pred, targets, 0);
  }
  const std::string dir = "test_sampling_first_use";
  const std::string path = dir + "/dedispersion.tss";
  std::filesystem::create_directories(dir);
  save_snapshot(SearchSpace(spec), path);
  const SearchSpace fresh(spec), fresh_viewed(spec);
  const SearchSpace loaded = load_snapshot(spec, path, SnapshotVerify::kShape);
  const SearchSpace loaded_viewed = load_snapshot(spec, path, SnapshotVerify::kShape);
  std::filesystem::remove_all(dir);
  const std::pair<const SearchSpace*, const SearchSpace*> cases[] = {
      {&fresh, &fresh_viewed}, {&loaded, &loaded_viewed}};
  for (const auto& [space, viewed] : cases) {
    const SubSpace shared = SubSpace(*viewed).restrict(pred);
    constexpr std::size_t kThreads = 4;
    std::latch start(kThreads);
    std::vector<FirstUse> got(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        got[t] = first_use(*space, shared, pred, targets, t);
      });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(got[t] == expect)
          << (space == &fresh ? "fresh" : "kShape-loaded") << " space, thread " << t;
    }
  }
}

TEST(Sampling, LatinHypercubeCoverageAndValidity) {
  SearchSpace space(sample_spec());
  util::Rng rng(9);
  auto rows = latin_hypercube_sample(space, 16, rng);
  EXPECT_GT(rows.size(), 8u);  // dedup may shrink slightly
  std::set<std::size_t> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), rows.size());
  // Marginal coverage: samples should spread over each parameter's values,
  // hitting clearly more than one stratum.
  for (std::size_t p = 0; p < space.num_params(); ++p) {
    std::set<std::uint32_t> seen;
    for (std::size_t r : rows) seen.insert(space.value_index(r, p));
    EXPECT_GE(seen.size(), std::min<std::size_t>(3, space.present_values(p).size()))
        << "param " << p;
  }
}

TEST(Sampling, LatinHypercubeOnTightSpace) {
  tuner::TuningProblem spec("tight");
  spec.add_param("a", {1, 2, 3, 4}).add_param("b", {1, 2, 3, 4});
  spec.add_constraint("a == b");
  SearchSpace space(spec);
  ASSERT_EQ(space.size(), 4u);
  util::Rng rng(1);
  auto rows = latin_hypercube_sample(space, 4, rng);
  for (std::size_t r : rows) {
    EXPECT_EQ(space.value(r, 0), space.value(r, 1));
  }
}

TEST(Sampling, EmptySpaceYieldsNothing) {
  tuner::TuningProblem spec("empty");
  spec.add_param("a", {1, 2});
  spec.add_constraint("a >= 10");
  SearchSpace space(spec);
  util::Rng rng(1);
  EXPECT_TRUE(latin_hypercube_sample(space, 4, rng).empty());
  EXPECT_TRUE(random_sample(space, 4, rng).empty());
}
