// SubSpace views and the restriction predicate algebra: restriction must
// agree with brute-force filtering row-for-row (over freshly-built and
// snapshot-loaded spaces, the Table 2 spaces and generated specs, whole and
// chained views), chained refinements must equal their conjunction,
// view-aware sampling/neighbour queries must stay inside the view, and
// optimizers over a view must be deterministic and equivalent to running
// over a space rebuilt with the restriction as a constraint.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "support/spec_gen.hpp"
#include "tunespace/searchspace/io.hpp"
#include "tunespace/searchspace/neighbors.hpp"
#include "tunespace/searchspace/sampling.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/tuner/kernels.hpp"
#include "tunespace/tuner/runner.hpp"
#include "tunespace/tuner/session.hpp"
#include "tunespace/util/rng.hpp"

using namespace tunespace;
using searchspace::SearchSpace;
using searchspace::SubSpace;
namespace query = tunespace::searchspace::query;
namespace fs = std::filesystem;

namespace {

tuner::TuningProblem small_spec() {
  tuner::TuningProblem spec("query-small");
  spec.add_param("x", {1, 2, 3, 4, 5, 6, 7, 8})
      .add_param("y", {1, 2, 3, 4, 5, 6, 7, 8})
      .add_param("z", {1, 2, 4})
      .add_param("layout", std::vector<csp::Value>{csp::Value("NHWC"),
                                                   csp::Value("NCHW")});
  spec.add_constraint("x + y <= 12");
  return spec;
}

/// A predicate paired with an independent semantic oracle over configs.
struct Case {
  std::string name;
  query::Predicate predicate;
  std::function<bool(const csp::Config&)> matches;  ///< params in spec order
};

std::vector<Case> small_cases() {
  std::vector<Case> cases;
  cases.push_back({"pin-x", query::eq("x", 4),
                   [](const csp::Config& c) { return c[0] == csp::Value(4); }});
  cases.push_back({"in-z", query::in_set("z", {2, 4}),
                   [](const csp::Config& c) {
                     return c[2] == csp::Value(2) || c[2] == csp::Value(4);
                   }});
  cases.push_back({"range-y", query::between("y", 3, 6),
                   [](const csp::Config& c) {
                     return c[1].as_int() >= 3 && c[1].as_int() <= 6;
                   }});
  cases.push_back({"layout", query::eq("layout", "NHWC"),
                   [](const csp::Config& c) { return c[3] == csp::Value("NHWC"); }});
  cases.push_back(
      {"conjunction",
       query::eq("layout", "NCHW") && query::between("x", 2, 5) &&
           query::in_set("z", {1, 2}),
       [](const csp::Config& c) {
         return c[3] == csp::Value("NCHW") && c[0].as_int() >= 2 &&
                c[0].as_int() <= 5 && (c[2] == csp::Value(1) || c[2] == csp::Value(2));
       }});
  cases.push_back({"empty", query::eq("x", 1) && query::eq("y", 12),
                   [](const csp::Config&) { return false; }});
  return cases;
}

/// Oracle filter: parent rows whose config matches, in enumeration order.
std::vector<std::size_t> oracle_rows(const SearchSpace& space,
                                     const std::function<bool(const csp::Config&)>& f) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < space.size(); ++r) {
    if (f(space.config(r))) rows.push_back(r);
  }
  return rows;
}

std::vector<std::size_t> view_parent_rows(const SubSpace& view) {
  std::vector<std::size_t> rows;
  rows.reserve(view.size());
  for (std::size_t r = 0; r < view.size(); ++r) rows.push_back(view.parent_row(r));
  return rows;
}

std::vector<std::string> sorted_config_strings(const SubSpace& view) {
  std::vector<std::string> out;
  out.reserve(view.size());
  for (std::size_t r = 0; r < view.size(); ++r) {
    out.push_back(view.problem().config_to_string(view.config(r)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The restriction, checked against the oracle.
void expect_view_matches_oracle(const SearchSpace& space, const Case& c) {
  const auto expected = oracle_rows(space, c.matches);
  query::QueryStats stats;
  const SubSpace view = SubSpace::filter(space, c.predicate, &stats);
  EXPECT_EQ(view_parent_rows(view), expected) << c.name;
  EXPECT_EQ(stats.rows_out, expected.size()) << c.name;
}

}  // namespace

// ---------------------------------------------------------------------------
// Predicate algebra
// ---------------------------------------------------------------------------

TEST(Predicate, TrivialAndFlattening) {
  query::Predicate trivial;
  EXPECT_TRUE(trivial.trivial());
  EXPECT_TRUE(query::all_of({}).trivial());
  EXPECT_TRUE(query::all_of({trivial, trivial}).trivial());
  EXPECT_FALSE(query::eq("x", 1).trivial());
  // Conjunction with the trivial predicate is the other operand.
  EXPECT_EQ(query::to_string(trivial && query::eq("x", 1)), "x == 1");
}

TEST(Predicate, ToString) {
  EXPECT_EQ(query::to_string(query::eq("x", 4)), "x == 4");
  EXPECT_EQ(query::to_string(query::in_set("z", {2, 4})), "z in (2, 4)");
  EXPECT_EQ(query::to_string(query::between("y", 3, 6)), "3 <= y <= 6");
  EXPECT_EQ(query::to_string(query::eq("x", 4) && query::between("y", 3, 6)),
            "x == 4 and 3 <= y <= 6");
}

TEST(Predicate, CompileResolvesValueIndices) {
  SearchSpace space(small_spec());
  const auto compiled =
      query::compile(query::in_set("z", {4, 2, 99}), space.problem());
  ASSERT_EQ(compiled.masks.size(), 1u);
  EXPECT_EQ(compiled.masks[0].param, 2u);
  // z domain is {1, 2, 4}: value 2 -> index 1, value 4 -> index 2; 99 absent.
  EXPECT_EQ(compiled.masks[0].allowed, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_FALSE(compiled.unsatisfiable());
}

TEST(Predicate, CompileIntersectsSameParameter) {
  SearchSpace space(small_spec());
  const auto compiled = query::compile(
      query::in_set("x", {2, 3, 4}) && query::between("x", 3, 8), space.problem());
  ASSERT_EQ(compiled.masks.size(), 1u);
  EXPECT_EQ(compiled.masks[0].allowed, (std::vector<std::uint32_t>{2, 3}));
}

TEST(Predicate, UnknownParameterThrows) {
  SearchSpace space(small_spec());
  EXPECT_THROW(query::compile(query::eq("nope", 1), space.problem()),
               std::out_of_range);
  EXPECT_THROW(SubSpace::filter(space, query::eq("nope", 1)), std::out_of_range);
}

TEST(Predicate, AbsentValueIsUnsatisfiable) {
  SearchSpace space(small_spec());
  const auto compiled = query::compile(query::eq("x", 99), space.problem());
  EXPECT_TRUE(compiled.unsatisfiable());
  const SubSpace view = SubSpace::filter(space, query::eq("x", 99));
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.size(), 0u);
}

TEST(Predicate, StringBoundsNeverMatchNumbers) {
  SearchSpace space(small_spec());
  // Numeric bounds over the string parameter: no domain value is orderable
  // against them, so the restriction is empty rather than an error.
  const SubSpace view = SubSpace::filter(space, query::between("layout", 0, 10));
  EXPECT_TRUE(view.empty());
}

// ---------------------------------------------------------------------------
// View equivalence properties
// ---------------------------------------------------------------------------

TEST(SubSpaceEquivalence, RestrictAndOracleAgreeOnSmallSpace) {
  SearchSpace space(small_spec());
  for (const Case& c : small_cases()) expect_view_matches_oracle(space, c);
}

TEST(SubSpaceEquivalence, RestrictAndOracleAgreeOnGemm) {
  auto rw = spaces::gemm();
  SearchSpace space(rw.spec);
  std::vector<Case> cases;
  cases.push_back({"pin-MWG", query::eq("MWG", 64) && query::in_set("MDIMC", {8, 16}),
                   [&](const csp::Config& c) {
                     const auto& p = space.problem();
                     return c[p.index_of("MWG")] == csp::Value(64) &&
                            (c[p.index_of("MDIMC")] == csp::Value(8) ||
                             c[p.index_of("MDIMC")] == csp::Value(16));
                   }});
  cases.push_back({"range-KWG", query::between("KWG", 16, 32),
                   [&](const csp::Config& c) {
                     const auto v = c[space.problem().index_of("KWG")].as_int();
                     return v >= 16 && v <= 32;
                   }});
  for (const Case& c : cases) expect_view_matches_oracle(space, c);
}

TEST(SubSpaceEquivalence, ViewEqualsRebuiltSpaceAsConfigSet) {
  // A re-solve with the restriction appended may enumerate in a different
  // order (the added constraint shifts the solver's variable ordering), so
  // the equivalence is over canonicalized configuration sets.
  auto spec = small_spec();
  SearchSpace space(spec);
  const SubSpace view =
      SubSpace::filter(space, query::eq("z", 2) && query::between("x", 2, 6));
  auto rebuilt_spec = spec;
  rebuilt_spec.add_constraint("z == 2 and 2 <= x <= 6");
  SearchSpace rebuilt(rebuilt_spec);
  EXPECT_EQ(view.size(), rebuilt.size());
  EXPECT_EQ(sorted_config_strings(view), sorted_config_strings(SubSpace(rebuilt)));
}

TEST(SubSpaceEquivalence, FilterOverSnapshotLoadedSpaceMatchesFresh) {
  const fs::path dir =
      fs::temp_directory_path() / "tunespace-query-snapshot-test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "small.tss").string();

  auto spec = small_spec();
  SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path);
  SearchSpace loaded = searchspace::load_snapshot(
      spec, path, searchspace::SnapshotVerify::kFull);

  for (const Case& c : small_cases()) {
    expect_view_matches_oracle(loaded, c);
    const SubSpace from_fresh = SubSpace::filter(fresh, c.predicate);
    const SubSpace from_loaded = SubSpace::filter(loaded, c.predicate);
    EXPECT_EQ(view_parent_rows(from_fresh), view_parent_rows(from_loaded)) << c.name;
  }
  fs::remove_all(dir);
}

TEST(SubSpaceEquivalence, ChainedRefinementEqualsConjunction) {
  SearchSpace space(small_spec());
  const auto p1 = query::between("x", 2, 6);
  const auto p2 = query::eq("z", 2);
  const auto p3 = query::eq("layout", "NHWC");

  const SubSpace chained =
      SubSpace::filter(space, p1).restrict(p2).restrict(p3);
  const SubSpace direct = SubSpace::filter(space, query::all_of({p1, p2, p3}));
  EXPECT_EQ(view_parent_rows(chained), view_parent_rows(direct));
  EXPECT_FALSE(chained.empty());
}

TEST(SubSpaceEquivalence, TrivialRestrictSharesSelection) {
  SearchSpace space(small_spec());
  const SubSpace view = SubSpace::filter(space, query::eq("z", 2));
  const SubSpace same = view.restrict(query::Predicate());
  EXPECT_EQ(same.selection().data(), view.selection().data());
  EXPECT_EQ(same.size(), view.size());

  // A whole-space view restricted by nothing stays a whole-space view.
  EXPECT_TRUE(SubSpace(space).restrict(query::Predicate()).is_whole());
}

TEST(SubSpaceEquivalence, RestrictingToNothingYieldsEmptyView) {
  SearchSpace space(small_spec());
  const SubSpace view = SubSpace::filter(space, query::eq("x", 4));
  const SubSpace none = view.restrict(query::eq("x", 5));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.top_rows(10).size(), 0u);
}

// ---------------------------------------------------------------------------
// Restriction against a brute-force filter of the decoded columns
// ---------------------------------------------------------------------------

namespace {

/// A seeded conjunction of 1-3 eq / in_set / between conditions on random
/// parameters.  Values come from the domains, except an occasional eq on a
/// value outside them; between bounds come in either order, so some
/// conjunctions select nothing.
query::Predicate random_predicate(const csp::Problem& problem, util::Rng& rng) {
  std::vector<query::Predicate> parts;
  const std::size_t count = 1 + rng.index(3);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = rng.index(problem.num_variables());
    const csp::Domain& domain = problem.domain(p);
    const auto value = [&] { return domain[rng.index(domain.size())]; };
    switch (rng.index(3)) {
      case 0: {
        const csp::Value v = rng.chance(0.1) ? csp::Value(-12345) : value();
        parts.push_back(query::eq(problem.name(p), v));
        break;
      }
      case 1: {
        std::vector<csp::Value> values;
        for (std::size_t k = 1 + rng.index(4); k > 0; --k) values.push_back(value());
        parts.push_back(query::in_set(problem.name(p), std::move(values)));
        break;
      }
      default: {
        const csp::Value lo = value();
        const csp::Value hi = value();
        parts.push_back(query::between(problem.name(p), lo, hi));
        break;
      }
    }
  }
  return query::all_of(std::move(parts));
}

/// The rows among `candidates` whose value indices pass every mask of
/// `pred`, read entry by entry with PackedColumn::get.
std::vector<std::size_t> brute_force(const SearchSpace& space,
                                     const query::Predicate& pred,
                                     const std::vector<std::size_t>& candidates) {
  const query::CompiledPredicate compiled = query::compile(pred, space.problem());
  std::vector<std::size_t> rows;
  for (std::size_t r : candidates) {
    bool keep = true;
    for (const query::ParamMask& mask : compiled.masks) {
      const std::uint32_t vi = space.solutions().column(mask.param).get(r);
      keep = keep && std::binary_search(mask.allowed.begin(), mask.allowed.end(), vi);
    }
    if (keep) rows.push_back(r);
  }
  return rows;
}

}  // namespace

TEST(RestrictOracle, WholeAndChainedViewsEqualABruteForceFilter) {
  std::vector<tuner::TuningProblem> specs;
  for (const auto& rw : spaces::all_realworld()) specs.push_back(rw.spec);
  // Seeds 100-199 draw wider domains, fixed parameters among them.
  testsupport::SpecGenOptions wide;
  wide.min_domain = 1;
  wide.max_domain = 40;
  wide.max_cartesian = 50000;
  const testsupport::SpecGenOptions narrow;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    specs.push_back(testsupport::random_spec(seed, seed < 100 ? narrow : wide));
  }
  // Domains past 64 values: 7-bit codes that straddle words.
  tuner::TuningProblem large("large-domains");
  std::vector<csp::Value> hundred, seventy;
  for (int v = 0; v < 100; ++v) hundred.emplace_back(v);
  for (int v = 0; v < 70; ++v) seventy.emplace_back(3 * v);
  large.add_param("x", hundred).add_param("y", seventy).add_param("z", {1, 2, 4});
  large.add_constraint("x + y <= 150");
  specs.push_back(large);

  std::set<unsigned> widths;
  std::size_t largest_domain = 0, ragged_spaces = 0, empty_results = 0, chained = 0;
  util::Rng rng(2024);
  for (const tuner::TuningProblem& spec : specs) {
    const SearchSpace space(spec);
    for (std::size_t p = 0; p < space.num_params(); ++p) {
      widths.insert(space.solutions().column(p).bits());
      largest_domain = std::max(largest_domain, space.problem().domain(p).size());
    }
    if (space.size() % 64 != 0) ++ragged_spaces;
    std::vector<std::size_t> all(space.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    for (int i = 0; i < 6; ++i) {
      const query::Predicate pred = random_predicate(space.problem(), rng);
      const query::Predicate refine = random_predicate(space.problem(), rng);
      const std::string what = spec.name() + ": " + query::to_string(pred);
      const SubSpace view = SubSpace(space).restrict(pred);
      const std::vector<std::size_t> expected = brute_force(space, pred, all);
      ASSERT_EQ(view_parent_rows(view), expected) << what;
      const SubSpace narrower = view.restrict(refine);
      ASSERT_EQ(view_parent_rows(narrower), brute_force(space, refine, expected))
          << what << ", then " << query::to_string(refine);
      if (expected.empty()) ++empty_results;
      if (!view.empty()) ++chained;
    }
  }
  // The corpus covers the shapes the block scan special-cases.
  for (unsigned w : {0u, 1u, 2u, 3u, 5u, 6u, 7u}) EXPECT_TRUE(widths.count(w)) << w;
  EXPECT_GT(largest_domain, 64u);
  EXPECT_GT(ragged_spaces, 0u);
  EXPECT_GT(empty_results, 0u);
  EXPECT_GT(chained, 0u);
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

TEST(SubSpaceAccessors, WholeViewMirrorsParent) {
  SearchSpace space(small_spec());
  const SubSpace view(space);
  EXPECT_TRUE(view.is_whole());
  EXPECT_EQ(view.size(), space.size());
  EXPECT_EQ(view.count(), space.size());
  EXPECT_EQ(view.num_params(), space.num_params());
  EXPECT_TRUE(view.selection().empty());
  for (std::size_t r = 0; r < view.size(); r += 17) {
    EXPECT_EQ(view.parent_row(r), r);
    EXPECT_EQ(view.config(r), space.config(r));
    EXPECT_EQ(view.indices(r), space.indices(r));
    EXPECT_EQ(view.find(space.indices(r)), std::optional<std::size_t>(r));
  }
  for (std::size_t p = 0; p < view.num_params(); ++p) {
    EXPECT_EQ(view.present_values(p), space.present_values(p));
  }
}

TEST(SubSpaceAccessors, FilteredViewRowAddressing) {
  SearchSpace space(small_spec());
  const auto pred = query::eq("z", 2) && query::between("y", 3, 6);
  const SubSpace view = SubSpace::filter(space, pred);
  ASSERT_FALSE(view.empty());
  EXPECT_EQ(view.selection().size(), view.size());

  for (std::size_t local = 0; local < view.size(); ++local) {
    const std::size_t parent = view.parent_row(local);
    EXPECT_EQ(view.local_of(parent), std::optional<std::size_t>(local));
    EXPECT_EQ(view.config(local), space.config(parent));
    for (std::size_t p = 0; p < view.num_params(); ++p) {
      EXPECT_EQ(view.value_index(local, p), space.value_index(parent, p));
      EXPECT_EQ(view.value(local, p), space.value(parent, p));
    }
    // find() maps through to local ids.
    EXPECT_EQ(view.find(space.indices(parent)), std::optional<std::size_t>(local));
  }
  // A parent row outside the view is not found.
  const auto excluded = oracle_rows(space, [&](const csp::Config& c) {
    return !(c[2] == csp::Value(2) && c[1].as_int() >= 3 && c[1].as_int() <= 6);
  });
  ASSERT_FALSE(excluded.empty());
  EXPECT_FALSE(view.local_of(excluded.front()).has_value());
  EXPECT_FALSE(view.find(space.indices(excluded.front())).has_value());
}

TEST(SubSpaceAccessors, TopRowsAndProject) {
  SearchSpace space(small_spec());
  const SubSpace view = SubSpace::filter(space, query::between("x", 2, 3));
  const auto top = view.top_rows(5);
  ASSERT_EQ(top.size(), std::min<std::size_t>(5, view.size()));
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i], view.parent_row(i));
  }
  EXPECT_EQ(view.top_rows(view.size() + 100).size(), view.size());

  const auto xs = view.project("x");
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[0], csp::Value(2));
  EXPECT_EQ(xs[1], csp::Value(3));
  // Unrestricted parameters keep their full within-view bounds.
  EXPECT_EQ(view.project("z").size(), 3u);
}

TEST(SubSpaceAccessors, PresentValuesAreExactlyTheOccurringOnes) {
  SearchSpace space(small_spec());
  const SubSpace view = SubSpace::filter(space, query::between("y", 7, 8));
  for (std::size_t p = 0; p < view.num_params(); ++p) {
    std::set<std::uint32_t> occurring;
    for (std::size_t r = 0; r < view.size(); ++r) {
      occurring.insert(view.value_index(r, p));
    }
    const auto& present = view.present_values(p);
    EXPECT_EQ(std::vector<std::uint32_t>(occurring.begin(), occurring.end()),
              present)
        << "param " << p;
  }
  // y in {7, 8} forces x <= 5: the view's true bounds shrink below the
  // parent's (the restriction propagates through the constraint).
  const std::size_t x = space.problem().index_of("x");
  EXPECT_LT(view.present_values(x).size(), space.present_values(x).size());
}

// ---------------------------------------------------------------------------
// Sampling and neighbours over views
// ---------------------------------------------------------------------------

TEST(SubSpaceSampling, RandomSampleStaysLocalAndDeterministic) {
  SearchSpace space(small_spec());
  const SubSpace view = SubSpace::filter(space, query::eq("z", 2));
  util::Rng a(7), b(7);
  const auto rows = searchspace::random_sample(view, 10, a);
  EXPECT_EQ(rows, searchspace::random_sample(view, 10, b));
  EXPECT_EQ(rows.size(), std::min<std::size_t>(10, view.size()));
  std::set<std::size_t> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), rows.size());
  for (std::size_t r : rows) EXPECT_LT(r, view.size());
}

TEST(SubSpaceSampling, WholeViewMatchesSpaceOverloads) {
  SearchSpace space(small_spec());
  const SubSpace whole(space);
  util::Rng a(11), b(11);
  EXPECT_EQ(searchspace::latin_hypercube_sample(space, 16, a),
            searchspace::latin_hypercube_sample(whole, 16, b));
  for (std::size_t r = 0; r < space.size(); r += 13) {
    EXPECT_EQ(searchspace::snap_to_valid(space, space.indices(r)),
              searchspace::snap_to_valid(whole, whole.indices(r)));
    EXPECT_EQ(searchspace::neighbors_of(space, r), searchspace::neighbors_of(whole, r));
  }
}

TEST(SubSpaceSampling, SnapAndLhsStayInsideTheView) {
  SearchSpace space(small_spec());
  const auto pred = query::eq("z", 2) && query::between("x", 2, 5);
  const SubSpace view = SubSpace::filter(space, pred);
  ASSERT_FALSE(view.empty());

  // Snap an index-row excluded by the predicate: the result is a member.
  std::vector<std::uint32_t> target = space.indices(0);
  const std::size_t snapped = searchspace::snap_to_valid(view, target);
  EXPECT_LT(snapped, view.size());
  EXPECT_EQ(view.config(snapped)[2], csp::Value(2));

  util::Rng rng(3);
  for (std::size_t r : searchspace::latin_hypercube_sample(view, 12, rng)) {
    ASSERT_LT(r, view.size());
    const csp::Config c = view.config(r);
    EXPECT_EQ(c[2], csp::Value(2));
    EXPECT_GE(c[0].as_int(), 2);
    EXPECT_LE(c[0].as_int(), 5);
  }
}

TEST(SubSpaceNeighbors, MatchBruteForceWithinView) {
  SearchSpace space(small_spec());
  const SubSpace view =
      SubSpace::filter(space, query::between("x", 2, 6) && query::eq("layout", "NHWC"));
  ASSERT_FALSE(view.empty());
  for (std::size_t r = 0; r < view.size(); r += 3) {
    // Brute force: members differing in exactly one parameter.
    std::vector<std::size_t> expected;
    for (std::size_t other = 0; other < view.size(); ++other) {
      if (other == r) continue;
      std::size_t diffs = 0;
      for (std::size_t p = 0; p < view.num_params(); ++p) {
        if (view.value_index(r, p) != view.value_index(other, p)) ++diffs;
      }
      if (diffs == 1) expected.push_back(other);
    }
    auto got = searchspace::neighbors_of(view, r, searchspace::NeighborMethod::Hamming1);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "row " << r;
    // neighbors_within_hamming(1) is the same set.
    EXPECT_EQ(searchspace::neighbors_within_hamming(view, r, 1), expected);
  }
}

TEST(SubSpaceNeighbors, NeighborIndexOverViewMatchesPerRowQueries) {
  SearchSpace space(small_spec());
  const SubSpace view = SubSpace::filter(space, query::eq("z", 4));
  const searchspace::NeighborIndex index(view, searchspace::NeighborMethod::Adjacent);
  std::size_t edges = 0;
  for (std::size_t r = 0; r < view.size(); ++r) {
    const auto direct =
        searchspace::neighbors_of(view, r, searchspace::NeighborMethod::Adjacent);
    EXPECT_EQ(index.neighbors(r), direct);
    edges += direct.size();
  }
  EXPECT_EQ(index.total_edges(), edges);
}

// ---------------------------------------------------------------------------
// Optimizers over views
// ---------------------------------------------------------------------------

namespace {

/// Drive an optimizer over a view with a deterministic synthetic objective,
/// recording the sequence of evaluated configurations.
std::vector<std::string> drive(const SubSpace& view, tuner::Optimizer& optimizer,
                               std::uint64_t seed, std::size_t budget) {
  std::vector<std::string> evaluated;
  util::Rng rng(seed);
  tuner::EvalContext ctx{
      view,
      [&](std::size_t row) -> double {
        const csp::Config c = view.config(row);
        evaluated.push_back(view.problem().config_to_string(c));
        double v = 0;
        for (const auto& value : c) v += value.is_numeric() ? value.as_real() : 1.0;
        return v;
      },
      [&]() { return evaluated.size() >= budget; },
      &rng};
  optimizer.run(ctx);
  return evaluated;
}

}  // namespace

TEST(SubSpaceOptimizers, DeterministicOverViewPerSeed) {
  SearchSpace space(small_spec());
  const SubSpace view = SubSpace::filter(space, query::between("x", 2, 6));
  tuner::RandomSearch rs1, rs2;
  EXPECT_EQ(drive(view, rs1, 5, 40), drive(view, rs2, 5, 40));
  tuner::GeneticAlgorithm ga1, ga2;
  EXPECT_EQ(drive(view, ga1, 5, 40), drive(view, ga2, 5, 40));
  tuner::DifferentialEvolution de1, de2;
  EXPECT_EQ(drive(view, de1, 5, 40), drive(view, de2, 5, 40));
}

TEST(SubSpaceOptimizers, ViewRunMatchesRebuiltSpaceAsEvaluationSet) {
  // A full RandomSearch sweep over the view and over a space rebuilt with
  // the restriction as a constraint must evaluate the same configuration
  // set (the enumeration orders differ, so compare canonically).
  auto spec = small_spec();
  SearchSpace space(spec);
  const SubSpace view = SubSpace::filter(space, query::eq("z", 2));
  auto rebuilt_spec = spec;
  rebuilt_spec.add_constraint("z == 2");
  SearchSpace rebuilt(rebuilt_spec);
  ASSERT_EQ(view.size(), rebuilt.size());

  tuner::RandomSearch rs1, rs2;
  auto from_view = drive(view, rs1, 9, view.size());
  auto from_rebuilt = drive(SubSpace(rebuilt), rs2, 9, rebuilt.size());
  std::sort(from_view.begin(), from_view.end());
  std::sort(from_rebuilt.begin(), from_rebuilt.end());
  EXPECT_EQ(from_view, from_rebuilt);
}

TEST(SubSpaceOptimizers, EveryEvaluationSatisfiesThePredicate) {
  SearchSpace space(small_spec());
  const SubSpace view =
      SubSpace::filter(space, query::eq("layout", "NCHW") && query::between("y", 2, 4));
  tuner::GeneticAlgorithm ga;
  tuner::SimulatedAnnealing sa;
  tuner::HillClimber hc;
  for (tuner::Optimizer* opt : {static_cast<tuner::Optimizer*>(&ga),
                                static_cast<tuner::Optimizer*>(&sa),
                                static_cast<tuner::Optimizer*>(&hc)}) {
    std::vector<std::string> evaluated;
    util::Rng rng(13);
    tuner::EvalContext ctx{
        view,
        [&](std::size_t row) -> double {
          const csp::Config c = view.config(row);
          EXPECT_EQ(c[3], csp::Value("NCHW")) << opt->name();
          EXPECT_GE(c[1].as_int(), 2) << opt->name();
          EXPECT_LE(c[1].as_int(), 4) << opt->name();
          evaluated.push_back(view.problem().config_to_string(c));
          return static_cast<double>(c[0].as_int());
        },
        [&]() { return evaluated.size() >= 30; },
        &rng};
    opt->run(ctx);
    EXPECT_FALSE(evaluated.empty()) << opt->name();
  }
}

TEST(SubSpaceOptimizers, RandomSearchLazyPermutationSweepsWithoutRepeats) {
  SearchSpace space(small_spec());
  const SubSpace whole(space);
  tuner::RandomSearch rs;
  // Full-budget sweep: every row exactly once.
  const auto evaluated = drive(whole, rs, 17, space.size());
  EXPECT_EQ(evaluated.size(), space.size());
  std::set<std::string> unique(evaluated.begin(), evaluated.end());
  EXPECT_EQ(unique.size(), space.size());

  // Budget-limited prefix: distinct rows, and a prefix of the full-sweep
  // order for the same seed (the lazy permutation is stable).
  tuner::RandomSearch rs2;
  const auto prefix = drive(whole, rs2, 17, 25);
  EXPECT_EQ(prefix.size(), 25u);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), evaluated.begin()));
}

TEST(SubSpaceOptimizers, RunTuningOverViewChargesParentConstruction) {
  SearchSpace space(small_spec());
  const SubSpace view = SubSpace::filter(space, query::eq("z", 2));
  tuner::RandomSearch rs;
  tuner::SyntheticModel model(5);
  tuner::TuningOptions options;
  options.budget_seconds = 50.0;
  options.seed = 2;
  const auto run = tuner::run_session(
      tuner::make_session_request(view, model, rs, options, "restricted"));
  EXPECT_EQ(run.method_name, "restricted");
  EXPECT_EQ(run.construction_seconds, space.construction_seconds());
  EXPECT_GT(run.evaluations, 0u);
  EXPECT_GT(run.best_gflops, 0.0);
}
