// Tests for the SearchSpace representation layer (§4.4).
#include <gtest/gtest.h>

#include "tunespace/searchspace/searchspace.hpp"

using namespace tunespace;
using csp::Value;
using searchspace::SearchSpace;

namespace {

tuner::TuningProblem block_spec() {
  tuner::TuningProblem spec("blocks");
  spec.add_param("block_size_x", {1, 2, 4, 8, 16, 32})
      .add_param("block_size_y", {1, 2, 4, 8})
      .add_param("unroll", {1, 2});
  spec.add_constraint("4 <= block_size_x * block_size_y <= 32");
  return spec;
}

}  // namespace

TEST(SearchSpaceTest, ConstructionResolvesAllSolutions) {
  SearchSpace space(block_spec());
  // Count by hand: pairs (x, y) with 4 <= x*y <= 32, times 2 unroll values.
  std::size_t pairs = 0;
  for (int x : {1, 2, 4, 8, 16, 32}) {
    for (int y : {1, 2, 4, 8}) {
      if (x * y >= 4 && x * y <= 32) ++pairs;
    }
  }
  EXPECT_EQ(space.size(), pairs * 2);
  EXPECT_EQ(space.num_params(), 3u);
  EXPECT_EQ(space.cartesian_size(), 48u);
  EXPECT_GT(space.sparsity(), 0.0);
  EXPECT_GT(space.construction_seconds(), 0.0);
}

TEST(SearchSpaceTest, ConfigAndValueAccess) {
  SearchSpace space(block_spec());
  for (std::size_t r = 0; r < space.size(); ++r) {
    const csp::Config config = space.config(r);
    ASSERT_EQ(config.size(), 3u);
    const std::int64_t prod = config[0].as_int() * config[1].as_int();
    EXPECT_GE(prod, 4);
    EXPECT_LE(prod, 32);
    EXPECT_EQ(space.value(r, 0), config[0]);
  }
}

TEST(SearchSpaceTest, FindRoundTripsEveryRow) {
  SearchSpace space(block_spec());
  for (std::size_t r = 0; r < space.size(); ++r) {
    auto found = space.find(space.indices(r));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, r);
  }
}

TEST(SearchSpaceTest, FindRejectsInvalidConfigs) {
  SearchSpace space(block_spec());
  // (1, 1, *) violates the lower product bound.
  EXPECT_FALSE(space.find_config({Value(1), Value(1), Value(1)}).has_value());
  // Value outside the declared domain.
  EXPECT_FALSE(space.find_config({Value(3), Value(2), Value(1)}).has_value());
  // Valid one resolves.
  EXPECT_TRUE(space.find_config({Value(4), Value(2), Value(1)}).has_value());
}

TEST(SearchSpaceTest, TrueBounds) {
  SearchSpace space(block_spec());
  // block_size_x = 1 requires y >= 4: still present (1*4, 1*8).
  // Every declared x value can participate; but for y, y=1 requires x >= 4.
  const auto& present_y = space.present_values(1);
  // y=1 occurs (e.g. x=4); all four y values should appear.
  EXPECT_EQ(present_y.size(), 4u);
  // Check a restricted case: tighten to x*y >= 16.
  tuner::TuningProblem tight("tight");
  tight.add_param("x", {1, 2, 4})
      .add_param("y", {1, 2, 4});
  tight.add_constraint("x * y >= 8");
  SearchSpace tight_space(tight);
  // x=1 never appears (max product 4); true bounds exclude it.
  EXPECT_EQ(tight_space.present_values(0),
            (std::vector<std::uint32_t>{1, 2}));
}

TEST(SearchSpaceTest, EmptySpace) {
  tuner::TuningProblem spec("empty");
  spec.add_param("x", {1, 2}).add_param("y", {1, 2});
  spec.add_constraint("x * y >= 100");
  SearchSpace space(spec);
  EXPECT_TRUE(space.empty());
  EXPECT_FALSE(space.find({0, 0}).has_value());
}

TEST(SearchSpaceTest, MethodSelectionProducesSameSpace) {
  for (auto& method : tuner::construction_methods(false)) {
    SearchSpace space(block_spec(), method);
    SearchSpace reference(block_spec());
    EXPECT_EQ(space.size(), reference.size()) << method.name;
  }
}

TEST(SearchSpaceTest, SolveStatsExposed) {
  SearchSpace space(block_spec());
  EXPECT_GT(space.solve_stats().nodes, 0u);
}
