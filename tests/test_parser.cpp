// Unit tests for the expression parser: precedence, chaining, round-trips.
#include <gtest/gtest.h>

#include "support/spec_gen.hpp"
#include "tunespace/expr/parser.hpp"
#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/spaces/realworld.hpp"

using namespace tunespace::expr;
namespace ts = tunespace;

namespace {
// Round-trip helper: parse(to_string(parse(src))) must be structurally equal.
void expect_roundtrip(const std::string& src) {
  const AstPtr a = parse(src);
  const AstPtr b = parse(a->to_string());
  EXPECT_TRUE(a->equals(*b)) << src << " -> " << a->to_string();
}

/// `n` copies of `open`, then "x", then `n` copies of `close`.
std::string nested(const std::string& open, std::size_t n, const std::string& close) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += open;
  out += "x";
  for (std::size_t i = 0; i < n; ++i) out += close;
  return out;
}

/// "a + a + ... + a > 0" with `terms` terms: the chain nests its left operand
/// one node deeper per operator, so the tree is as deep as the chain is long
/// (plus one for the comparison).
std::string flat_chain(std::size_t terms, const std::string& op = " + ") {
  std::string out = "a";
  for (std::size_t i = 1; i < terms; ++i) out += op + "a";
  return out + " > 0";
}
}  // namespace

TEST(Parser, Precedence) {
  // a + b * c parses as a + (b * c)
  AstPtr e = parse("a + b * c");
  ASSERT_EQ(e->kind, AstKind::Binary);
  EXPECT_EQ(e->bin_op, BinOp::Add);
  EXPECT_EQ(e->children[1]->bin_op, BinOp::Mul);
}

TEST(Parser, PowerRightAssociative) {
  AstPtr e = parse("2 ** 3 ** 2");
  ASSERT_EQ(e->kind, AstKind::Binary);
  EXPECT_EQ(e->bin_op, BinOp::Pow);
  EXPECT_EQ(e->children[1]->bin_op, BinOp::Pow);
}

TEST(Parser, UnaryBindsTighterThanMul) {
  AstPtr e = parse("-a * b");
  EXPECT_EQ(e->kind, AstKind::Binary);
  EXPECT_EQ(e->bin_op, BinOp::Mul);
  EXPECT_EQ(e->children[0]->kind, AstKind::Unary);
}

TEST(Parser, ComparisonChain) {
  AstPtr e = parse("2 <= y <= 32 <= x * y <= 1024");
  ASSERT_EQ(e->kind, AstKind::Compare);
  EXPECT_EQ(e->cmp_ops.size(), 4u);
  EXPECT_EQ(e->children.size(), 5u);
}

TEST(Parser, BooleanPrecedence) {
  // not binds tighter than and, and tighter than or.
  AstPtr e = parse("a or not b and c");
  ASSERT_EQ(e->kind, AstKind::BoolOp);
  EXPECT_FALSE(e->is_and);
  const AstPtr& rhs = e->children[1];
  ASSERT_EQ(rhs->kind, AstKind::BoolOp);
  EXPECT_TRUE(rhs->is_and);
  EXPECT_EQ(rhs->children[0]->kind, AstKind::Unary);
}

TEST(Parser, MembershipTuple) {
  AstPtr e = parse("x in (1, 2, 4)");
  ASSERT_EQ(e->kind, AstKind::Compare);
  EXPECT_EQ(e->cmp_ops[0], CompareOp::In);
  EXPECT_EQ(e->children[1]->kind, AstKind::Tuple);
  EXPECT_EQ(e->children[1]->children.size(), 3u);
}

TEST(Parser, NotIn) {
  AstPtr e = parse("x not in (1, 2)");
  ASSERT_EQ(e->kind, AstKind::Compare);
  EXPECT_EQ(e->cmp_ops[0], CompareOp::NotIn);
}

TEST(Parser, ListLiteral) {
  AstPtr e = parse("x in [1, 2, 4]");
  EXPECT_EQ(e->children[1]->kind, AstKind::Tuple);
}

TEST(Parser, SubscriptStyle) {
  // Kernel Tuner lambda style: p["name"] is the parameter named "name".
  AstPtr e = parse("32 <= p[\"block_size_x\"] * p[\"block_size_y\"]");
  ASSERT_EQ(e->kind, AstKind::Compare);
  const AstPtr& prod = e->children[1];
  EXPECT_EQ(prod->children[0]->name, "block_size_x");
  EXPECT_EQ(prod->children[1]->name, "block_size_y");
}

TEST(Parser, Calls) {
  AstPtr e = parse("min(a, b) + max(1, 2, 3)");
  EXPECT_EQ(e->children[0]->kind, AstKind::Call);
  EXPECT_EQ(e->children[0]->name, "min");
  EXPECT_EQ(e->children[1]->children.size(), 3u);
}

TEST(Parser, ParenGroupIsNotTuple) {
  AstPtr e = parse("(a + b) * c");
  EXPECT_EQ(e->kind, AstKind::Binary);
  EXPECT_EQ(e->bin_op, BinOp::Mul);
}

TEST(Parser, SingletonTupleWithTrailingComma) {
  AstPtr e = parse("x in (4,)");
  EXPECT_EQ(e->children[1]->kind, AstKind::Tuple);
  EXPECT_EQ(e->children[1]->children.size(), 1u);
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse(""), SyntaxError);
  EXPECT_THROW(parse("a +"), SyntaxError);
  EXPECT_THROW(parse("a b"), SyntaxError);
  EXPECT_THROW(parse("(a"), SyntaxError);
  EXPECT_THROW(parse("f(a,"), SyntaxError);
  EXPECT_THROW(parse("p[3]"), SyntaxError);  // subscript must be a string
}

TEST(Parser, NestingIsCappedWithASyntaxError) {
  // Exactly at the cap still parses.
  EXPECT_NO_THROW(parse(nested("(", kMaxParseDepth, ")")));
  EXPECT_NO_THROW(parse(nested("f(", kMaxParseDepth, ")")));
  EXPECT_THROW(parse(nested("(", kMaxParseDepth + 1, ")")), SyntaxError);
  // 100k levels used to overflow the stack; now each shape is rejected
  // (unclosed, so a missing cap would also recurse all the way down).
  for (const char* open : {"(", "[", "f(", "not ", "-", "+", "2 ** ", "1 if 1 else "}) {
    EXPECT_THROW(parse(nested(open, 100000, "")), SyntaxError) << open;
  }
}

TEST(Parser, FlatOperatorChainsAreCappedWithASyntaxError) {
  EXPECT_NO_THROW(parse(flat_chain(kMaxTreeDepth - 1)));
  EXPECT_THROW(parse(flat_chain(kMaxTreeDepth)), SyntaxError);
  EXPECT_THROW(parse(flat_chain(kMaxTreeDepth, " * ")), SyntaxError);
  // The same cap holds when the depth comes from nesting and chains together.
  EXPECT_THROW(parse(nested("f(", 200, ")") + " + " + flat_chain(kMaxTreeDepth - 100)),
               SyntaxError);
}

TEST(Parser, A40000TermChainIsRejectedBeforeASpaceIsBuilt) {
  // With an 8 MiB stack, building a space from this spec used to overflow it.
  EXPECT_THROW(parse(flat_chain(40000)), SyntaxError);
  ts::tuner::TuningProblem spec("chain");
  spec.add_param("a", {1, 2});
  spec.add_constraint(flat_chain(40000));
  EXPECT_THROW(ts::searchspace::SearchSpace{spec}, SyntaxError);
}

TEST(Parser, A1000000TermChainIsRejected) {
  // parse() used to return this tree, and destroying it overflowed the stack.
  EXPECT_THROW(parse(flat_chain(1000000)), SyntaxError);
}

TEST(Parser, EveryTable2AndGeneratedConstraintParses) {
  for (const auto& space : ts::spaces::all_realworld()) {
    for (const auto& constraint : space.spec.constraints()) {
      EXPECT_NO_THROW(parse(constraint)) << space.name << ": " << constraint;
    }
  }
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    const ts::tuner::TuningProblem spec = ts::testsupport::random_spec(seed);
    for (const auto& constraint : spec.constraints()) {
      EXPECT_NO_THROW(parse(constraint)) << "seed " << seed << ": " << constraint;
    }
  }
}

TEST(Parser, RoundTrips) {
  for (const char* src : {
           "a + b * c - d / e",
           "a // b % c ** d",
           "2 <= y <= 32 <= x * y <= 1024",
           "not (a and b) or c",
           "x in (1, 2, 4) and y not in (3,)",
           "min(a, max(b, c)) >= abs(d)",
           "-x ** 2",
           "(a + b) * (c - d)",
           "True and False or x == 'NHWC'",
       }) {
    expect_roundtrip(src);
  }
}
