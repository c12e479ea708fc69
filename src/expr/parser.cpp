#include "tunespace/expr/parser.hpp"

#include <algorithm>

namespace tunespace::expr {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  AstPtr parse_full() {
    AstPtr e = parse_expr();
    expect(TokKind::End, "end of expression");
    return e;
  }

 private:
  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(std::size_t ahead = 1) const {
    const std::size_t i = pos_ + ahead;
    return toks_[i < toks_.size() ? i : toks_.size() - 1];
  }
  bool at(TokKind k) const { return cur().kind == k; }
  Token take() { return toks_[pos_++]; }
  void expect(TokKind k, const char* what) {
    if (!at(k)) throw SyntaxError(std::string("expected ") + what, cur().offset);
    ++pos_;
  }

  /// Returns `node` and records its depth in depth_of_last_: one level above
  /// its deepest child (`child_depth` levels; 0 for a leaf).  Throws
  /// SyntaxError past kMaxTreeDepth.
  AstPtr built(AstPtr node, std::size_t child_depth) {
    if (child_depth >= kMaxTreeDepth) {
      const std::string message =
          "expression tree deeper than " + std::to_string(kMaxTreeDepth) + " levels";
      throw SyntaxError(message, cur().offset);
    }
    depth_of_last_ = child_depth + 1;
    return node;
  }

  /// Holds one nesting level (see kMaxParseDepth) for its lifetime.
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) {
      if (parser_.depth_ >= kMaxParseDepth) {
        const std::string message =
            "nesting deeper than " + std::to_string(kMaxParseDepth) + " levels";
        throw SyntaxError(message, parser_.cur().offset);
      }
      ++parser_.depth_;
    }
    ~Nest() { --parser_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& parser_;
  };

  // Conditional expressions bind loosest, as in Python:
  //   expr := or_expr ['if' or_expr 'else' expr]      (right-associative)
  AstPtr parse_expr() {
    AstPtr value = parse_or();
    if (!at(TokKind::KwIf)) return value;
    std::size_t depth = depth_of_last_;
    take();
    AstPtr cond = parse_or();
    depth = std::max(depth, depth_of_last_);
    expect(TokKind::KwElse, "'else' in conditional expression");
    const Nest nest(*this);
    AstPtr otherwise = parse_expr();
    depth = std::max(depth, depth_of_last_);
    return built(make_if_else(std::move(value), std::move(cond), std::move(otherwise)),
                 depth);
  }

  AstPtr parse_or() {
    AstPtr lhs = parse_and();
    if (!at(TokKind::KwOr)) return lhs;
    std::vector<AstPtr> operands{std::move(lhs)};
    std::size_t depth = depth_of_last_;
    while (at(TokKind::KwOr)) {
      take();
      operands.push_back(parse_and());
      depth = std::max(depth, depth_of_last_);
    }
    return built(make_bool_op(/*is_and=*/false, std::move(operands)), depth);
  }

  AstPtr parse_and() {
    AstPtr lhs = parse_not();
    if (!at(TokKind::KwAnd)) return lhs;
    std::vector<AstPtr> operands{std::move(lhs)};
    std::size_t depth = depth_of_last_;
    while (at(TokKind::KwAnd)) {
      take();
      operands.push_back(parse_not());
      depth = std::max(depth, depth_of_last_);
    }
    return built(make_bool_op(/*is_and=*/true, std::move(operands)), depth);
  }

  AstPtr parse_not() {
    if (at(TokKind::KwNot)) {
      take();
      const Nest nest(*this);
      AstPtr operand = parse_not();
      return built(make_unary(UnOp::Not, std::move(operand)), depth_of_last_);
    }
    return parse_comparison();
  }

  bool at_cmp_op() const {
    switch (cur().kind) {
      case TokKind::Lt:
      case TokKind::Le:
      case TokKind::Gt:
      case TokKind::Ge:
      case TokKind::EqEq:
      case TokKind::NotEq:
      case TokKind::KwIn:
        return true;
      case TokKind::KwNot:
        return peek().kind == TokKind::KwIn;
      default:
        return false;
    }
  }

  CompareOp take_cmp_op() {
    const Token t = take();
    switch (t.kind) {
      case TokKind::Lt: return CompareOp::Lt;
      case TokKind::Le: return CompareOp::Le;
      case TokKind::Gt: return CompareOp::Gt;
      case TokKind::Ge: return CompareOp::Ge;
      case TokKind::EqEq: return CompareOp::Eq;
      case TokKind::NotEq: return CompareOp::Ne;
      case TokKind::KwIn: return CompareOp::In;
      case TokKind::KwNot:
        expect(TokKind::KwIn, "'in' after 'not'");
        return CompareOp::NotIn;
      default:
        throw SyntaxError("expected comparison operator", t.offset);
    }
  }

  AstPtr parse_comparison() {
    AstPtr first = parse_arith();
    if (!at_cmp_op()) return first;
    std::vector<AstPtr> operands{std::move(first)};
    std::vector<CompareOp> ops;
    std::size_t depth = depth_of_last_;
    while (at_cmp_op()) {
      ops.push_back(take_cmp_op());
      operands.push_back(parse_arith());
      depth = std::max(depth, depth_of_last_);
    }
    return built(make_compare(std::move(operands), std::move(ops)), depth);
  }

  // A chain "a + b + c" nests its left operand one node deeper per
  // operator, so chains count toward kMaxTreeDepth like nesting does.
  AstPtr parse_arith() {
    AstPtr lhs = parse_term();
    for (;;) {
      if (!at(TokKind::Plus) && !at(TokKind::Minus)) return lhs;
      const BinOp op = take().kind == TokKind::Plus ? BinOp::Add : BinOp::Sub;
      const std::size_t lhs_depth = depth_of_last_;
      AstPtr rhs = parse_term();
      lhs = built(make_binary(op, std::move(lhs), std::move(rhs)),
                  std::max(lhs_depth, depth_of_last_));
    }
  }

  AstPtr parse_term() {
    AstPtr lhs = parse_factor();
    for (;;) {
      BinOp op;
      if (at(TokKind::Star)) op = BinOp::Mul;
      else if (at(TokKind::Slash)) op = BinOp::TrueDiv;
      else if (at(TokKind::DoubleSlash)) op = BinOp::FloorDiv;
      else if (at(TokKind::Percent)) op = BinOp::Mod;
      else return lhs;
      take();
      const std::size_t lhs_depth = depth_of_last_;
      AstPtr rhs = parse_factor();
      lhs = built(make_binary(op, std::move(lhs), std::move(rhs)),
                  std::max(lhs_depth, depth_of_last_));
    }
  }

  AstPtr parse_factor() {
    if (at(TokKind::Minus) || at(TokKind::Plus)) {
      const UnOp op = take().kind == TokKind::Minus ? UnOp::Neg : UnOp::Pos;
      const Nest nest(*this);
      AstPtr operand = parse_factor();
      return built(make_unary(op, std::move(operand)), depth_of_last_);
    }
    return parse_power();
  }

  AstPtr parse_power() {
    AstPtr base = parse_atom();
    if (at(TokKind::DoubleStar)) {
      const std::size_t base_depth = depth_of_last_;
      take();
      const Nest nest(*this);
      // Right-associative; exponent may carry a unary sign (2 ** -1).
      AstPtr exponent = parse_factor();
      return built(make_binary(BinOp::Pow, std::move(base), std::move(exponent)),
                   std::max(base_depth, depth_of_last_));
    }
    return base;
  }

  AstPtr parse_atom() {
    const Token& t = cur();
    switch (t.kind) {
      case TokKind::Number:
      case TokKind::Str:
      case TokKind::KwTrue:
      case TokKind::KwFalse: {
        Token tok = take();
        return built(make_literal(std::move(tok.value)), 0);
      }
      case TokKind::Ident: {
        Token tok = take();
        if (at(TokKind::LParen)) {
          take();
          const Nest nest(*this);
          std::vector<AstPtr> args;
          std::size_t depth = 0;
          if (!at(TokKind::RParen)) {
            args.push_back(parse_expr());
            depth = depth_of_last_;
            while (at(TokKind::Comma)) {
              take();
              if (at(TokKind::RParen)) break;  // trailing comma
              args.push_back(parse_expr());
              depth = std::max(depth, depth_of_last_);
            }
          }
          expect(TokKind::RParen, "')'");
          return built(make_call(std::move(tok.text), std::move(args)), depth);
        }
        if (at(TokKind::LBracket)) {
          // Kernel Tuner lambda style: p["block_size_x"] is the parameter
          // named by the string literal.
          take();
          if (!at(TokKind::Str)) {
            throw SyntaxError("subscript must be a string literal", cur().offset);
          }
          Token key = take();
          expect(TokKind::RBracket, "']'");
          return built(make_var(std::move(key.text)), 0);
        }
        return built(make_var(std::move(tok.text)), 0);
      }
      case TokKind::LParen:
      case TokKind::LBracket: {
        const TokKind open = t.kind;
        const TokKind close =
            open == TokKind::LParen ? TokKind::RParen : TokKind::RBracket;
        take();
        const Nest nest(*this);
        if (at(close)) {
          // Empty tuple/list.
          take();
          return built(make_tuple({}), 0);
        }
        std::vector<AstPtr> items;
        items.push_back(parse_expr());
        std::size_t depth = depth_of_last_;
        bool is_tuple = open == TokKind::LBracket;  // lists are always sequences
        while (at(TokKind::Comma)) {
          is_tuple = true;
          take();
          if (at(close)) break;  // trailing comma
          items.push_back(parse_expr());
          depth = std::max(depth, depth_of_last_);
        }
        expect(close, open == TokKind::LParen ? "')'" : "']'");
        if (!is_tuple) return items[0];  // plain parenthesized group
        return built(make_tuple(std::move(items)), depth);
      }
      default:
        throw SyntaxError("expected expression", t.offset);
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< nesting levels currently held by Nest guards
  /// Depth of the tree the last parse_* call returned (nodes on its longest
  /// root-to-leaf path).
  std::size_t depth_of_last_ = 0;
};

}  // namespace

AstPtr parse(const std::string& source) {
  return Parser(tokenize(source)).parse_full();
}

}  // namespace tunespace::expr
