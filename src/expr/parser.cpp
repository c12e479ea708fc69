#include "tunespace/expr/parser.hpp"

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
    take();
    AstPtr cond = parse_or();
    expect(TokKind::KwElse, "'else' in conditional expression");
    const Nest nest(*this);
    AstPtr otherwise = parse_expr();
    return make_if_else(std::move(value), std::move(cond), std::move(otherwise));
  }

  AstPtr parse_or() {
    AstPtr lhs = parse_and();
    if (!at(TokKind::KwOr)) return lhs;
    std::vector<AstPtr> operands{std::move(lhs)};
    while (at(TokKind::KwOr)) {
      take();
      operands.push_back(parse_and());
    }
    return make_bool_op(/*is_and=*/false, std::move(operands));
  }

  AstPtr parse_and() {
    AstPtr lhs = parse_not();
    if (!at(TokKind::KwAnd)) return lhs;
    std::vector<AstPtr> operands{std::move(lhs)};
    while (at(TokKind::KwAnd)) {
      take();
      operands.push_back(parse_not());
    }
    return make_bool_op(/*is_and=*/true, std::move(operands));
  }

  AstPtr parse_not() {
    if (at(TokKind::KwNot)) {
      take();
      const Nest nest(*this);
      return make_unary(UnOp::Not, parse_not());
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
    while (at_cmp_op()) {
      ops.push_back(take_cmp_op());
      operands.push_back(parse_arith());
    }
    return make_compare(std::move(operands), std::move(ops));
  }

  AstPtr parse_arith() {
    AstPtr lhs = parse_term();
    for (;;) {
      if (at(TokKind::Plus)) {
        take();
        lhs = make_binary(BinOp::Add, std::move(lhs), parse_term());
      } else if (at(TokKind::Minus)) {
        take();
        lhs = make_binary(BinOp::Sub, std::move(lhs), parse_term());
      } else {
        return lhs;
      }
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
      lhs = make_binary(op, std::move(lhs), parse_factor());
    }
  }

  AstPtr parse_factor() {
    if (at(TokKind::Minus)) {
      take();
      const Nest nest(*this);
      return make_unary(UnOp::Neg, parse_factor());
    }
    if (at(TokKind::Plus)) {
      take();
      const Nest nest(*this);
      return make_unary(UnOp::Pos, parse_factor());
    }
    return parse_power();
  }

  AstPtr parse_power() {
    AstPtr base = parse_atom();
    if (at(TokKind::DoubleStar)) {
      take();
      const Nest nest(*this);
      // Right-associative; exponent may carry a unary sign (2 ** -1).
      return make_binary(BinOp::Pow, std::move(base), parse_factor());
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
        return make_literal(std::move(tok.value));
      }
      case TokKind::Ident: {
        Token tok = take();
        if (at(TokKind::LParen)) {
          take();
          const Nest nest(*this);
          std::vector<AstPtr> args;
          if (!at(TokKind::RParen)) {
            args.push_back(parse_expr());
            while (at(TokKind::Comma)) {
              take();
              if (at(TokKind::RParen)) break;  // trailing comma
              args.push_back(parse_expr());
            }
          }
          expect(TokKind::RParen, "')'");
          return make_call(std::move(tok.text), std::move(args));
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
          return make_var(std::move(key.text));
        }
        return make_var(std::move(tok.text));
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
          return make_tuple({});
        }
        std::vector<AstPtr> items;
        items.push_back(parse_expr());
        bool is_tuple = open == TokKind::LBracket;  // lists are always sequences
        while (at(TokKind::Comma)) {
          is_tuple = true;
          take();
          if (at(close)) break;  // trailing comma
          items.push_back(parse_expr());
        }
        expect(close, open == TokKind::LParen ? "')'" : "']'");
        if (!is_tuple) return items[0];  // plain parenthesized group
        return make_tuple(std::move(items));
      }
      default:
        throw SyntaxError("expected expression", t.offset);
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< nesting levels currently held by Nest guards
};

}  // namespace

AstPtr parse(const std::string& source) {
  return Parser(tokenize(source)).parse_full();
}

}  // namespace tunespace::expr
