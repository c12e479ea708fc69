#pragma once
// Recursive-descent parser for the constraint expression language.
//
// Grammar (Python expression subset):
//
//   expr       := or_expr
//   or_expr    := and_expr ('or' and_expr)*
//   and_expr   := not_expr ('and' not_expr)*
//   not_expr   := 'not' not_expr | comparison
//   comparison := arith ((cmp_op | 'in' | 'not' 'in') arith)*      (chained)
//   arith      := term (('+'|'-') term)*
//   term       := factor (('*'|'/'|'//'|'%') factor)*
//   factor     := ('+'|'-') factor | power
//   power      := atom ('**' factor)?                          (right assoc)
//   atom       := NUMBER | STRING | 'True' | 'False'
//              | IDENT '(' args ')'                           (builtin call)
//              | IDENT '[' STRING ']'                         (p["name"])
//              | IDENT
//              | '(' expr (',' expr)* [','] ')'               (group/tuple)
//              | '[' expr (',' expr)* [','] ']'               (list literal)

#include <cstddef>
#include <string>

#include "tunespace/expr/ast.hpp"
#include "tunespace/expr/lexer.hpp"

namespace tunespace::expr {

/// Deepest nesting parse() accepts.  One level is a bracketed group, list or
/// call, a conditional's else branch, a 'not', a unary sign or an exponent;
/// the parser recurses once per level, so the cap bounds its stack use.
inline constexpr std::size_t kMaxParseDepth = 256;

/// Deepest tree parse() builds, in nodes from the root to the deepest leaf.
/// Nesting is not its only source: a chain of binary operators nests its
/// left operand one node deeper per operator, so "a + a + ... + a" is as
/// deep as it is long.  Every pass over the tree (folding, analysis,
/// compilation, destruction) recurses once per level, so this cap bounds
/// their stack use.
inline constexpr std::size_t kMaxTreeDepth = 1024;

/// Parse a complete expression; throws SyntaxError on malformed input,
/// trailing tokens, nesting deeper than kMaxParseDepth or a tree deeper
/// than kMaxTreeDepth.
AstPtr parse(const std::string& source);

}  // namespace tunespace::expr
