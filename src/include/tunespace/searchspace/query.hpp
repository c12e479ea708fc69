#pragma once
// Predicate algebra for restricting a resolved SearchSpace (view.hpp).
//
// Real tuning sessions repeatedly *restrict* an already-constructed space:
// hardware limits discovered at runtime, per-device shared-memory caps,
// user-pinned parameters.  A Predicate describes such a restriction as a
// conjunction of per-parameter conditions — `eq` (param == v), `in_set`
// (param in {..}), `between` (lo <= param <= hi) — composable with
// `all_of` / `operator&&`.  Predicates are immutable value types sharing
// their nodes, so building and copying them is cheap.
//
// A Predicate is resolved against a concrete csp::Problem by compile(),
// which lowers every condition to the set of *domain value indices* it
// admits per parameter.  That compiled form is what SubSpace::restrict
// consumes: each per-parameter index set becomes a table with one entry per
// domain value, tested against the packed columns 64 rows at a time.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tunespace/csp/problem.hpp"
#include "tunespace/csp/value.hpp"

namespace tunespace::searchspace::query {

/// Immutable restriction predicate: a conjunction tree of per-parameter
/// conditions over declared parameter names.
class Predicate {
 public:
  /// The trivially-true predicate (restricts nothing).
  Predicate() = default;

  bool trivial() const { return node_ == nullptr; }

  struct Node;  // internal; defined in query.cpp
  explicit Predicate(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  const std::shared_ptr<const Node>& node() const { return node_; }

 private:
  std::shared_ptr<const Node> node_;
};

/// param == value.  A value absent from the parameter's domain compiles to
/// an empty admissible set (the restriction selects no rows); an unknown
/// parameter name is reported at compile() time.
Predicate eq(std::string param, csp::Value value);

/// param in {values...}.  Values absent from the domain are ignored.
Predicate in_set(std::string param, std::vector<csp::Value> values);

/// lo <= param <= hi under numeric ordering (inclusive).  Domain values that
/// cannot be ordered against the bounds (e.g. strings against numbers) are
/// treated as not matching.
Predicate between(std::string param, csp::Value lo, csp::Value hi);

/// Conjunction of `parts` (an empty vector is the trivial predicate).
Predicate all_of(std::vector<Predicate> parts);

/// Conjunction of two predicates.
Predicate operator&&(const Predicate& a, const Predicate& b);

/// Human-readable rendering, e.g. "block_size_x == 64 and sh_power in (0, 1)".
std::string to_string(const Predicate& pred);

/// One parameter's admissible domain value indices (sorted ascending), as
/// resolved by compile().  An empty `allowed` means the conjunction admits
/// no value of this parameter — the restriction is empty.
struct ParamMask {
  std::size_t param = 0;
  std::vector<std::uint32_t> allowed;
};

/// A Predicate lowered against a Problem: the conjunction over `masks`
/// (at most one entry per parameter, sorted by parameter index).
struct CompiledPredicate {
  std::vector<ParamMask> masks;

  /// True when no parameter is constrained (the trivial predicate).
  bool trivial() const { return masks.empty(); }
  /// True when some mask is empty, i.e. no row can match.
  bool unsatisfiable() const;
};

/// Resolve `pred` against `problem`: parameter names become indices, values
/// become sorted domain value-index sets, conditions on the same parameter
/// intersect.  Throws std::out_of_range for a parameter name the problem
/// does not declare.
CompiledPredicate compile(const Predicate& pred, const csp::Problem& problem);

/// Observability counters filled by a filter/restrict execution.
struct QueryStats {
  std::size_t candidate_rows = 0;   ///< rows the restriction started from
  std::size_t rows_out = 0;         ///< rows in the resulting view
  double seconds = 0;               ///< wall-clock of the restriction
};

}  // namespace tunespace::searchspace::query
