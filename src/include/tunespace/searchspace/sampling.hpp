#pragma once
// Sampling over a resolved SearchSpace or a filtered SubSpace view (§4.4).
//
// Because the space is fully resolved, sampling is uniform over *valid*
// configurations — the paper's key fairness point versus chain-of-trees
// (whose naive random descent is biased towards sparse subtrees) and versus
// rejection sampling over the Cartesian product.  Latin Hypercube Sampling
// stratifies over the true parameter bounds and snaps candidates to the
// nearest valid configuration (snap_to_valid).
//
// Every function takes a SubSpace and works in the view's local row ids and
// over the view's own true bounds, so tune-time restrictions sample exactly
// like a freshly-built space.  A SearchSpace converts implicitly to its
// whole-space view, whose local ids are the space's row ids.

#include <cstddef>
#include <vector>

#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/util/rng.hpp"

namespace tunespace::searchspace {

/// `count` distinct rows uniformly at random (count is clamped to size()).
std::vector<std::size_t> random_sample(const SubSpace& view, std::size_t count,
                                       util::Rng& rng);

/// Latin Hypercube Sample of `count` rows:
///  1. each parameter's present values (within the view) are cut into
///     `count` strata and a random permutation assigns one stratum per
///     sample per parameter;
///  2. each resulting index-space candidate is snapped to a valid
///     configuration with snap_to_valid.
/// Duplicates after snapping are removed, so the result may be smaller than
/// `count` on tightly-constrained spaces.
std::vector<std::size_t> latin_hypercube_sample(const SubSpace& view,
                                                std::size_t count, util::Rng& rng);

/// Snap an arbitrary index-space point to a nearby row of the view and
/// return its local id.  Requires a non-empty view.  The row is chosen by
/// this rule, which is part of the contract (every GA, DE and NSGA-II
/// trajectory depends on it):
///  1. a target that is a row of the view returns that row;
///  2. each parameter takes the target's value index, or, when that value
///     occurs in no row of the view, the nearest value index that does
///     (ties go to the smaller index);
///  3. the first parameter whose value from step 2 has the fewest rows in
///     the parent space picks the candidates: the view's rows with that
///     value;
///  4. among the candidates, the one with the smallest normalized L1
///     distance to the target wins: the sum, in parameter order, of
///     |value index - target index| / max(1, domain size - 1).  Ties go to
///     the lowest local row.
/// A miss walks the parent's rows in ascending order through the space's
/// per-block value ranges (searchspace.hpp), skipping blocks and
/// abandoning rows that cannot beat the best sum so far; both skips are
/// exact, so the walk returns exactly the row of the rule.  Throws
/// SnapshotError on a corrupt shape-verified snapshot whose packed codes
/// fall outside their domains.
std::size_t snap_to_valid(const SubSpace& view,
                          const std::vector<std::uint32_t>& target);

}  // namespace tunespace::searchspace
