#pragma once
// Sampling over a resolved SearchSpace or a filtered SubSpace view (§4.4).
//
// Because the space is fully resolved, sampling is uniform over *valid*
// configurations — the paper's key fairness point versus chain-of-trees
// (whose naive random descent is biased towards sparse subtrees) and versus
// rejection sampling over the Cartesian product.  Latin Hypercube Sampling
// stratifies over the true parameter bounds and snaps candidates to the
// nearest valid configuration using the posting-list index.
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
///  2. each resulting index-space candidate is snapped to the valid
///     configuration with minimal normalized L1 index distance, searched
///     through the smallest posting list among the candidate's coordinates.
/// Duplicates after snapping are removed, so the result may be smaller than
/// `count` on tightly-constrained spaces.
std::vector<std::size_t> latin_hypercube_sample(const SubSpace& view,
                                                std::size_t count, util::Rng& rng);

/// Snap an arbitrary index-space point to the nearest row of the view
/// (normalized L1 metric over present-value positions); returns its local
/// id.  Requires a non-empty view.
std::size_t snap_to_valid(const SubSpace& view,
                          const std::vector<std::uint32_t>& target);

}  // namespace tunespace::searchspace
