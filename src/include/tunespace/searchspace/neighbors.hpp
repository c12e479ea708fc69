#pragma once
// Neighbour queries over a resolved SearchSpace or a SubSpace view (§4.4).
//
// Optimization algorithms (genetic mutation, hill climbing, simulated
// annealing) repeatedly ask for the *valid* neighbours of a configuration.
// With a resolved space these are exact hash lookups; dynamic approaches
// would have to re-check constraints per candidate.
//
// Every query takes a SubSpace: neighbourhoods are defined over the view's
// own present values and membership, and rows are the view's local ids — so
// an optimizer sees a restricted view exactly as it would see a space built
// with the restriction as a constraint.  A SearchSpace converts implicitly
// to its whole-space view, whose local ids are the space's row ids.

#include <cstddef>
#include <vector>

#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/searchspace/view.hpp"

namespace tunespace::searchspace {

/// Neighbourhood definitions supported by neighbors_of().
enum class NeighborMethod {
  Hamming1,        ///< differ in exactly one parameter, any other value
  Adjacent,        ///< differ in exactly one parameter by one position in the
                   ///< parameter's present-value order (|64 -> {32,128}|)
  StrictlyAdjacent ///< like Adjacent but over the full declared value order
};

/// Local ids of all neighbours of `row` within the view under `method`.
std::vector<std::size_t> neighbors_of(const SubSpace& view, std::size_t row,
                                      NeighborMethod method = NeighborMethod::Hamming1);

/// Local ids of the view's configurations at Hamming distance <=
/// `max_distance` from `row` (excluding `row` itself).  Exponential in
/// max_distance; meant for small distances (1-3) as used by
/// genetic-algorithm mutation.
std::vector<std::size_t> neighbors_within_hamming(const SubSpace& view,
                                                  std::size_t row,
                                                  std::size_t max_distance);

/// Precomputed Hamming-1 adjacency for repeated queries ("can be indexed
/// before running the algorithm", §4.4).
class NeighborIndex {
 public:
  /// Adjacency of a view, in local row ids.
  NeighborIndex(const SubSpace& view, NeighborMethod method);

  const std::vector<std::size_t>& neighbors(std::size_t row) const {
    return lists_[row];
  }
  std::size_t total_edges() const;

 private:
  std::vector<std::vector<std::size_t>> lists_;
};

}  // namespace tunespace::searchspace
