#include "tunespace/searchspace/neighbors.hpp"

#include <algorithm>

namespace tunespace::searchspace {

namespace {

// A view's present values and find() are membership-aware, so its
// neighbourhoods match those of a space built with the restriction as a
// constraint.

// Candidate alternative value indices for parameter p given current vi.
void alternative_values(const SubSpace& view, std::size_t p, std::uint32_t vi,
                        NeighborMethod method, std::vector<std::uint32_t>& out) {
  out.clear();
  const auto& present = view.present_values(p);
  switch (method) {
    case NeighborMethod::Hamming1:
      for (std::uint32_t alt : present) {
        if (alt != vi) out.push_back(alt);
      }
      return;
    case NeighborMethod::Adjacent: {
      // Position of vi within the present-value order (values that never
      // occur in a valid config are skipped over).
      auto it = std::lower_bound(present.begin(), present.end(), vi);
      const std::size_t pos = static_cast<std::size_t>(it - present.begin());
      if (pos > 0) out.push_back(present[pos - 1]);
      if (it != present.end() && *it == vi && pos + 1 < present.size()) {
        out.push_back(present[pos + 1]);
      }
      return;
    }
    case NeighborMethod::StrictlyAdjacent: {
      const std::size_t domain_size = view.problem().domain(p).size();
      if (vi > 0) out.push_back(vi - 1);
      if (vi + 1 < domain_size) out.push_back(vi + 1);
      return;
    }
  }
}

void hamming_recurse(const SubSpace& view, std::vector<std::uint32_t>& indices,
                     std::size_t start_param, std::size_t remaining,
                     std::vector<std::size_t>& out) {
  for (std::size_t p = start_param; p < view.num_params(); ++p) {
    const std::uint32_t original = indices[p];
    for (std::uint32_t alt : view.present_values(p)) {
      if (alt == original) continue;
      indices[p] = alt;
      if (auto r = view.find(indices)) out.push_back(*r);
      if (remaining > 1) {
        hamming_recurse(view, indices, p + 1, remaining - 1, out);
      }
    }
    indices[p] = original;
  }
}

}  // namespace

std::vector<std::size_t> neighbors_of(const SubSpace& view, std::size_t row,
                                      NeighborMethod method) {
  std::vector<std::size_t> result;
  std::vector<std::uint32_t> indices = view.indices(row);
  std::vector<std::uint32_t> alts;
  for (std::size_t p = 0; p < view.num_params(); ++p) {
    const std::uint32_t original = indices[p];
    alternative_values(view, p, original, method, alts);
    for (std::uint32_t alt : alts) {
      indices[p] = alt;
      if (auto r = view.find(indices)) result.push_back(*r);
    }
    indices[p] = original;
  }
  return result;
}

std::vector<std::size_t> neighbors_within_hamming(const SubSpace& view,
                                                  std::size_t row,
                                                  std::size_t max_distance) {
  std::vector<std::size_t> out;
  if (max_distance == 0) return out;
  std::vector<std::uint32_t> indices = view.indices(row);
  hamming_recurse(view, indices, 0, max_distance, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

NeighborIndex::NeighborIndex(const SubSpace& view, NeighborMethod method) {
  lists_.resize(view.size());
  for (std::size_t r = 0; r < view.size(); ++r) {
    lists_[r] = neighbors_of(view, r, method);
  }
}

std::size_t NeighborIndex::total_edges() const {
  std::size_t total = 0;
  for (const auto& l : lists_) total += l.size();
  return total;
}

}  // namespace tunespace::searchspace
