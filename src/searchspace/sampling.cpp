#include "tunespace/searchspace/sampling.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace tunespace::searchspace {

std::vector<std::size_t> random_sample(const SubSpace& view, std::size_t count,
                                       util::Rng& rng) {
  count = std::min(count, view.size());
  return rng.sample_indices(view.size(), count);
}

namespace {

double l1_distance(const SubSpace& view, std::size_t row,
                   const std::vector<std::uint32_t>& target) {
  double d = 0;
  for (std::size_t p = 0; p < view.num_params(); ++p) {
    const double span = std::max<std::size_t>(1, view.problem().domain(p).size() - 1);
    d += std::fabs(static_cast<double>(view.value_index(row, p)) -
                   static_cast<double>(target[p])) /
         static_cast<double>(span);
  }
  return d;
}

}  // namespace

std::size_t snap_to_valid(const SubSpace& view,
                          const std::vector<std::uint32_t>& target) {
  assert(!view.empty());
  // Exact hit first.
  if (auto r = view.find(target)) return *r;
  // Scan the smallest posting list among the target coordinates; if the
  // target value of some parameter never occurs, use its nearest present
  // value instead.  Posting lengths are the parent's (an upper bound on the
  // view's, exact for a whole-space view).
  std::size_t best_param = 0;
  std::uint32_t best_vi = 0;
  std::size_t best_count = 0;
  bool have_list = false;
  for (std::size_t p = 0; p < view.num_params(); ++p) {
    std::uint32_t vi = target[p];
    const auto& present = view.present_values(p);
    if (!std::binary_search(present.begin(), present.end(), vi)) {
      // nearest present value by index distance
      std::uint32_t nearest = present.front();
      for (std::uint32_t cand : present) {
        if (std::llabs(static_cast<long long>(cand) - static_cast<long long>(vi)) <
            std::llabs(static_cast<long long>(nearest) - static_cast<long long>(vi))) {
          nearest = cand;
        }
      }
      vi = nearest;
    }
    const std::size_t count = view.parent().rows_with(p, vi).size();
    if (!have_list || count < best_count) {
      best_param = p;
      best_vi = vi;
      best_count = count;
      have_list = true;
    }
  }
  double best_d = std::numeric_limits<double>::infinity();
  std::size_t best_row = 0;
  for (std::uint32_t parent_row : view.parent().rows_with(best_param, best_vi)) {
    const auto r = view.local_of(parent_row);
    if (!r) continue;
    const double d = l1_distance(view, *r, target);
    if (d < best_d) {
      best_d = d;
      best_row = *r;
    }
  }
  return best_row;
}

std::vector<std::size_t> latin_hypercube_sample(const SubSpace& view,
                                                std::size_t count, util::Rng& rng) {
  if (view.empty() || count == 0) return {};
  count = std::min(count, view.size());
  const std::size_t d = view.num_params();

  // Per-parameter stratum permutations over the present values.
  std::vector<std::vector<std::size_t>> strata(d);
  for (std::size_t p = 0; p < d; ++p) {
    strata[p].resize(count);
    for (std::size_t i = 0; i < count; ++i) strata[p][i] = i;
    rng.shuffle(strata[p]);
  }

  std::vector<std::size_t> rows;
  std::vector<std::uint32_t> target(d);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t p = 0; p < d; ++p) {
      const auto& present = view.present_values(p);
      // Map stratum -> a position within the present values (jittered).
      const double frac = (static_cast<double>(strata[p][i]) + rng.uniform()) /
                          static_cast<double>(count);
      const std::size_t pos = std::min<std::size_t>(
          present.size() - 1,
          static_cast<std::size_t>(frac * static_cast<double>(present.size())));
      target[p] = present[pos];
    }
    rows.push_back(snap_to_valid(view, target));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

}  // namespace tunespace::searchspace
