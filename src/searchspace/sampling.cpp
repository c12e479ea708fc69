#include "tunespace/searchspace/sampling.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>

namespace tunespace::searchspace {

std::vector<std::size_t> random_sample(const SubSpace& view, std::size_t count,
                                       util::Rng& rng) {
  count = std::min(count, view.size());
  return rng.sample_indices(view.size(), count);
}

std::size_t snap_to_valid(const SubSpace& view,
                          const std::vector<std::uint32_t>& target) {
  assert(!view.empty());
  // 1. Exact hit.
  if (auto r = view.find(target)) return *r;
  // 2. Where the target value of some parameter never occurs in the view,
  //    use its nearest present value instead.
  // 3. The parameter whose value has the fewest rows in the parent picks
  //    the candidates.  (The parent's counts are an upper bound on the
  //    view's, exact for a whole-space view.)
  const SearchSpace& parent = view.parent();
  const SearchSpace::Summary& summary = parent.summary();
  const std::size_t d = view.num_params();
  std::size_t best_param = 0;
  std::uint32_t best_vi = 0;
  std::size_t best_count = 0;
  for (std::size_t p = 0; p < d; ++p) {
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
    const std::size_t count = summary.counts[p][vi];
    if (p == 0 || count < best_count) {
      best_param = p;
      best_vi = vi;
      best_count = count;
    }
  }

  // 4. Among the view's rows with that value, in ascending order, the first
  //    with the smallest normalized L1 distance to the target, summed in
  //    parameter order.  term[base[p] + v] is parameter p's summand for
  //    value index v.
  std::vector<std::size_t> base(d);
  std::vector<double> term;
  for (std::size_t p = 0; p < d; ++p) {
    const std::size_t m = view.problem().domain(p).size();
    const double span = static_cast<double>(std::max<std::size_t>(1, m - 1));
    base[p] = term.size();
    for (std::size_t v = 0; v < m; ++v) {
      const double diff = static_cast<double>(v) - static_cast<double>(target[p]);
      term.push_back(std::fabs(diff) / span);
    }
  }
  // The walk visits the parent's rows in blocks and skips a block that
  // holds no row with the chosen value, or whose lower bound -- each
  // parameter's smallest term within the block's range, summed in
  // parameter order -- already reaches the best sum; it abandons a row once
  // its partial sum does.  Both are exact: adding non-negative doubles
  // never lowers a sum under round-to-nearest, and a later row wins only
  // with a strictly smaller sum.
  const std::vector<SearchSpace::CodeRange>& ranges = summary.ranges;
  const solver::PackedColumn& column = parent.solutions().column(best_param);
  const std::span<const std::uint32_t> selection = view.selection();
  const std::size_t n = parent.size();
  double best_sum = std::numeric_limits<double>::infinity();
  std::size_t best_local = 0;
  const auto consider = [&](std::size_t row, std::size_t local) {
    double sum = 0;
    for (std::size_t p = 0; p < d && sum < best_sum; ++p) {
      sum += term[base[p] + parent.value_index(row, p)];
    }
    if (sum < best_sum) {
      best_sum = sum;
      best_local = local;
    }
  };
  std::uint32_t codes[SearchSpace::kBlockRows];
  std::size_t cursor = 0;  // first selection entry not in an earlier block
  for (std::size_t first = 0; first < n; first += SearchSpace::kBlockRows) {
    const SearchSpace::CodeRange* range = &ranges[first / SearchSpace::kBlockRows * d];
    if (best_vi < range[best_param].lo || best_vi > range[best_param].hi) continue;
    double bound = 0;
    for (std::size_t p = 0; p < d; ++p) {
      bound += term[base[p] + std::clamp(target[p], range[p].lo, range[p].hi)];
    }
    if (bound >= best_sum) continue;
    const std::size_t len = std::min(SearchSpace::kBlockRows, n - first);
    column.decode(first, len, codes);
    if (view.is_whole()) {
      for (std::size_t i = 0; i < len; ++i) {
        if (codes[i] == best_vi) consider(first + i, first + i);
      }
      continue;
    }
    const auto next = std::lower_bound(selection.begin() + cursor, selection.end(), first);
    cursor = static_cast<std::size_t>(next - selection.begin());
    for (; cursor < selection.size() && selection[cursor] < first + len; ++cursor) {
      if (codes[selection[cursor] - first] == best_vi) {
        consider(selection[cursor], cursor);
      }
    }
  }
  return best_local;
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
