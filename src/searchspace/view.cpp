#include "tunespace/searchspace/view.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "tunespace/searchspace/io.hpp"
#include "tunespace/util/timer.hpp"

namespace tunespace::searchspace {

namespace {

/// One conjunct of a restriction, laid out for the block scan: its column,
/// allowed[v] = 1 for each allowed value index v (one entry per domain
/// value, else 0) and below[v], the number of allowed values under v, which
/// counts the allowed values of a block's code range [lo, hi] as
/// below[hi + 1] - below[lo].
struct BlockMask {
  std::size_t param;
  const solver::PackedColumn* column;
  std::vector<std::uint8_t> allowed;
  std::vector<std::uint32_t> below;
};

BlockMask block_mask(const SearchSpace& parent, const query::ParamMask& mask) {
  const std::size_t m = parent.problem().domain(mask.param).size();
  BlockMask out{mask.param, &parent.solutions().column(mask.param),
                std::vector<std::uint8_t>(m, 0), std::vector<std::uint32_t>(m + 1, 0)};
  for (std::uint32_t vi : mask.allowed) out.allowed[vi] = 1;
  for (std::size_t v = 0; v < m; ++v) out.below[v + 1] = out.below[v] + out.allowed[v];
  return out;
}

}  // namespace

SubSpace::SubSpace(std::shared_ptr<const SearchSpace> parent)
    : parent_(parent.get()), keepalive_(std::move(parent)) {
  if (parent_ == nullptr) {
    throw std::invalid_argument("SubSpace: null shared SearchSpace");
  }
}

const std::vector<std::uint32_t>& SubSpace::present_values(std::size_t p) const {
  if (!sel_) return parent_->present_values(p);
  std::call_once(sel_->present_once, [this] {
    const SearchSpace& parent = *parent_;
    const std::size_t d = num_params();
    sel_->present.resize(d);
    std::vector<std::vector<std::uint8_t>> seen(d);
    for (std::size_t q = 0; q < d; ++q) {
      seen[q].assign(problem().domain(q).size(), 0);
    }
    for (std::uint32_t r : sel_->rows) {
      for (std::size_t q = 0; q < d; ++q) {
        // A snapshot loaded at SnapshotVerify::kShape borrows the columns
        // unchecked; a code past its domain would write past `seen`.
        const std::uint32_t vi = parent.value_index(r, q);
        if (vi >= seen[q].size()) throw SnapshotError("packed code outside its domain");
        seen[q][vi] = 1;
      }
    }
    for (std::size_t q = 0; q < d; ++q) {
      for (std::size_t vi = 0; vi < seen[q].size(); ++vi) {
        if (seen[q][vi]) sel_->present[q].push_back(static_cast<std::uint32_t>(vi));
      }
    }
  });
  return sel_->present[p];
}

std::optional<std::size_t> SubSpace::local_of(std::size_t parent_row) const {
  if (!sel_) {
    if (parent_row >= parent_->size()) return std::nullopt;
    return parent_row;
  }
  const auto it = std::lower_bound(sel_->rows.begin(), sel_->rows.end(),
                                   static_cast<std::uint32_t>(parent_row));
  if (it == sel_->rows.end() || *it != parent_row) return std::nullopt;
  return static_cast<std::size_t>(it - sel_->rows.begin());
}

std::optional<std::size_t> SubSpace::find(
    const std::vector<std::uint32_t>& index_row) const {
  const auto row = parent_->find(index_row);
  if (!row) return std::nullopt;
  return local_of(*row);
}

std::vector<std::size_t> SubSpace::top_rows(std::size_t k) const {
  const std::size_t take = std::min(k, size());
  std::vector<std::size_t> rows;
  rows.reserve(take);
  for (std::size_t local = 0; local < take; ++local) {
    rows.push_back(parent_row(local));
  }
  return rows;
}

std::vector<csp::Value> SubSpace::project(std::size_t p) const {
  const csp::Domain& domain = problem().domain(p);
  std::vector<csp::Value> values;
  values.reserve(present_values(p).size());
  for (std::uint32_t vi : present_values(p)) values.push_back(domain[vi]);
  return values;
}

std::vector<csp::Value> SubSpace::project(const std::string& param) const {
  return project(problem().index_of(param));
}

SubSpace SubSpace::filter(const SearchSpace& parent, const query::Predicate& pred,
                          query::QueryStats* stats) {
  return SubSpace(parent).restrict(pred, stats);
}

SubSpace SubSpace::restrict(const query::Predicate& pred,
                            query::QueryStats* stats) const {
  util::WallTimer timer;
  query::QueryStats st;
  st.candidate_rows = size();

  const query::CompiledPredicate compiled = query::compile(pred, problem());
  if (compiled.trivial()) {
    // Nothing to do: share this view's selection outright (zero-copy chain).
    st.rows_out = size();
    st.seconds = timer.seconds();
    if (stats) *stats = st;
    return *this;
  }

  const SearchSpace& parent = *parent_;
  auto out = std::make_shared<Selection>();

  if (!compiled.unsatisfiable()) {
    // The summary range-checks every code, so a code read below always
    // indexes inside its mask's `allowed` table.
    const SearchSpace::Summary& summary = parent.summary();
    constexpr std::size_t kBlockRows = SearchSpace::kBlockRows;
    const std::size_t d = num_params();
    const std::size_t n = parent.size();
    std::vector<BlockMask> masks;
    masks.reserve(compiled.masks.size());
    // No conjunct selects more rows than its values hold.
    std::size_t bound = size();
    for (const query::ParamMask& mask : compiled.masks) {
      masks.push_back(block_mask(parent, mask));
      std::size_t held = 0;
      for (std::uint32_t vi : mask.allowed) held += summary.counts[mask.param][vi];
      bound = std::min(bound, held);
    }
    out->rows.reserve(bound);

    // `keep` holds the block's candidate rows.  A conjunct that admits none
    // of the block's code range drops the block, one that admits all of it
    // passes every row, and only the rest decode the block and test each
    // row; classifying every conjunct first spares the decode of a block a
    // later conjunct drops.
    std::vector<const BlockMask*> partial(masks.size());
    const auto scan = [&](std::size_t b, std::uint64_t keep) {
      const SearchSpace::CodeRange* range = &summary.ranges[b * d];
      std::size_t tests = 0;
      for (const BlockMask& mask : masks) {
        const auto [lo, hi] = range[mask.param];
        const std::uint32_t allowed = mask.below[hi + 1] - mask.below[lo];
        if (allowed == 0) return;
        if (allowed != hi - lo + 1) partial[tests++] = &mask;
      }
      for (std::size_t t = 0; t < tests && keep != 0; ++t) {
        keep &= partial[t]->column->match_block(b, partial[t]->allowed.data());
      }
      const auto first = static_cast<std::uint32_t>(b * kBlockRows);
      std::vector<std::uint32_t>& selected = out->rows;
      const std::size_t end = selected.size();
      selected.resize(end + static_cast<std::size_t>(std::popcount(keep)));
      for (std::uint32_t* row = selected.data() + end; keep != 0; keep &= keep - 1) {
        *row++ = first + static_cast<std::uint32_t>(std::countr_zero(keep));
      }
    };
    if (sel_) {
      // Chained refinement: a block's candidates are this view's rows in it.
      const std::vector<std::uint32_t>& rows = sel_->rows;
      for (std::size_t i = 0; i < rows.size();) {
        const std::size_t b = rows[i] / kBlockRows;
        std::uint64_t keep = 0;
        for (; i < rows.size() && rows[i] / kBlockRows == b; ++i) {
          keep |= std::uint64_t{1} << (rows[i] % kBlockRows);
        }
        scan(b, keep);
      }
    } else {
      // A whole view's candidates are every row of the block.
      for (std::size_t b = 0; b * kBlockRows < n; ++b) {
        const std::size_t len = std::min(kBlockRows, n - b * kBlockRows);
        scan(b, len == kBlockRows ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1);
      }
    }
  }

  st.rows_out = out->rows.size();
  st.seconds = timer.seconds();
  if (stats) *stats = st;
  SubSpace restricted(parent, std::move(out));
  restricted.keepalive_ = keepalive_;  // chained views keep the parent alive
  return restricted;
}

}  // namespace tunespace::searchspace
