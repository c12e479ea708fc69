#include "tunespace/searchspace/view.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "tunespace/searchspace/io.hpp"
#include "tunespace/util/timer.hpp"

namespace tunespace::searchspace {

namespace {

using query::CompiledPredicate;
using query::Exec;
using query::ParamMask;

/// Per-parameter admissibility bitmap over domain value indices.
std::vector<std::uint8_t> mask_bitmap(const csp::Problem& problem,
                                      const ParamMask& mask) {
  std::vector<std::uint8_t> bits(problem.domain(mask.param).size(), 0);
  for (std::uint32_t vi : mask.allowed) bits[vi] = 1;
  return bits;
}

/// Total length of the posting lists a mask's pushdown union would touch.
std::size_t posting_total(const SearchSpace& parent, const ParamMask& mask) {
  std::size_t total = 0;
  for (std::uint32_t vi : mask.allowed) {
    total += parent.rows_with(mask.param, vi).size();
  }
  return total;
}

/// Balanced pairwise merge of disjoint sorted posting lists in
/// [lo, hi) — a merge sort whose leaves are already sorted runs.
std::vector<std::uint32_t> merge_lists(
    const std::vector<std::span<const std::uint32_t>>& lists, std::size_t lo,
    std::size_t hi) {
  if (hi - lo == 1) return {lists[lo].begin(), lists[lo].end()};
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::vector<std::uint32_t> left = merge_lists(lists, lo, mid);
  const std::vector<std::uint32_t> right = merge_lists(lists, mid, hi);
  std::vector<std::uint32_t> out;
  out.reserve(left.size() + right.size());
  std::merge(left.begin(), left.end(), right.begin(), right.end(),
             std::back_inserter(out));
  return out;
}

/// Union of the (disjoint, sorted) posting lists selected by `mask`,
/// ascending by row id.
std::vector<std::uint32_t> posting_union(const SearchSpace& parent,
                                         const ParamMask& mask, std::size_t total) {
  std::vector<std::span<const std::uint32_t>> lists;
  lists.reserve(mask.allowed.size());
  for (std::uint32_t vi : mask.allowed) {
    const auto list = parent.rows_with(mask.param, vi);
    if (!list.empty()) lists.push_back(list);
  }
  if (lists.empty()) return {};
  std::vector<std::uint32_t> rows = merge_lists(lists, 0, lists.size());
  assert(rows.size() == total);
  (void)total;
  // A snapshot loaded at SnapshotVerify::kShape borrows the posting rows
  // unchecked; a row id past the end would index the columns out of bounds.
  std::uint32_t max_row = 0;
  for (std::uint32_t r : rows) max_row = std::max(max_row, r);
  if (max_row >= parent.size()) throw SnapshotError("posting row out of range");
  return rows;
}

/// Keep only the rows of `rows` whose parameter values pass every bitmap in
/// `probes` ({param, bitmap} pairs).
void probe_filter(
    const SearchSpace& parent, std::vector<std::uint32_t>& rows,
    const std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>>& probes) {
  if (probes.empty()) return;
  std::size_t out = 0;
  for (std::uint32_t r : rows) {
    bool keep = true;
    for (const auto& [param, bits] : probes) {
      if (!bits[parent.value_index(r, param)]) {
        keep = false;
        break;
      }
    }
    if (keep) rows[out++] = r;
  }
  rows.resize(out);
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
                          const query::QueryOptions& options,
                          query::QueryStats* stats) {
  return SubSpace(parent).restrict(pred, options, stats);
}

SubSpace SubSpace::restrict(const query::Predicate& pred,
                            const query::QueryOptions& options,
                            query::QueryStats* stats) const {
  util::WallTimer timer;
  query::QueryStats st;
  st.candidate_rows = size();

  const CompiledPredicate compiled = query::compile(pred, problem());
  if (compiled.trivial()) {
    // Nothing to do: share this view's selection outright (zero-copy chain).
    st.exec_used = options.exec;
    st.rows_out = size();
    st.seconds = timer.seconds();
    if (stats) *stats = st;
    return *this;
  }

  const SearchSpace& parent = *parent_;
  auto out = std::make_shared<Selection>();

  if (!compiled.unsatisfiable()) {
    // Plan: seed the row set either from the cheapest posting-list union
    // (pushdown) or from this view's candidate rows (scan).  Every further
    // conjunct is a bitmap probe either way, so the choice is driven by the
    // cheaper seed.
    std::size_t seed_mask = 0;
    std::size_t seed_total = 0;
    for (std::size_t i = 0; i < compiled.masks.size(); ++i) {
      const std::size_t total = posting_total(parent, compiled.masks[i]);
      if (i == 0 || total < seed_total) {
        seed_mask = i;
        seed_total = total;
      }
    }
    Exec exec = options.exec;
    if (exec == Exec::kAuto) {
      exec = seed_total < st.candidate_rows ? Exec::kPushdown : Exec::kScan;
    }
    st.exec_used = exec;

    std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> probes;
    if (exec == Exec::kPushdown) {
      out->rows = posting_union(parent, compiled.masks[seed_mask], seed_total);
      st.rows_examined = seed_total;
      if (sel_) {
        // Chained refinement: stay inside the parent view's row set.
        std::vector<std::uint32_t> kept;
        kept.reserve(std::min(out->rows.size(), sel_->rows.size()));
        std::set_intersection(out->rows.begin(), out->rows.end(),
                              sel_->rows.begin(), sel_->rows.end(),
                              std::back_inserter(kept));
        out->rows = std::move(kept);
      }
      for (std::size_t i = 0; i < compiled.masks.size(); ++i) {
        if (i == seed_mask) continue;
        probes.emplace_back(compiled.masks[i].param,
                            mask_bitmap(problem(), compiled.masks[i]));
      }
      st.rows_examined += out->rows.size() * probes.size();
      probe_filter(parent, out->rows, probes);
    } else {
      for (const ParamMask& mask : compiled.masks) {
        probes.emplace_back(mask.param, mask_bitmap(problem(), mask));
      }
      if (sel_) {
        out->rows = sel_->rows;
      } else {
        out->rows.resize(parent.size());
        for (std::size_t r = 0; r < parent.size(); ++r) {
          out->rows[r] = static_cast<std::uint32_t>(r);
        }
      }
      st.rows_examined = out->rows.size();
      probe_filter(parent, out->rows, probes);
    }
  } else {
    // Unsatisfiable mask: the empty view needs no strategy (see the
    // QueryStats::exec_used contract).
    st.exec_used = options.exec;
  }

  st.rows_out = out->rows.size();
  st.seconds = timer.seconds();
  if (stats) *stats = st;
  SubSpace restricted(parent, std::move(out));
  restricted.keepalive_ = keepalive_;  // chained views keep the parent alive
  return restricted;
}

}  // namespace tunespace::searchspace
