#include "tunespace/searchspace/searchspace.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "tunespace/searchspace/io.hpp"
#include "tunespace/util/rng.hpp"
#include "tunespace/util/timer.hpp"

namespace tunespace::searchspace {

SearchSpace::SearchSpace(const tuner::TuningProblem& spec)
    : SearchSpace(spec, tuner::optimized_method()) {}

SearchSpace::SearchSpace(const tuner::TuningProblem& spec,
                         const solver::SolverOptions& parallel)
    : SearchSpace(spec, tuner::parallel_method(parallel)) {}

SearchSpace::SearchSpace(const tuner::TuningProblem& spec,
                         const tuner::Method& method) {
  util::WallTimer timer;
  fingerprint_ = tuner::spec_fingerprint(spec, method);
  problem_ = tuner::build_problem(spec, method.pipeline);
  solver::SolveResult result = method.solver->solve(problem_);
  solutions_ = std::move(result.solutions);
  stats_ = result.stats;
  build_indexes();
  construction_seconds_ = timer.seconds();
}

double SearchSpace::sparsity() const {
  const double cart = static_cast<double>(cartesian_size());
  if (cart <= 0) return 0.0;
  return 1.0 - static_cast<double>(size()) / cart;
}

namespace {

/// Seed of the row hash: a row's hash is mix64 folded over its value
/// indices in parameter order, starting here.  Snapshot row tables are laid
/// out by this hash, so it is part of the format.
constexpr std::uint64_t kRowHashSeed = 0x51A2B3C4D5E6F708ULL;

/// Rows decoded per column per step of the index build; a chunk of values
/// and of row hashes stays in L1.
constexpr std::size_t kChunk = 1024;
/// Independent counter sets of the posting-list build.
constexpr std::size_t kLanes = 4;
/// Rows between a row-table home slot's prefetch and its insertion.
constexpr std::size_t kPrefetchAhead = 16;

/// Visit every row of `col` as body(lane, value, row).  The rows are split
/// into kLanes contiguous stripes walked in lock step, so bodies that keep
/// per-lane state run kLanes independent increment chains: backtracking
/// emits its leading columns as long runs of one value, where a single
/// counter makes every increment wait on the one before it.  Within a lane,
/// rows arrive in ascending order.
template <typename Body>
void for_each_striped(const solver::PackedColumn& col, Body&& body) {
  const std::size_t n = col.size();
  const std::size_t stripe = (n + kLanes - 1) / kLanes;
  std::uint32_t values[kLanes][kChunk];
  for (std::size_t pos = 0; pos < stripe; pos += kChunk) {
    std::size_t first[kLanes], len[kLanes];
    for (std::size_t k = 0; k < kLanes; ++k) {
      first[k] = std::min(n, k * stripe + pos);
      const std::size_t end = std::min(n, (k + 1) * stripe);
      len[k] = std::min(kChunk, end - std::min(end, first[k]));
      col.decode(first[k], len[k], values[k]);
    }
    // Stripe lengths never grow with the lane index: all lanes run up to the
    // last one's length, then the longer ones finish alone.
    const std::size_t common = len[kLanes - 1];
    for (std::size_t i = 0; i < common; ++i) {
      for (std::size_t k = 0; k < kLanes; ++k) body(k, values[k][i], first[k] + i);
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      for (std::size_t i = common; i < len[k]; ++i) body(k, values[k][i], first[k] + i);
    }
  }
}

}  // namespace

std::uint64_t SearchSpace::row_hash(const std::uint32_t* row) const {
  std::uint64_t h = kRowHashSeed;
  for (std::size_t p = 0; p < num_params(); ++p) h = util::mix64(h, row[p]);
  return h;
}

bool SearchSpace::row_equals(std::uint32_t row,
                             const std::uint32_t* index_row) const {
  for (std::size_t p = 0; p < num_params(); ++p) {
    if (solutions_.value_index(row, p) != index_row[p]) return false;
  }
  return true;
}

void SearchSpace::build_indexes() {
  const std::size_t n = size();
  const std::size_t d = num_params();
  assert(n < kEmptySlot);

  // --- CSR inverted indexes: one global offsets array over all parameters.
  posting_base_.resize(d);
  std::size_t total_offsets = 0;
  for (std::size_t p = 0; p < d; ++p) {
    posting_base_[p] = total_offsets;
    total_offsets += problem_.domain(p).size() + 1;
  }
  posting_offsets_store_.assign(total_offsets, 0);
  posting_rows_store_.resize(n * d);
  std::vector<std::uint64_t> lane_slots;  // kLanes x m counts, then cursors
  for (std::size_t p = 0; p < d; ++p) {
    const auto& col = solutions_.column(p);
    const std::size_t base = posting_base_[p];
    const std::size_t m = problem_.domain(p).size();
    lane_slots.assign(kLanes * m, 0);
    for_each_striped(col, [&](std::size_t lane, std::uint32_t vi, std::size_t) {
      ++lane_slots[lane * m + vi];
    });
    // Prefix-sum the counts into global row positions starting at parameter
    // p's region base p * n.  Stripes are contiguous and in row order, so
    // value vi's list holds stripe 0's rows, then stripe 1's, ...: every
    // lane's cursor starts where the lanes before it end, and each posting
    // list comes out sorted by row id.
    std::uint64_t next = static_cast<std::uint64_t>(p) * n;
    for (std::size_t vi = 0; vi < m; ++vi) {
      posting_offsets_store_[base + vi] = next;
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const std::uint64_t count = lane_slots[lane * m + vi];
        lane_slots[lane * m + vi] = next;
        next += count;
      }
    }
    posting_offsets_store_[base + m] = next;
    std::uint32_t* rows = posting_rows_store_.data();
    for_each_striped(col, [&](std::size_t lane, std::uint32_t vi, std::size_t r) {
      rows[lane_slots[lane * m + vi]++] = static_cast<std::uint32_t>(r);
    });
  }
  posting_offsets_ = posting_offsets_store_;
  posting_rows_ = posting_rows_store_;
  derive_present_values();

  // --- Row-lookup table: rows inserted in ascending order, so the layout is
  // deterministic.  Each chunk's hashes are folded column by column (the
  // same mix64 steps in the same order as row_hash), which keeps a chunk of
  // independent hash chains in flight instead of one chain per row.
  const std::size_t table_size =
      std::bit_ceil(std::max<std::size_t>(16, n * 2));
  hash_table_store_.assign(table_size, kEmptySlot);
  std::uint32_t* table = hash_table_store_.data();
  const std::size_t tmask = table_size - 1;
  std::uint64_t hashes[kChunk];
  std::uint32_t values[kChunk];
  for (std::size_t r0 = 0; r0 < n; r0 += kChunk) {
    const std::size_t len = std::min(kChunk, n - r0);
    std::fill_n(hashes, len, kRowHashSeed);
    for (std::size_t p = 0; p < d; ++p) {
      solutions_.column(p).decode(r0, len, values);
      for (std::size_t i = 0; i < len; ++i) hashes[i] = util::mix64(hashes[i], values[i]);
    }
    for (std::size_t i = 0; i < std::min(kPrefetchAhead, len); ++i) {
      __builtin_prefetch(table + (hashes[i] & tmask), 1);
    }
    for (std::size_t i = 0; i < len; ++i) {
      if (i + kPrefetchAhead < len) {
        __builtin_prefetch(table + (hashes[i + kPrefetchAhead] & tmask), 1);
      }
      std::size_t slot = static_cast<std::size_t>(hashes[i]) & tmask;
      while (table[slot] != kEmptySlot) slot = (slot + 1) & tmask;
      table[slot] = static_cast<std::uint32_t>(r0 + i);
    }
  }
  hash_table_ = hash_table_store_;
}

void SearchSpace::derive_present_values() {
  const std::size_t d = num_params();
  present_values_.assign(d, {});
  for (std::size_t p = 0; p < d; ++p) {
    const std::size_t base = posting_base_[p];
    const std::size_t m = problem_.domain(p).size();
    for (std::uint32_t vi = 0; vi < m; ++vi) {
      if (posting_offsets_[base + vi + 1] > posting_offsets_[base + vi]) {
        present_values_[p].push_back(vi);
      }
    }
  }
}

const std::vector<SearchSpace::CodeRange>& SearchSpace::block_ranges() const {
  std::call_once(block_ranges_->once, [this] {
    const std::size_t n = size();
    const std::size_t d = num_params();
    const std::size_t blocks = (n + kBlockRows - 1) / kBlockRows;
    std::vector<CodeRange> ranges(blocks * d);
    std::uint32_t values[kBlockRows];
    for (std::size_t p = 0; p < d; ++p) {
      const solver::PackedColumn& col = solutions_.column(p);
      const std::size_t m = problem_.domain(p).size();
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t len = std::min(kBlockRows, n - b * kBlockRows);
        col.decode(b * kBlockRows, len, values);
        const auto [lo, hi] = std::minmax_element(values, values + len);
        // A snapshot loaded at SnapshotVerify::kShape borrows the columns
        // unchecked; snapping indexes per-value tables with these codes.
        if (*hi >= m) throw SnapshotError("packed code outside its domain");
        ranges[b * d + p] = {*lo, *hi};
      }
    }
    block_ranges_->ranges = std::move(ranges);
  });
  return block_ranges_->ranges;
}

std::optional<std::size_t> SearchSpace::find(
    const std::vector<std::uint32_t>& index_row) const {
  if (index_row.size() != num_params() || hash_table_.empty()) {
    return std::nullopt;
  }
  // A snapshot loaded at SnapshotVerify::kShape borrows the table
  // unchecked, so its slots are range-checked here, where they are read,
  // and a table without an empty slot ends the probe after one lap.
  const std::size_t n = size();
  const std::size_t tmask = hash_table_.size() - 1;
  std::size_t i = static_cast<std::size_t>(row_hash(index_row.data())) & tmask;
  for (std::size_t probe = 0; probe <= tmask; ++probe, i = (i + 1) & tmask) {
    const std::uint32_t row = hash_table_[i];
    if (row == kEmptySlot) return std::nullopt;
    if (row >= n) throw SnapshotError("row-table slot out of range");
    if (row_equals(row, index_row.data())) return row;
  }
  throw SnapshotError("row table has no empty slot");
}

std::optional<std::size_t> SearchSpace::find_config(const csp::Config& config) const {
  if (config.size() != num_params()) return std::nullopt;
  std::vector<std::uint32_t> row(num_params());
  for (std::size_t p = 0; p < num_params(); ++p) {
    const std::size_t vi = problem_.domain(p).index_of(config[p]);
    if (vi == csp::Domain::npos) return std::nullopt;
    row[p] = static_cast<std::uint32_t>(vi);
  }
  return find(row);
}

std::span<const std::uint32_t> SearchSpace::rows_with(std::size_t p,
                                                      std::uint32_t vi) const {
  if (p >= posting_base_.size() || vi >= problem_.domain(p).size()) return {};
  const std::size_t base = posting_base_[p];
  const std::uint64_t begin = posting_offsets_[base + vi];
  const std::uint64_t end = posting_offsets_[base + vi + 1];
  return posting_rows_.subspan(static_cast<std::size_t>(begin),
                               static_cast<std::size_t>(end - begin));
}

}  // namespace tunespace::searchspace
