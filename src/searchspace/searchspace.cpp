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
  build_row_table();
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

/// Rows decoded per column per step of the row-table build; a chunk of
/// values and of row hashes stays in L1.
constexpr std::size_t kChunk = 1024;
/// Rows between a row-table home slot's prefetch and its insertion.
constexpr std::size_t kPrefetchAhead = 16;

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

const csp::Value& SearchSpace::value(std::size_t row, std::size_t p) const {
  const csp::Domain& domain = problem_.domain(p);
  const std::uint32_t vi = solutions_.value_index(row, p);
  if (vi >= domain.size()) throw SnapshotError("packed code outside its domain");
  return domain[vi];
}

csp::Config SearchSpace::config(std::size_t row) const {
  csp::Config out;
  out.reserve(num_params());
  for (std::size_t p = 0; p < num_params(); ++p) out.push_back(value(row, p));
  return out;
}

void SearchSpace::build_row_table() {
  const std::size_t n = size();
  const std::size_t d = num_params();
  assert(n < kEmptySlot);

  // Rows are inserted in ascending order, so the layout is deterministic.
  // Each chunk's hashes are folded column by column (the same mix64 steps in
  // the same order as row_hash), which keeps a chunk of independent hash
  // chains in flight instead of one chain per row.
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

void SearchSpace::derive_summary() const {
  std::call_once(summary_->once, [this] {
    const std::size_t n = size();
    const std::size_t d = num_params();
    const std::size_t blocks = (n + kBlockRows - 1) / kBlockRows;
    Summary summary;
    summary.ranges.resize(blocks * d);
    summary.counts.resize(d);
    summary.present.resize(d);
    std::uint32_t codes[kBlockRows];
    for (std::size_t p = 0; p < d; ++p) {
      const solver::PackedColumn& col = solutions_.column(p);
      std::vector<std::uint32_t>& counts = summary.counts[p];
      counts.assign(problem_.domain(p).size(), 0);
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t len = std::min(kBlockRows, n - b * kBlockRows);
        col.decode(b * kBlockRows, len, codes);
        const auto [lo, hi] = std::minmax_element(codes, codes + len);
        // A snapshot loaded at SnapshotVerify::kShape borrows the columns
        // unchecked; every reader of the summary indexes per-value tables
        // with these codes.
        if (*hi >= counts.size()) throw SnapshotError("packed code outside its domain");
        summary.ranges[b * d + p] = {*lo, *hi};
        // Backtracking emits its leading columns as long runs of one value,
        // where a block is one count.
        if (*lo == *hi) {
          counts[*lo] += static_cast<std::uint32_t>(len);
        } else {
          for (std::size_t i = 0; i < len; ++i) ++counts[codes[i]];
        }
      }
      for (std::uint32_t vi = 0; vi < counts.size(); ++vi) {
        if (counts[vi] > 0) summary.present[p].push_back(vi);
      }
    }
    summary_->value = std::move(summary);
    summary_->ready.store(true);
  });
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

}  // namespace tunespace::searchspace
