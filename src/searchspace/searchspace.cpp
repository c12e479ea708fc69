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
  construction_seconds_ = timer.seconds();
}

double SearchSpace::sparsity() const {
  const double cart = static_cast<double>(cartesian_size());
  if (cart <= 0) return 0.0;
  return 1.0 - static_cast<double>(size()) / cart;
}

namespace {

/// Seed of the row hash: a row's hash is mix64 folded over its key words
/// (searchspace.hpp) in order, starting here, then finished by fmix64.
constexpr std::uint64_t kRowHashSeed = 0x51A2B3C4D5E6F708ULL;

/// murmur3's 64-bit finalizer.  One mix64 round over a one-word key leaves
/// the low bits that pick a slot too weakly mixed: linear probes grow
/// several-fold on some spaces.
inline std::uint64_t fmix64(std::uint64_t h) {
  h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCDULL;
  h = (h ^ (h >> 33)) * 0xC4CEB9FE1A85EC53ULL;
  return h ^ (h >> 33);
}

/// Rows decoded per column per step of the row-table build; a chunk of
/// values, keys and row hashes stays in L1.
constexpr std::size_t kChunk = 1024;
/// Rows between a row-table home slot's prefetch and its insertion.
constexpr std::size_t kPrefetchAhead = 16;

}  // namespace

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

SearchSpace::RowTable SearchSpace::build_row_table() const {
  const std::size_t n = size();
  const std::size_t d = num_params();
  assert(n < RowTable::kEmptySlot);
  RowTable out;
  out.fields.resize(d);
  std::uint32_t word = 0;
  std::uint32_t shift = 0;
  for (std::size_t p = 0; p < d; ++p) {
    const std::uint32_t bits = solutions_.column(p).bits();
    if (shift + bits > 64) {
      ++word;
      shift = 0;
    }
    out.fields[p] = {word, shift, bits};
    shift += bits;
  }
  const std::size_t key_words = word + 1;

  // Rows are inserted in ascending order, so the layout is deterministic.
  // Each chunk's keys are assembled column by column and its hashes folded
  // key word by key word, which keeps a chunk of independent hash chains in
  // flight instead of one chain per row.
  const std::size_t table_size =
      std::bit_ceil(std::max<std::size_t>(16, n * 2));
  out.slots.assign(table_size, RowTable::kEmptySlot);
  std::uint32_t* table = out.slots.data();
  const std::size_t tmask = table_size - 1;
  // `[word * kChunk + i]`.  Each word's first field has shift 0 and
  // overwrites the previous chunk's word; a key of width-0 fields stays 0.
  std::vector<std::uint64_t> keys(key_words * kChunk);
  std::uint64_t hashes[kChunk];
  std::uint32_t values[kChunk];
  for (std::size_t r0 = 0; r0 < n; r0 += kChunk) {
    const std::size_t len = std::min(kChunk, n - r0);
    for (std::size_t p = 0; p < d; ++p) {
      const KeyField& field = out.fields[p];
      if (field.bits == 0) continue;
      solutions_.column(p).decode(r0, len, values);
      std::uint64_t* key = keys.data() + field.word * kChunk;
      if (field.shift == 0) {
        std::copy_n(values, len, key);
      } else {
        for (std::size_t i = 0; i < len; ++i) {
          key[i] |= std::uint64_t{values[i]} << field.shift;
        }
      }
    }
    std::fill_n(hashes, len, kRowHashSeed);
    for (std::size_t w = 0; w < key_words; ++w) {
      const std::uint64_t* key = keys.data() + w * kChunk;
      for (std::size_t i = 0; i < len; ++i) hashes[i] = util::mix64(hashes[i], key[i]);
    }
    for (std::size_t i = 0; i < len; ++i) hashes[i] = fmix64(hashes[i]);
    for (std::size_t i = 0; i < std::min(kPrefetchAhead, len); ++i) {
      __builtin_prefetch(table + (hashes[i] & tmask), 1);
    }
    for (std::size_t i = 0; i < len; ++i) {
      if (i + kPrefetchAhead < len) {
        __builtin_prefetch(table + (hashes[i + kPrefetchAhead] & tmask), 1);
      }
      std::size_t slot = static_cast<std::size_t>(hashes[i]) & tmask;
      while (table[slot] != RowTable::kEmptySlot) slot = (slot + 1) & tmask;
      table[slot] = static_cast<std::uint32_t>(r0 + i);
    }
  }
  return out;
}

SearchSpace::Summary SearchSpace::derive_summary() const {
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
  return summary;
}

std::optional<std::size_t> SearchSpace::find(
    const std::vector<std::uint32_t>& index_row) const {
  if (index_row.size() != num_params()) return std::nullopt;
  const RowTable& table = row_table();
  // The key is folded word by word as the values are read.  A value too
  // wide for its field is in no row, and would spill into the next field.
  std::uint64_t h = kRowHashSeed;
  std::uint64_t word = 0;
  std::uint32_t at = 0;
  for (std::size_t p = 0; p < num_params(); ++p) {
    const KeyField& field = table.fields[p];
    const std::uint64_t v = index_row[p];
    if (v >> field.bits != 0) return std::nullopt;
    if (field.word != at) {
      h = util::mix64(h, word);
      word = 0;
      at = field.word;
    }
    word |= v << field.shift;
  }
  h = fmix64(util::mix64(h, word));
  const std::size_t tmask = table.slots.size() - 1;
  for (std::size_t i = static_cast<std::size_t>(h) & tmask;; i = (i + 1) & tmask) {
    const std::uint32_t row = table.slots[i];
    if (row == RowTable::kEmptySlot) return std::nullopt;
    if (row_equals(row, index_row.data())) return row;
  }
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
