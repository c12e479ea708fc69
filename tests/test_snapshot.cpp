// Snapshot persistence: packed-column property tests (bulk decode and block
// append against get/push_back), pinned section checksums, save/load round-trip
// equality across synthetic and real-world spaces (rows, indexes, neighbour
// and sampling queries, CSV bytes), rejection paths for corrupt / truncated /
// mismatched files, and the load_or_build construction cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "support/spec_gen.hpp"

#include "tunespace/searchspace/io.hpp"
#include "tunespace/searchspace/neighbors.hpp"
#include "tunespace/searchspace/sampling.hpp"
#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/spaces/synthetic.hpp"
#include "tunespace/util/rng.hpp"

using namespace tunespace;
namespace fs = std::filesystem;

namespace {

/// Fresh per-test scratch directory under the system temp dir.
class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tunespace-snapshot-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& file) const { return (dir_ / file).string(); }

  fs::path dir_;
};

using PackedColumnTest = SnapshotTest;
using CsvTest = SnapshotTest;
using RowKeyTest = SnapshotTest;

tuner::TuningProblem tiny_spec() {
  tuner::TuningProblem spec("tiny");
  spec.add_param("block_size_x", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
      .add_param("block_size_y", {1, 2, 4, 8, 16, 32})
      .add_param("sh_power", {0, 1});
  spec.add_constraint("32 <= block_size_x * block_size_y <= 1024");
  spec.add_constraint("sh_power == 0 or block_size_x >= 16");
  return spec;
}

std::string csv_bytes(const searchspace::SearchSpace& space) {
  std::ostringstream os;
  searchspace::write_csv(space, os);
  return os.str();
}

/// Structural + behavioral equality between a fresh build and a reload.
void expect_identical(const searchspace::SearchSpace& fresh,
                      const searchspace::SearchSpace& loaded) {
  ASSERT_EQ(fresh.size(), loaded.size());
  ASSERT_EQ(fresh.num_params(), loaded.num_params());
  EXPECT_EQ(fresh.fingerprint(), loaded.fingerprint());
  EXPECT_EQ(csv_bytes(fresh), csv_bytes(loaded));

  for (std::size_t p = 0; p < fresh.num_params(); ++p) {
    EXPECT_EQ(fresh.solutions().column(p), loaded.solutions().column(p));
    EXPECT_EQ(fresh.present_values(p), loaded.present_values(p));
    for (std::uint32_t vi : fresh.present_values(p)) {
      const csp::Value& value = fresh.problem().domain(p)[vi];
      const auto pred = searchspace::query::eq(fresh.param_name(p), value);
      const searchspace::SubSpace a = searchspace::SubSpace(fresh).restrict(pred);
      const searchspace::SubSpace b = searchspace::SubSpace(loaded).restrict(pred);
      EXPECT_FALSE(a.empty());
      EXPECT_TRUE(std::ranges::equal(a.selection(), b.selection()));
    }
  }

  // Row lookups agree for every row (and the loaded table resolves them to
  // the same dense ids).
  const std::size_t probe = std::min<std::size_t>(fresh.size(), 500);
  for (std::size_t r = 0; r < probe; ++r) {
    const auto row = fresh.indices(r);
    EXPECT_EQ(fresh.find(row), loaded.find(row));
    EXPECT_EQ(loaded.find(row), r);
  }

  // Neighbour queries are identical.
  for (std::size_t r = 0; r < std::min<std::size_t>(fresh.size(), 50); ++r) {
    EXPECT_EQ(searchspace::neighbors_of(fresh, r),
              searchspace::neighbors_of(loaded, r));
  }

  // Sampling under the same seed is deterministic across fresh/loaded.
  util::Rng rng_a(99), rng_b(99);
  EXPECT_EQ(searchspace::latin_hypercube_sample(fresh, 16, rng_a),
            searchspace::latin_hypercube_sample(loaded, 16, rng_b));

  // Solve effort counters survive the round trip.
  EXPECT_EQ(fresh.solve_stats().nodes, loaded.solve_stats().nodes);
  EXPECT_EQ(fresh.solve_stats().constraint_checks,
            loaded.solve_stats().constraint_checks);
}

/// `count` random values that fit in `bits` bits.
std::vector<std::uint32_t> random_values(unsigned bits, std::size_t count,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  const std::uint64_t mask = bits >= 32 ? 0xFFFFFFFFull : (1ull << bits) - 1;
  std::vector<std::uint32_t> out(count);
  for (auto& v : out) v = static_cast<std::uint32_t>(rng() & mask);
  return out;
}

/// The reference column: `values` appended one push_back at a time.
solver::PackedColumn pushed(unsigned bits, const std::vector<std::uint32_t>& values) {
  solver::PackedColumn col(bits);
  for (std::uint32_t v : values) col.push_back(v);
  return col;
}

bool same_words(const solver::PackedColumn& a, const solver::PackedColumn& b) {
  return a.size() == b.size() && a.word_count() == b.word_count() &&
         std::equal(a.words(), a.words() + a.word_count(), b.words());
}

/// A zero-copy column over a private copy of `col`'s words, as the snapshot
/// loader builds them; `words` receives the borrowed buffer.
solver::PackedColumn borrowed_copy(const solver::PackedColumn& col,
                                   std::shared_ptr<std::vector<std::uint64_t>>& words) {
  const std::uint64_t* first = col.words();
  words = std::make_shared<std::vector<std::uint64_t>>(first, first + col.word_count());
  return solver::PackedColumn::borrowed(col.bits(), col.size(), words->data(), words);
}

/// The three section checksums of a saved snapshot as space-separated hex
/// words, read from its section table (format version 3: a 112-byte header,
/// then three 32-byte entries {id u32, reserved u32, offset u64, size u64,
/// checksum u64}).
std::string section_checksums(const std::string& file) {
  constexpr std::size_t kHeaderBytes = 112;
  constexpr std::size_t kSectionEntryBytes = 32;
  constexpr std::size_t kChecksumOffset = 24;
  std::ifstream is(file, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string bytes = ss.str();
  std::ostringstream text;
  text << std::hex << std::setfill('0');
  for (std::size_t s = 0; s < 3; ++s) {
    const std::size_t at = kHeaderBytes + s * kSectionEntryBytes + kChecksumOffset;
    if (bytes.size() < at + sizeof(std::uint64_t)) return "truncated";
    std::uint64_t sum = 0;
    std::memcpy(&sum, bytes.data() + at, sizeof sum);
    text << (s == 0 ? "" : " ") << std::setw(16) << sum;
  }
  return text.str();
}

void corrupt_byte(const std::string& file, std::uint64_t offset) {
  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f) << file;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// PackedColumn properties
// ---------------------------------------------------------------------------

TEST_F(PackedColumnTest, RandomAccessMatchesReferenceAcrossWidths) {
  for (unsigned bits : {0u, 1u, 3u, 5u, 8u, 13u, 16u, 21u, 31u, 32u}) {
    util::Rng rng(7 * bits + 1);
    solver::PackedColumn col(bits);
    std::vector<std::uint32_t> ref;
    const std::uint64_t mask = bits >= 32 ? 0xFFFFFFFFull : (1ull << bits) - 1;
    for (int i = 0; i < 2000; ++i) {
      const auto v = static_cast<std::uint32_t>(rng() & mask);
      col.push_back(v);
      ref.push_back(v);
    }
    ASSERT_EQ(col.size(), ref.size()) << "bits=" << bits;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(col.get(i), ref[i]) << "bits=" << bits << " i=" << i;
    }
  }
}

TEST_F(PackedColumnTest, AppendRangeMatchesElementwiseAppend) {
  for (unsigned bits : {1u, 7u, 11u, 24u, 32u}) {
    util::Rng rng(bits);
    solver::PackedColumn src(bits);
    const std::uint64_t mask = bits >= 32 ? 0xFFFFFFFFull : (1ull << bits) - 1;
    for (int i = 0; i < 777; ++i) {
      src.push_back(static_cast<std::uint32_t>(rng() & mask));
    }
    // Bulk bit blit across word boundaries vs an element loop.
    solver::PackedColumn bulk(bits), loop(bits);
    bulk.push_back(3 & static_cast<std::uint32_t>(mask));  // misalign the start
    loop.push_back(3 & static_cast<std::uint32_t>(mask));
    bulk.append(src, 5, 600);
    for (std::size_t i = 5; i < 605; ++i) loop.push_back(src.get(i));
    EXPECT_EQ(bulk, loop) << "bits=" << bits;
  }
}

TEST_F(PackedColumnTest, MixedWidthAppendAndEquality) {
  util::Rng rng(42);
  solver::PackedColumn narrow(5), wide;  // default is 32 bits
  for (int i = 0; i < 300; ++i) {
    const auto v = static_cast<std::uint32_t>(rng() & 31);
    narrow.push_back(v);
    wide.push_back(v);
  }
  EXPECT_EQ(narrow, wide);  // logical equality across widths
  EXPECT_EQ(wide, narrow);

  // Width-mismatched append falls back to element copies.
  solver::PackedColumn target;
  target.append(narrow, 10, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(target.get(i), narrow.get(i + 10));
  }

  narrow.push_back(0);
  EXPECT_NE(narrow, wide);
}

TEST_F(PackedColumnTest, SolutionSetPackedMatchesUnpacked) {
  // The same enumeration appended to a packed (from problem) and an
  // unpacked (arity-only) SolutionSet reads back identically.
  const auto spec = tiny_spec();
  auto problem = tuner::build_problem(spec, tuner::PipelineOptions::optimized());
  solver::SolutionSet packed(problem);
  solver::SolutionSet unpacked(problem.num_variables());
  util::Rng rng(3);
  std::vector<std::uint32_t> row(problem.num_variables());
  for (int i = 0; i < 500; ++i) {
    for (std::size_t v = 0; v < row.size(); ++v) {
      row[v] = static_cast<std::uint32_t>(rng.index(problem.domain(v).size()));
    }
    packed.append(row.data());
    unpacked.append(row.data());
  }
  ASSERT_EQ(packed.size(), unpacked.size());
  for (std::size_t v = 0; v < packed.num_vars(); ++v) {
    EXPECT_LT(packed.column(v).bits(), 32u);
    EXPECT_EQ(packed.column(v), unpacked.column(v));
  }
  for (std::size_t r = 0; r < packed.size(); ++r) {
    EXPECT_EQ(packed.index_row(r), unpacked.index_row(r));
  }
  EXPECT_LT(packed.memory_bytes(), unpacked.memory_bytes());
}

TEST_F(PackedColumnTest, BulkDecodeMatchesGetForEveryWidth) {
  for (unsigned bits = 0; bits <= 32; ++bits) {
    // 640 entries end exactly on a word boundary at every width; 700 leave
    // the final word partly filled at most widths.
    for (std::size_t size : {640u, 700u}) {
      SCOPED_TRACE(testing::Message() << bits << " bits, " << size << " entries");
      const auto col = pushed(bits, random_values(bits, size, 1000 * bits + size));
      const auto expect_window = [&](std::size_t begin, std::size_t count) {
        std::vector<std::uint32_t> decoded(count), expected(count);
        col.decode(begin, count, decoded.data());
        for (std::size_t i = 0; i < count; ++i) expected[i] = col.get(begin + i);
        EXPECT_EQ(decoded, expected) << "window at " << begin;
      };
      expect_window(0, size);
      for (std::size_t begin : {1u, 63u, 64u, 65u, 333u}) expect_window(begin, 97);
      // Windows ending on the last entries of the final word.
      for (std::size_t tail = 0; tail <= 70; ++tail) expect_window(size - tail, tail);
      // Every block on its own: full blocks run the unpack specialised by
      // width, and 700 entries end in a tail block.
      constexpr std::size_t kBlock = solver::PackedColumn::kBlockRows;
      for (std::size_t first = 0; first < size; first += kBlock) {
        expect_window(first, std::min(kBlock, size - first));
      }
      // match_block against a per-entry test of a random allowed table.  The
      // table needs an entry per value, so past 16 bits the entries are
      // drawn below 2^16; the unpack's high bits are checked by decode.
      const unsigned value_bits = std::min(bits, 16u);
      const auto matched =
          pushed(bits, random_values(value_bits, size, 77 * bits + size));
      util::Rng rng(bits + size);
      std::vector<std::uint8_t> allowed(std::size_t{1} << value_bits);
      for (auto& a : allowed) a = rng.chance(0.5) ? 1 : 0;
      for (std::size_t b = 0; b * kBlock < size; ++b) {
        std::uint64_t expected = 0;
        for (std::size_t i = 0; i < std::min(kBlock, size - b * kBlock); ++i) {
          expected |= std::uint64_t{allowed[matched.get(b * kBlock + i)]} << i;
        }
        EXPECT_EQ(matched.match_block(b, allowed.data()), expected) << "block " << b;
      }
    }
  }
}

TEST_F(PackedColumnTest, BulkDecodeWorksOnBorrowedColumns) {
  for (unsigned bits : {1u, 3u, 13u, 32u}) {
    SCOPED_TRACE(testing::Message() << bits << " bits");
    const auto owned = pushed(bits, random_values(bits, 500, bits + 5));
    std::shared_ptr<std::vector<std::uint64_t>> words;
    const auto col = borrowed_copy(owned, words);
    ASSERT_TRUE(col.is_borrowed());
    for (std::size_t begin : {0u, 457u}) {
      const std::size_t count = owned.size() - begin;
      std::vector<std::uint32_t> decoded(count), expected(count);
      col.decode(begin, count, decoded.data());
      for (std::size_t i = 0; i < count; ++i) expected[i] = owned.get(begin + i);
      EXPECT_EQ(decoded, expected) << "window at " << begin;
    }
  }
}

TEST_F(PackedColumnTest, BlockAppendMatchesPushBackWordForWord) {
  constexpr std::size_t kStride = 3;
  for (unsigned bits = 0; bits <= 32; ++bits) {
    const auto values = random_values(bits, 900, 77 + bits);
    // The values are column 1 of a row-major block of kStride columns; the
    // other slots hold bits no column may pick up.
    std::vector<std::uint32_t> block(values.size() * kStride, 0xFFFFFFFFu);
    for (std::size_t i = 0; i < values.size(); ++i) block[i * kStride + 1] = values[i];

    // Start inside a partly filled word, then append blocks of mixed sizes.
    std::size_t next = 5;
    solver::PackedColumn col = pushed(bits, {values.begin(), values.begin() + next});
    solver::PackedColumn ref = col;
    for (std::size_t count : {1u, 2u, 61u, 64u, 100u, 333u}) {
      col.append_strided(block.data() + next * kStride + 1, count, kStride);
      for (std::size_t i = 0; i < count; ++i) ref.push_back(values[next + i]);
      next += count;
      ASSERT_TRUE(same_words(col, ref)) << "bits=" << bits << " rows=" << next;
    }
  }
}

TEST_F(PackedColumnTest, BlockAlignedAppendMatchesPushBackWordForWord) {
  // An append that starts on a block boundary packs its full blocks with
  // the kernel specialised by width and the rest with the bit cursor.
  constexpr std::size_t kBlock = solver::PackedColumn::kBlockRows;
  for (unsigned bits = 1; bits <= 32; ++bits) {
    for (std::size_t stride : {1u, 3u}) {
      SCOPED_TRACE(testing::Message() << bits << " bits, stride " << stride);
      const auto values = random_values(bits, 5 * kBlock + 256, 31 * bits + stride);
      // The values are the last column of a row-major block of `stride`
      // columns; the other slots hold bits no column may pick up.
      std::vector<std::uint32_t> block(values.size() * stride, 0xFFFFFFFFu);
      for (std::size_t i = 0; i < values.size(); ++i) {
        block[i * stride + stride - 1] = values[i];
      }
      const auto append = [&](solver::PackedColumn& col, std::size_t count) {
        col.append_strided(block.data() + col.size() * stride + stride - 1, count,
                           stride);
      };
      for (std::size_t start : {std::size_t{0}, kBlock, 3 * kBlock}) {
        for (std::size_t count : {64u, 131u, 256u, 1u, 63u}) {
          solver::PackedColumn col =
              pushed(bits, {values.begin(), values.begin() + start});
          append(col, count);
          const auto ref =
              pushed(bits, {values.begin(), values.begin() + start + count});
          ASSERT_TRUE(same_words(col, ref)) << "start " << start << ", count " << count;
        }
      }
      // The same counts in one run: aligned starts, then unaligned ones.
      solver::PackedColumn col(bits);
      for (std::size_t count : {64u, 131u, 256u, 1u, 63u}) append(col, count);
      ASSERT_TRUE(same_words(col, pushed(bits, {values.begin(),
                                                values.begin() + col.size()})));
    }
  }
}

TEST_F(PackedColumnTest, BlockAppendOntoBorrowedColumnDetachesFirst) {
  for (unsigned bits : {1u, 5u, 17u, 32u}) {
    // 123 rows leave the last borrowed word partly filled; 128 end on a
    // block, so the append's full blocks take the block kernel.
    for (std::size_t head_rows : {123u, 128u}) {
      SCOPED_TRACE(testing::Message() << bits << " bits, " << head_rows << " rows");
      const auto values = random_values(bits, 300, 900 + bits);
      const auto head = pushed(bits, {values.begin(), values.begin() + head_rows});
      std::shared_ptr<std::vector<std::uint64_t>> words;
      auto col = borrowed_copy(head, words);
      const std::vector<std::uint64_t> before = *words;
      col.append_strided(values.data() + head_rows, values.size() - head_rows, 1);
      EXPECT_FALSE(col.is_borrowed());
      EXPECT_EQ(*words, before) << "the borrowed buffer was written";
      EXPECT_TRUE(same_words(col, pushed(bits, values)));
    }
  }
}

TEST_F(PackedColumnTest, RowBlockMatchesPerValuePushBack) {
  const auto spec = tiny_spec();
  auto problem = tuner::build_problem(spec, tuner::PipelineOptions::optimized());
  solver::SolutionSet blocked(problem);
  std::vector<solver::PackedColumn> ref;
  for (std::size_t v = 0; v < blocked.num_vars(); ++v) {
    ref.emplace_back(blocked.column(v).bits());
  }
  solver::RowBlock block(blocked);
  util::Rng rng(11);
  std::vector<std::uint32_t> row(problem.num_variables());
  // More than two blocks' worth of rows, so push() flushes mid-stream.
  for (std::size_t i = 0; i < 2 * solver::RowBlock::kRows + 37; ++i) {
    for (std::size_t v = 0; v < row.size(); ++v) {
      row[v] = static_cast<std::uint32_t>(rng.index(problem.domain(v).size()));
      ref[v].push_back(row[v]);
    }
    block.push(row.data());
  }
  block.flush();
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_TRUE(same_words(blocked.column(v), ref[v])) << "var " << v;
  }
}

// ---------------------------------------------------------------------------
// Snapshot round trips
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, RoundTripTinySpace) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("tiny.tss"));
  const auto loaded = searchspace::load_snapshot(spec, path("tiny.tss"));
  expect_identical(fresh, loaded);
  EXPECT_GT(loaded.size(), 0u);
  EXPECT_DOUBLE_EQ(fresh.sparsity(), loaded.sparsity());
}

TEST_F(SnapshotTest, RoundTripSynthetic) {
  const auto synth = spaces::make_synthetic(3, 200000, 3, 7);
  searchspace::SearchSpace fresh(synth.spec);
  searchspace::save_snapshot(fresh, path("synth.tss"));
  expect_identical(fresh,
                   searchspace::load_snapshot(synth.spec, path("synth.tss")));
}

TEST_F(SnapshotTest, RoundTripRealWorldGemm) {
  const auto rw = spaces::gemm();
  searchspace::SearchSpace fresh(rw.spec);
  searchspace::save_snapshot(fresh, path("gemm.tss"));
  expect_identical(fresh,
                   searchspace::load_snapshot(rw.spec, path("gemm.tss")));
}

TEST_F(SnapshotTest, RoundTripRealWorldHotspotShapeVerify) {
  const auto rw = spaces::hotspot();
  searchspace::SearchSpace fresh(rw.spec);
  searchspace::save_snapshot(fresh, path("hotspot.tss"));
  // The fast cache-hit verification level must be just as identical.
  expect_identical(fresh, searchspace::load_snapshot(
                              rw.spec, path("hotspot.tss"),
                              searchspace::SnapshotVerify::kShape));
}

TEST_F(SnapshotTest, RoundTripExplicitMethod) {
  const auto spec = tiny_spec();
  const auto methods = tuner::construction_methods();
  const auto& atf = methods[1];  // ChainOfTrees enumerates in its own order
  ASSERT_EQ(atf.name, "ATF");
  searchspace::SearchSpace fresh(spec, atf);
  searchspace::save_snapshot(fresh, path("atf.tss"));
  expect_identical(fresh,
                   searchspace::load_snapshot(spec, atf, path("atf.tss")));
}

TEST_F(SnapshotTest, SaveOfReloadedSpaceIsByteIdentical) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("a.tss"));
  const auto loaded = searchspace::load_snapshot(spec, path("a.tss"));
  searchspace::save_snapshot(loaded, path("b.tss"));
  std::ifstream fa(path("a.tss"), std::ios::binary);
  std::ifstream fb(path("b.tss"), std::ios::binary);
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  // Only the stored original-construction-seconds stat may differ; mask the
  // simpler way: the files are equal except that one f64 header field.
  std::string bytes_a = sa.str(), bytes_b = sb.str();
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  constexpr std::size_t kConstructionSecondsOffset = 104;  // see io.cpp layout
  for (std::size_t i = 0; i < 8; ++i) {
    bytes_a[kConstructionSecondsOffset + i] = 0;
    bytes_b[kConstructionSecondsOffset + i] = 0;
  }
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST_F(SnapshotTest, SectionChecksumsArePinned) {
  // The columns and the row table are laid out by the packing order and the
  // fixed row-key hash with ascending-row insertion.  These checksums (in
  // section order: domains, columns, row table) were recorded with the
  // row-at-a-time store and index build, the row table's again when format
  // version 3 changed the hash; a build path that moves any of them
  // changes snapshot bytes and needs a kSnapshotFormatVersion bump.  The
  // header's timing fields lie outside every section.
  const searchspace::SearchSpace gemm(spaces::gemm().spec);
  searchspace::save_snapshot(gemm, path("gemm.tss"));
  EXPECT_EQ(section_checksums(path("gemm.tss")),
            "0b8af73d7d5c9c68 aafee37b42583d0f 81dba9b731ad0309");

  const searchspace::SearchSpace generated(testsupport::random_spec(60));
  searchspace::save_snapshot(generated, path("spec_gen-60.tss"));
  EXPECT_EQ(section_checksums(path("spec_gen-60.tss")),
            "e7e1fe799325c3e8 f817ece9a9193dc1 643ccd58e3e14727");
}

// ---------------------------------------------------------------------------
// Row key
// ---------------------------------------------------------------------------

namespace {

/// find() against a brute-force set of the rows: every row finds itself,
/// and random index rows (uniform draws, crossovers of two rows and rows
/// with one value changed) are found exactly when the set holds them, at a
/// row that holds them.
void expect_find_matches_rows(const searchspace::SearchSpace& space,
                              std::uint64_t seed) {
  for (std::size_t r = 0; r < space.size(); ++r) {
    ASSERT_EQ(space.find(space.indices(r)), r) << "row " << r;
  }
  const auto rows = space.solutions().sorted_rows();
  util::Rng rng(seed);
  const auto draw = [&](std::size_t p) {
    return static_cast<std::uint32_t>(rng.index(space.problem().domain(p).size()));
  };
  for (int q = 0; q < 300; ++q) {
    std::vector<std::uint32_t> query(space.num_params());
    if (q % 3 == 0 || space.empty()) {
      for (std::size_t p = 0; p < query.size(); ++p) query[p] = draw(p);
    } else if (q % 3 == 1) {
      const auto a = space.indices(rng.index(space.size()));
      const auto b = space.indices(rng.index(space.size()));
      for (std::size_t p = 0; p < query.size(); ++p) query[p] = rng.chance(0.5) ? a[p] : b[p];
    } else {
      query = space.indices(rng.index(space.size()));
      if (!query.empty()) {
        const std::size_t p = rng.index(query.size());
        query[p] = draw(p);
      }
    }
    const auto found = space.find(query);
    ASSERT_EQ(found.has_value(), std::binary_search(rows.begin(), rows.end(), query))
        << "query " << q;
    if (found) {
      EXPECT_EQ(space.indices(*found), query) << "query " << q;
    }
  }
}

}  // namespace

TEST_F(RowKeyTest, FindMatchesABruteForceSetFreshAndLoaded) {
  // The 8 Table 2 spaces, spec_gen seeds 0-99, and each one's kShape load,
  // which derives the key layout from the loaded column widths.
  std::vector<tuner::TuningProblem> specs;
  for (const auto& rw : spaces::all_realworld()) specs.push_back(rw.spec);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    specs.push_back(testsupport::random_spec(seed));
  }
  ASSERT_EQ(specs.size(), 108u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name());
    const searchspace::SearchSpace fresh(specs[i]);
    expect_find_matches_rows(fresh, i);
    searchspace::save_snapshot(fresh, path("space.tss"));
    const auto loaded = searchspace::load_snapshot(specs[i], path("space.tss"),
                                                   searchspace::SnapshotVerify::kShape);
    expect_find_matches_rows(loaded, i);
  }
}

TEST_F(RowKeyTest, KeysOfTwoWordsAndWidthZeroFields) {
  // Fourteen 17-value parameters are 5 bits each: twelve fill 60 bits of
  // the first key word, and the thirteenth does not fit and starts the
  // second.  The single-valued s0, s1 and s2 are width-0 fields: first,
  // between and last.  p0..p12 are equal and p13 is free: 289 rows.
  tuner::TuningProblem spec("two-words");
  std::vector<std::int64_t> values(17);
  for (std::size_t v = 0; v < values.size(); ++v) values[v] = static_cast<std::int64_t>(v);
  spec.add_param("s0", {7});
  for (int p = 0; p < 14; ++p) {
    spec.add_param("p" + std::to_string(p), values);
    if (p == 6) spec.add_param("s1", {3});
  }
  spec.add_param("s2", {5});
  for (int p = 0; p < 12; ++p) {
    spec.add_constraint("p" + std::to_string(p) + " == p" + std::to_string(p + 1));
  }
  const searchspace::SearchSpace fresh(spec);
  ASSERT_EQ(fresh.size(), 17u * 17u);
  std::size_t key_bits = 0, width_zero = 0;
  for (std::size_t p = 0; p < fresh.num_params(); ++p) {
    key_bits += fresh.solutions().column(p).bits();
    width_zero += fresh.solutions().column(p).bits() == 0 ? 1 : 0;
  }
  ASSERT_EQ(key_bits, 70u);
  ASSERT_EQ(width_zero, 3u);
  searchspace::save_snapshot(fresh, path("two-words.tss"));
  const auto loaded = searchspace::load_snapshot(spec, path("two-words.tss"),
                                                 searchspace::SnapshotVerify::kShape);
  for (const searchspace::SearchSpace* space : {&fresh, &loaded}) {
    expect_find_matches_rows(*space, 3);
    // A value one past its field's width, or far past it, is in no row.
    for (std::size_t r : {std::size_t{0}, space->size() - 1}) {
      for (std::size_t p = 0; p < space->num_params(); ++p) {
        auto query = space->indices(r);
        query[p] = 1u << space->solutions().column(p).bits();
        EXPECT_FALSE(space->find(query)) << "row " << r << ", param " << p;
        query[p] = 0xFFFFFFFFu;
        EXPECT_FALSE(space->find(query)) << "row " << r << ", param " << p;
      }
    }
  }
}

TEST_F(RowKeyTest, OneRowOfSingleValuedParameters) {
  // Every field has width 0, so the key is one word of 0.
  tuner::TuningProblem spec("constants");
  spec.add_param("a", {4}).add_param("b", {2});
  const searchspace::SearchSpace space(spec);
  ASSERT_EQ(space.size(), 1u);
  EXPECT_EQ(space.find({0, 0}), 0u);
  EXPECT_FALSE(space.find({1, 0}));
  EXPECT_FALSE(space.find({0, 1}));
  EXPECT_FALSE(space.find({0}));
}

TEST_F(RowKeyTest, OnePastEveryFieldWidthIsFoundNowhere) {
  for (const auto& rw : spaces::all_realworld()) {
    SCOPED_TRACE(rw.name);
    const searchspace::SearchSpace space(rw.spec);
    const auto row = space.indices(space.size() / 2);
    for (std::size_t p = 0; p < space.num_params(); ++p) {
      auto query = row;
      query[p] = 1u << space.solutions().column(p).bits();
      EXPECT_FALSE(space.find(query)) << space.param_name(p);
    }
  }
}

// ---------------------------------------------------------------------------
// Rejection paths
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, RejectsMissingFile) {
  EXPECT_THROW(searchspace::load_snapshot(tiny_spec(), path("nope.tss")),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsBadMagic) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));
  corrupt_byte(path("s.tss"), 0);
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss")),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsVersionMismatch) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));
  corrupt_byte(path("s.tss"), 8);  // format-version field
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss")),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsWrongFingerprint) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));

  // Same shape, one domain value changed.
  auto other = tuner::TuningProblem("tiny");
  other.add_param("block_size_x", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 2048})
      .add_param("block_size_y", {1, 2, 4, 8, 16, 32})
      .add_param("sh_power", {0, 1});
  other.add_constraint("32 <= block_size_x * block_size_y <= 1024");
  other.add_constraint("sh_power == 0 or block_size_x >= 16");
  EXPECT_THROW(searchspace::load_snapshot(other, path("s.tss")),
               searchspace::SnapshotError);

  // Same spec, different construction method (enumeration order differs).
  const auto methods = tuner::construction_methods();
  EXPECT_THROW(searchspace::load_snapshot(spec, methods[1], path("s.tss")),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsTruncatedFile) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));
  const auto full = fs::file_size(path("s.tss"));
  fs::resize_file(path("s.tss"), full / 2);
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss")),
               searchspace::SnapshotError);
  // Shape-level verification catches truncation too (section bounds).
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss"),
                                          searchspace::SnapshotVerify::kShape),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsCorruptedPayload) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));
  // Flip one byte in the middle of the file (payload sections); the full
  // verification level must detect it via the section checksums.
  corrupt_byte(path("s.tss"), fs::file_size(path("s.tss")) / 2);
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss"),
                                          searchspace::SnapshotVerify::kFull),
               searchspace::SnapshotError);
}

// ---------------------------------------------------------------------------
// load_or_build cache
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, LoadOrBuildPopulatesAndHitsCache) {
  const auto spec = tiny_spec();
  const std::string cache = (dir_ / "cache").string();

  const auto built = searchspace::SearchSpace::load_or_build(spec, cache);
  ASSERT_TRUE(fs::exists(cache));
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(cache)) {
    ++files;
    EXPECT_EQ(e.path().extension(), ".tss");
  }
  EXPECT_EQ(files, 1u);

  const auto reloaded = searchspace::SearchSpace::load_or_build(spec, cache);
  expect_identical(built, reloaded);

  // A different spec gets its own cache entry instead of a false hit.
  auto other = tiny_spec();
  other.add_constraint("block_size_y >= 2");
  const auto other_space = searchspace::SearchSpace::load_or_build(other, cache);
  EXPECT_NE(other_space.fingerprint(), built.fingerprint());
  EXPECT_LT(other_space.size(), built.size());
  files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(cache)) ++files;
  EXPECT_EQ(files, 2u);
}

TEST_F(SnapshotTest, LoadOrBuildRebuildsOnCorruptHeader) {
  const auto spec = tiny_spec();
  const std::string cache = (dir_ / "cache").string();
  const auto built = searchspace::SearchSpace::load_or_build(spec, cache);
  for (const auto& e : fs::directory_iterator(cache)) {
    corrupt_byte(e.path().string(), 0);  // smash the magic
  }
  const auto rebuilt = searchspace::SearchSpace::load_or_build(spec, cache);
  expect_identical(built, rebuilt);

  // A file of an older format version is rebuilt too, and the rebuild
  // rewrites the entry.  Version 1 also stored posting lists; version 2
  // laid the row table out by a per-parameter row hash.
  const tuner::Method method = tuner::optimized_method();
  const std::string entry = searchspace::snapshot_cache_entry(cache, spec, method);
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "version " << version);
    {
      std::fstream f(entry, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(8);  // the format-version field follows the magic
      f.write(reinterpret_cast<const char*>(&version), sizeof version);
    }
    EXPECT_THROW(searchspace::load_snapshot(spec, entry), searchspace::SnapshotError);
    expect_identical(built, searchspace::SearchSpace::load_or_build(spec, cache));
    EXPECT_NO_THROW(searchspace::load_snapshot(spec, entry));
  }
}

TEST_F(SnapshotTest, LoadOrBuildRefusesLambdaSpecs) {
  auto spec = tiny_spec();
  spec.add_constraint({"block_size_x", "block_size_y"},
                      [](std::span<const csp::Value> v) {
                        return v[0].as_int() >= v[1].as_int();
                      },
                      "x >= y");
  const std::string cache = (dir_ / "cache").string();
  const auto space = searchspace::SearchSpace::load_or_build(spec, cache);
  EXPECT_GT(space.size(), 0u);
  // Native lambdas cannot be fingerprinted: nothing may be cached.
  EXPECT_FALSE(fs::exists(cache));
}

// ---------------------------------------------------------------------------
// CSV exactness
// ---------------------------------------------------------------------------

TEST_F(CsvTest, DoublesRoundTripExactly) {
  tuner::TuningProblem spec("reals");
  spec.add_param("alpha", std::vector<csp::Value>{csp::Value(0.1), csp::Value(0.5),
                                                  csp::Value(1.0 / 3.0),
                                                  csp::Value(2.0)});
  spec.add_param("mode", std::vector<csp::Value>{csp::Value("NHWC"),
                                                 csp::Value("NCHW")});
  searchspace::SearchSpace space(spec);
  ASSERT_EQ(space.size(), 8u);

  std::stringstream csv;
  searchspace::write_csv(space, csv);
  const auto rows = searchspace::read_csv(spec, csv);
  ASSERT_EQ(rows.size(), space.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto expect = space.config(r);
    ASSERT_EQ(rows[r].size(), expect.size());
    for (std::size_t p = 0; p < expect.size(); ++p) {
      EXPECT_EQ(rows[r][p], expect[p]) << "row " << r << " param " << p;
      EXPECT_EQ(rows[r][p].kind(), expect[p].kind()) << "canonical kind";
    }
  }
}

TEST_F(CsvTest, QuotedStringsWithCommasRoundTrip) {
  tuner::TuningProblem spec("strs");
  spec.add_param("layout", std::vector<csp::Value>{csp::Value("n,h,w,c"),
                                                   csp::Value("NCHW")});
  spec.add_param("width", {2, 4});
  searchspace::SearchSpace space(spec);
  ASSERT_EQ(space.size(), 4u);

  std::stringstream csv;
  searchspace::write_csv(space, csv);
  const auto rows = searchspace::read_csv(spec, csv);
  ASSERT_EQ(rows.size(), space.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(rows[r], space.config(r)) << "row " << r;
  }
}

TEST_F(CsvTest, WriteIsLocaleIndependent) {
  tuner::TuningProblem spec("reals");
  spec.add_param("alpha", std::vector<csp::Value>{csp::Value(0.5), csp::Value(1.5)});
  searchspace::SearchSpace space(spec);

  std::ostringstream plain;
  searchspace::write_csv(space, plain);

  // A stream imbued with a grouping/comma-decimal locale must produce the
  // same bytes (write_csv pins the classic locale internally).
  struct CommaDecimal : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  std::ostringstream weird;
  weird.imbue(std::locale(std::locale::classic(), new CommaDecimal));
  searchspace::write_csv(space, weird);
  EXPECT_EQ(plain.str(), weird.str());
  EXPECT_NE(plain.str().find("0.5"), std::string::npos);
}

TEST_F(CsvTest, TruncatedRowReportsLine) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace space(spec);
  std::stringstream csv;
  searchspace::write_csv(space, csv);

  // Drop the last cell of the third data row.
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(csv, line)) lines.push_back(line);
  ASSERT_GT(lines.size(), 4u);
  lines[3] = lines[3].substr(0, lines[3].rfind(','));
  std::string mangled;
  for (const auto& l : lines) mangled += l + "\n";

  std::istringstream in(mangled);
  try {
    searchspace::read_csv(spec, in);
    FAIL() << "expected read_csv to reject the truncated row";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
}
