// Error-path coverage for searchspace/io (per-section snapshot corruption,
// header field corruption, out-of-range row ids in a shape-verified
// snapshot, CSV rejection messages) and searchspace/query
// (unknown predicate names in every condition kind, the full behavior of
// empty-selection views).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tunespace/searchspace/io.hpp"
#include "tunespace/searchspace/neighbors.hpp"
#include "tunespace/searchspace/sampling.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/tuner/runner.hpp"
#include "tunespace/tuner/session.hpp"
#include "tunespace/util/rng.hpp"

using namespace tunespace;
using searchspace::SnapshotError;
using searchspace::SnapshotVerify;

namespace {

tuner::TuningProblem tiny_spec() {
  tuner::TuningProblem spec("tiny");
  spec.add_param("a", {1, 2, 4, 8}).add_param("b", {1, 2, 3});
  spec.add_constraint("a * b <= 12");
  return spec;
}

// Binary layout constants of snapshot format version 3 (io.cpp): a
// 112-byte fixed header followed by three 32-byte section-table entries
// {id u32, reserved u32, offset u64, size u64, checksum u64}.
constexpr std::size_t kHeaderBytes = 112;
constexpr std::size_t kSectionEntryBytes = 32;
constexpr std::size_t kSectionCount = 3;

struct TempSnapshot {
  std::string dir = "test_error_paths_scratch";
  std::string path = dir + "/space.tss";
  tuner::TuningProblem spec;

  explicit TempSnapshot(tuner::TuningProblem s = tiny_spec()) : spec(std::move(s)) {
    std::filesystem::create_directories(dir);
    const searchspace::SearchSpace space(spec);
    searchspace::save_snapshot(space, path);
  }
  ~TempSnapshot() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::string bytes() const {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  }
  void write(const std::string& data, const std::string& name = "mutant.tss") {
    std::ofstream os(dir + "/" + name, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  std::string mutant() const { return dir + "/mutant.tss"; }

  std::uint64_t table_u64(const std::string& data, std::size_t section,
                          std::size_t field_offset) const {
    std::uint64_t v = 0;
    std::memcpy(&v, data.data() + kHeaderBytes + section * kSectionEntryBytes +
                        field_offset,
                sizeof v);
    return v;
  }
};

/// Rewrite each of `count` u32 row ids stored from byte `at` of a snapshot
/// image as `rewrite(id)`.
template <typename Rewrite>
void rewrite_u32s(std::string& data, std::uint64_t at, std::uint64_t count,
                  Rewrite rewrite) {
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t id = 0;
    std::memcpy(&id, data.data() + at + 4 * i, sizeof id);
    id = rewrite(id);
    std::memcpy(data.data() + at + 4 * i, &id, sizeof id);
  }
}

/// Rewrite the row-table slots of a snapshot image (section 3: a u64 slot
/// count, then one u32 per slot).
template <typename Rewrite>
void rewrite_row_table(const TempSnapshot& snap, std::string& data, Rewrite rewrite) {
  const std::uint64_t offset = snap.table_u64(data, 2, 8);
  std::uint64_t count = 0;
  std::memcpy(&count, data.data() + offset, sizeof count);
  rewrite_u32s(data, offset + 8, count, rewrite);
}

/// Row `row` of `space` as value indices, the key SearchSpace::find takes.
std::vector<std::uint32_t> index_row(const searchspace::SearchSpace& space,
                                     std::size_t row) {
  std::vector<std::uint32_t> out(space.num_params());
  for (std::size_t p = 0; p < out.size(); ++p) out[p] = space.value_index(row, p);
  return out;
}

}  // namespace

// --- Snapshot corruption, section by section --------------------------------

TEST(SnapshotErrorPaths, EverySectionChecksumEnforcedUnderFullVerify) {
  TempSnapshot snap;
  const std::string original = snap.bytes();
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    const std::uint64_t offset = snap.table_u64(original, s, 8);
    const std::uint64_t size = snap.table_u64(original, s, 16);
    ASSERT_GT(size, 0u) << "section " << s + 1;
    std::string corrupt = original;
    corrupt[offset] ^= 0x2A;  // flip bits inside the section payload
    snap.write(corrupt);
    EXPECT_THROW(searchspace::load_snapshot(snap.spec, snap.mutant(),
                                            SnapshotVerify::kFull),
                 SnapshotError)
        << "section " << s + 1 << " corruption undetected";
  }
}

TEST(SnapshotErrorPaths, DomainsCorruptionCaughtEvenAtShapeLevel) {
  TempSnapshot snap;
  std::string corrupt = snap.bytes();
  corrupt[snap.table_u64(corrupt, 0, 8)] ^= 0x01;  // section 1 = domains
  snap.write(corrupt);
  EXPECT_THROW(searchspace::load_snapshot(snap.spec, snap.mutant(),
                                          SnapshotVerify::kShape),
               SnapshotError);
}

TEST(SnapshotErrorPaths, SectionTableOutOfBoundsRejected) {
  TempSnapshot snap;
  std::string corrupt = snap.bytes();
  const std::uint64_t huge = corrupt.size() * 2;
  std::memcpy(corrupt.data() + kHeaderBytes + 16, &huge, sizeof huge);  // size
  snap.write(corrupt);
  EXPECT_THROW(searchspace::load_snapshot(snap.spec, snap.mutant(),
                                          SnapshotVerify::kShape),
               SnapshotError);
}

TEST(SnapshotErrorPaths, MisalignedSectionOffsetRejected) {
  TempSnapshot snap;
  std::string corrupt = snap.bytes();
  std::uint64_t offset = snap.table_u64(corrupt, 1, 8) + 4;  // break 8-alignment
  std::memcpy(corrupt.data() + kHeaderBytes + kSectionEntryBytes + 8, &offset,
              sizeof offset);
  snap.write(corrupt);
  EXPECT_THROW(searchspace::load_snapshot(snap.spec, snap.mutant(),
                                          SnapshotVerify::kShape),
               SnapshotError);
}

TEST(SnapshotErrorPaths, CorruptSectionIdRejected) {
  TempSnapshot snap;
  std::string corrupt = snap.bytes();
  corrupt[kHeaderBytes] = 9;  // section ids must be 1..3 in order
  snap.write(corrupt);
  EXPECT_THROW(searchspace::load_snapshot(snap.spec, snap.mutant(),
                                          SnapshotVerify::kShape),
               SnapshotError);
}

TEST(SnapshotErrorPaths, ForeignEndiannessRejected) {
  TempSnapshot snap;
  std::string corrupt = snap.bytes();
  corrupt[12] ^= 0xFF;  // the endianness tag follows magic + version
  snap.write(corrupt);
  EXPECT_THROW(searchspace::load_snapshot(snap.spec, snap.mutant(),
                                          SnapshotVerify::kShape),
               SnapshotError);
}

TEST(SnapshotErrorPaths, ParamCountMismatchRejected) {
  TempSnapshot snap;
  std::string corrupt = snap.bytes();
  corrupt[24] ^= 0x01;  // #params field (offset 24: magic+ver+endian+fp)
  snap.write(corrupt);
  EXPECT_THROW(searchspace::load_snapshot(snap.spec, snap.mutant(),
                                          SnapshotVerify::kShape),
               SnapshotError);
}

TEST(SnapshotErrorPaths, LoadOrBuildFallsBackToAFreshBuildOnCorruption) {
  TempSnapshot snap;
  const searchspace::SearchSpace reference(snap.spec);
  // Replace the cache entry with a corrupted copy (domains flipped so even
  // the shape-level cache load detects it).
  const std::string entry = searchspace::snapshot_cache_entry(
      snap.dir, snap.spec, tuner::optimized_method());
  std::string corrupt = snap.bytes();
  corrupt[snap.table_u64(corrupt, 0, 8)] ^= 0x01;
  {
    std::ofstream os(entry, std::ios::binary | std::ios::trunc);
    os.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  const auto rebuilt =
      searchspace::SearchSpace::load_or_build(snap.spec, snap.dir);
  EXPECT_EQ(rebuilt.size(), reference.size());
  EXPECT_TRUE(rebuilt.solutions().same_solutions(reference.solutions()));
  // The rebuild repaired the cache entry: the next load is a clean hit.
  EXPECT_NO_THROW(searchspace::load_snapshot(snap.spec, entry,
                                             SnapshotVerify::kFull));
}

// --- Row ids a shape-verified snapshot does not check -------------------------
// SnapshotVerify::kShape borrows the row table without a pass over it (that
// pass would cost more than the load), so its reader range-checks the ids
// it takes from it.

TEST(SnapshotErrorPaths, OutOfRangeRowTableSlotsAreRejectedWhereRead) {
  TempSnapshot snap(spaces::dedispersion().spec);
  std::string corrupt = snap.bytes();
  std::size_t occupied = 0;
  rewrite_row_table(snap, corrupt, [&](std::uint32_t slot) {
    if (slot == 0xFFFFFFFFu) return slot;  // an empty slot
    ++occupied;
    return 0x7FFFFFF0u;
  });
  snap.write(corrupt);
  EXPECT_THROW(searchspace::load_snapshot(snap.spec, snap.mutant(),
                                          SnapshotVerify::kFull),
               SnapshotError);

  const auto loaded = searchspace::load_snapshot(snap.spec, snap.mutant(),
                                                 SnapshotVerify::kShape);
  EXPECT_EQ(occupied, loaded.size());
  const std::vector<std::uint32_t> first = index_row(loaded, 0);
  EXPECT_THROW(loaded.find(first), SnapshotError);
  const searchspace::SubSpace view(loaded);
  EXPECT_THROW(view.find(first), SnapshotError);
  EXPECT_THROW(searchspace::snap_to_valid(view, first), SnapshotError);
}

TEST(SnapshotErrorPaths, RowTableWithoutAnEmptySlotEndsTheProbe) {
  TempSnapshot snap;
  std::string corrupt = snap.bytes();
  rewrite_row_table(snap, corrupt, [](std::uint32_t) { return 0u; });
  snap.write(corrupt);
  const auto loaded = searchspace::load_snapshot(snap.spec, snap.mutant(),
                                                 SnapshotVerify::kShape);
  ASSERT_GT(loaded.size(), 1u);
  // Row 0 is in every slot: its own key still hits, any other key would
  // probe forever without the one-lap bound.
  EXPECT_EQ(loaded.find(index_row(loaded, 0)), 0u);
  EXPECT_THROW(loaded.find(index_row(loaded, 1)), SnapshotError);
}

// --- Packed codes a shape-verified snapshot does not check ---------------------
// kShape borrows the packed columns too.  A code at or above its domain's
// size is representable whenever the size is not a power of two, so the
// paths that turn codes into domain positions or index per-value tables
// with them check them there.

/// The tiny spec's snapshot with column b's first word set to all ones:
/// a in {1,2,4,8}, b in {1,2,3}, so b's codes take 2 bits and every one of
/// them reads 3, one past "3".
struct OutOfDomainSnapshot : TempSnapshot {
  OutOfDomainSnapshot() {
    std::string corrupt = bytes();
    const std::uint64_t columns = table_u64(corrupt, 1, 8);
    std::uint64_t a_words = 0;
    std::memcpy(&a_words, corrupt.data() + columns + 8, sizeof a_words);
    const std::uint64_t ones = ~std::uint64_t{0};
    std::memcpy(corrupt.data() + columns + 16 * 2 + a_words * 8, &ones, sizeof ones);
    write(corrupt);
  }
};

TEST(SnapshotErrorPaths, OutOfDomainPackedCodesAreRejectedWhereTheyIndexTables) {
  OutOfDomainSnapshot snap;
  EXPECT_THROW(searchspace::load_snapshot(snap.spec, snap.mutant(),
                                          SnapshotVerify::kFull),
               SnapshotError);

  const auto loaded = searchspace::load_snapshot(snap.spec, snap.mutant(),
                                                 SnapshotVerify::kShape);
  // Restricting derives the summary, which checks every code: on a whole
  // view, and on a chained one (restricting an empty view made without
  // it).
  const searchspace::SubSpace whole(loaded);
  EXPECT_THROW(whole.restrict(searchspace::query::eq("a", 1)), SnapshotError);
  const searchspace::SubSpace empty = whole.restrict(searchspace::query::eq("a", 64));
  ASSERT_TRUE(empty.empty());
  EXPECT_THROW(empty.restrict(searchspace::query::eq("a", 1)), SnapshotError);
  EXPECT_THROW(whole.present_values(1), SnapshotError);
  // A whole-view snap miss (a = 8, b = 3) derives the summary too.
  EXPECT_THROW(searchspace::snap_to_valid(whole, {3, 2}), SnapshotError);
}

TEST(SnapshotErrorPaths, OutOfDomainPackedCodesAreRejectedWhereTheyBecomeValues) {
  OutOfDomainSnapshot snap;
  const auto loaded = searchspace::load_snapshot(snap.spec, snap.mutant(),
                                                 SnapshotVerify::kShape);
  EXPECT_NO_THROW(loaded.value(0, 0));
  EXPECT_THROW(loaded.value(0, 1), SnapshotError);
  EXPECT_THROW(loaded.config(0), SnapshotError);
  std::ostringstream os;
  EXPECT_THROW(searchspace::write_csv(loaded, os), SnapshotError);
}

// --- CSV rejection messages --------------------------------------------------

TEST(CsvErrorPaths, HeaderMismatchesAreNamed) {
  const auto spec = tiny_spec();
  std::istringstream wrong_arity("a\n1\n");
  EXPECT_THROW(searchspace::read_csv(spec, wrong_arity), std::runtime_error);
  std::istringstream wrong_name("a,wrong\n1,1\n");
  try {
    searchspace::read_csv(spec, wrong_name);
    FAIL() << "header mismatch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("header mismatch"), std::string::npos);
  }
  std::istringstream empty("");
  EXPECT_THROW(searchspace::read_csv(spec, empty), std::runtime_error);
}

TEST(CsvErrorPaths, OverlongRowAndForeignValueAreNamedWithTheirLine) {
  const auto spec = tiny_spec();
  std::istringstream overlong("a,b\n1,1,1\n");
  try {
    searchspace::read_csv(spec, overlong);
    FAIL() << "over-long row accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  std::istringstream foreign("a,b\n1,7\n");  // 7 is not in b's domain
  try {
    searchspace::read_csv(spec, foreign);
    FAIL() << "foreign value accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not in domain"), std::string::npos);
    EXPECT_NE(what.find("b"), std::string::npos);
  }
  std::istringstream malformed("a,b\n1,zzz\n");
  EXPECT_THROW(searchspace::read_csv(spec, malformed), std::runtime_error);
}

TEST(CsvErrorPaths, UnwritablePathThrows) {
  const searchspace::SearchSpace space(tiny_spec());
  EXPECT_THROW(
      searchspace::write_csv(space, "definitely_missing_dir/out.csv"),
      std::runtime_error);
}

// --- Unknown predicate names -------------------------------------------------

TEST(QueryErrorPaths, UnknownParameterNamesThrowInEveryConditionKind) {
  const searchspace::SearchSpace space(tiny_spec());
  const auto expect_unknown = [&](const searchspace::query::Predicate& pred) {
    EXPECT_THROW(searchspace::query::compile(pred, space.problem()),
                 std::out_of_range);
    EXPECT_THROW(searchspace::SubSpace(space).restrict(pred), std::out_of_range);
  };
  expect_unknown(searchspace::query::eq("nope", csp::Value(1)));
  expect_unknown(searchspace::query::in_set("nope", {csp::Value(1)}));
  expect_unknown(
      searchspace::query::between("nope", csp::Value(1), csp::Value(2)));
  // A single unknown name poisons a conjunction even when the other
  // conjuncts are valid.
  expect_unknown(searchspace::query::eq("a", csp::Value(1)) &&
                 searchspace::query::eq("nope", csp::Value(1)));
}

// --- Empty-selection views ---------------------------------------------------

TEST(EmptyViewBehavior, AllAccessorsAreWellDefined) {
  const searchspace::SearchSpace space(tiny_spec());
  const auto empty = searchspace::SubSpace(space).restrict(
      searchspace::query::eq("a", csp::Value(64)));  // value not in domain
  ASSERT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.is_whole());
  EXPECT_TRUE(empty.selection().empty());
  EXPECT_TRUE(empty.top_rows(10).empty());
  EXPECT_FALSE(empty.local_of(0).has_value());
  EXPECT_FALSE(empty.find({0, 0}).has_value());
  for (std::size_t p = 0; p < empty.num_params(); ++p) {
    EXPECT_TRUE(empty.present_values(p).empty());
    EXPECT_TRUE(empty.project(p).empty());
  }
}

TEST(EmptyViewBehavior, RestrictingAnEmptyViewStaysEmpty) {
  const searchspace::SearchSpace space(tiny_spec());
  const auto empty = searchspace::SubSpace(space).restrict(
      searchspace::query::eq("a", csp::Value(64)));
  searchspace::query::QueryStats stats;
  const auto narrower =
      empty.restrict(searchspace::query::eq("b", csp::Value(1)), &stats);
  EXPECT_TRUE(narrower.empty());
  EXPECT_EQ(stats.rows_out, 0u);
  EXPECT_EQ(stats.candidate_rows, 0u);
}

TEST(EmptyViewBehavior, SamplingAndTuningOverAnEmptyViewAreNoOps) {
  const searchspace::SearchSpace space(tiny_spec());
  const auto empty = searchspace::SubSpace(space).restrict(
      searchspace::query::eq("a", csp::Value(64)));
  util::Rng rng(1);
  EXPECT_TRUE(searchspace::random_sample(empty, 0, rng).empty());

  tuner::RandomSearch rs;
  tuner::HotspotModel model;
  tuner::TuningOptions options;
  options.budget_seconds = 50.0;
  const auto run =
      tuner::run_session(tuner::make_session_request(empty, model, rs, options));
  EXPECT_EQ(run.evaluations, 0u);
  EXPECT_TRUE(run.trajectory.empty());
  EXPECT_EQ(run.best_gflops, 0.0);
}
