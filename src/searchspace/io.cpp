#include "tunespace/searchspace/io.hpp"

#include <bit>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <locale>
#include <span>
#include <sstream>
#include <vector>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "tunespace/util/timer.hpp"
#include "util/atomic_file.hpp"

namespace tunespace::searchspace {

using csp::Value;

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

namespace {

std::string render(const Value& v) {
  if (v.is_real()) {
    // Shortest form that round-trips exactly, '.'-separated regardless of
    // the global locale (std::to_chars is locale-independent by spec).
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v.as_real());
    return std::string(buf, res.ptr);
  }
  // to_string renders ints bare, bools as True/False and strings quoted
  // ('abc') — all locale-independent and unambiguous to parse back.
  return v.to_string();
}

Value parse_cell(const std::string& cell) {
  if (cell.empty()) throw std::runtime_error("empty CSV cell");
  if (cell.front() == '\'') {
    if (cell.size() < 2 || cell.back() != '\'') {
      throw std::runtime_error("malformed string cell: " + cell);
    }
    return Value(cell.substr(1, cell.size() - 2));
  }
  if (cell == "True") return Value(true);
  if (cell == "False") return Value(false);
  // Locale-independent numeric parsing: a full-width integer match wins,
  // otherwise a full-width double match (std::from_chars, exact).
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  std::int64_t i = 0;
  const auto ri = std::from_chars(begin, end, i);
  if (ri.ec == std::errc() && ri.ptr == end) return Value(i);
  double d = 0;
  const auto rd = std::from_chars(begin, end, d);
  if (rd.ec == std::errc() && rd.ptr == end) return Value(d);
  throw std::runtime_error("malformed CSV cell: " + cell);
}

std::vector<std::string> split_line(const std::string& line) {
  // Comma split, except that commas inside a single-quoted cell belong to
  // the cell — write_csv renders string values quoted, so a string domain
  // value containing ',' still round-trips.  A quote only closes the cell
  // when followed by a comma or end of line, so interior quotes ("it's")
  // survive too; the one unrepresentable shape is a string containing
  // quote-comma ("',") itself.
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == ',' && !in_quotes) {
      cells.push_back(std::move(cell));
      cell.clear();
      continue;
    }
    if (c == '\'') {
      if (cell.empty() && !in_quotes) {
        in_quotes = true;
      } else if (in_quotes && (i + 1 == line.size() || line[i + 1] == ',')) {
        in_quotes = false;
      }
    }
    cell.push_back(c);
  }
  if (!cell.empty() || !cells.empty()) cells.push_back(std::move(cell));
  return cells;
}

}  // namespace

namespace {

/// Restores a stream's locale on scope exit, so an exception mid-write
/// cannot leave the caller's stream permanently re-imbued.
class LocaleGuard {
 public:
  LocaleGuard(std::ostream& os, const std::locale& locale)
      : os_(os), prev_(os.imbue(locale)) {}
  ~LocaleGuard() { os_.imbue(prev_); }
  LocaleGuard(const LocaleGuard&) = delete;
  LocaleGuard& operator=(const LocaleGuard&) = delete;

 private:
  std::ostream& os_;
  std::locale prev_;
};

}  // namespace

void write_csv(const SearchSpace& space, std::ostream& os) {
  // Guard against a user-imbued locale injecting grouping or decimal
  // characters; the caller's locale is restored on exit.
  const LocaleGuard guard(os, std::locale::classic());
  for (std::size_t p = 0; p < space.num_params(); ++p) {
    if (p) os << ',';
    os << space.param_name(p);
  }
  os << '\n';
  for (std::size_t r = 0; r < space.size(); ++r) {
    for (std::size_t p = 0; p < space.num_params(); ++p) {
      if (p) os << ',';
      os << render(space.value(r, p));
    }
    os << '\n';
  }
}

void write_csv(const SearchSpace& space, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open for writing: " + path);
  write_csv(space, file);
}

std::vector<csp::Config> read_csv(const tuner::TuningProblem& spec,
                                  std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) throw std::runtime_error("empty CSV");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const auto header = split_line(line);
  if (header.size() != spec.num_params()) {
    throw std::runtime_error("CSV header arity mismatch");
  }
  for (std::size_t p = 0; p < header.size(); ++p) {
    if (header[p] != spec.params()[p].name) {
      throw std::runtime_error("CSV header mismatch at column " +
                               std::to_string(p) + ": " + header[p]);
    }
  }
  std::vector<csp::Config> rows;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto cells = split_line(line);
    if (cells.size() != spec.num_params()) {
      throw std::runtime_error(
          "CSV line " + std::to_string(line_no) + ": expected " +
          std::to_string(spec.num_params()) + " cells but found " +
          std::to_string(cells.size()) +
          (cells.size() < spec.num_params() ? " (truncated row?)" : ""));
    }
    csp::Config config;
    config.reserve(cells.size());
    for (std::size_t p = 0; p < cells.size(); ++p) {
      const Value v = parse_cell(cells[p]);
      // Validate against the declared domain and canonicalize the kind
      // (e.g. "2" written for the double 2.0 resolves back to 2.0).
      const Value* match = nullptr;
      for (const Value& dv : spec.params()[p].values) {
        if (dv == v) {
          match = &dv;
          break;
        }
      }
      if (!match) {
        throw std::runtime_error("CSV line " + std::to_string(line_no) +
                                 ": value not in domain of " +
                                 spec.params()[p].name + ": " + cells[p]);
      }
      config.push_back(*match);
    }
    rows.push_back(std::move(config));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Binary snapshots
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'T', 'S', 'S', 'N', 'A', 'P', '\0', '\0'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint32_t kSectionCount = 3;
constexpr std::uint32_t kSectionDomains = 1;
constexpr std::uint32_t kSectionColumns = 2;
constexpr std::uint32_t kSectionRowIndex = 3;
// magic + version + endian + fingerprint + params + sections + rows +
// stats(5x u64 + 2x u32 + 2x f64) + construction seconds.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4 + 4 + 8 + 64 + 8;
constexpr std::size_t kSectionEntryBytes = 4 + 4 + 8 + 8 + 8;

/// Four interleaved FNV-1a chains over 64-bit words (word w feeds chain
/// w % 4), folded together at the end.  The interleave hides the multiply
/// latency, so a full-verification pass runs at memory bandwidth instead of
/// one multiply per word — the checksum is the dominant CPU cost of a kFull
/// reload.  Streamable: update() may be called repeatedly with 8-byte
/// multiples (every snapshot piece is 8-aligned), which lets save_snapshot
/// checksum the packed columns and indexes in place instead of copying them
/// into a staging buffer first.
class Checksum {
 public:
  void update(const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    bytes_ += n;
    if (carry_len_ > 0) {
      while (carry_len_ < 8 && n > 0) {
        carry_[carry_len_++] = *p++;
        --n;
      }
      if (carry_len_ < 8) return;
      word(read64(carry_));
      carry_len_ = 0;
    }
    std::size_t i = 0;
    // Realign to a 4-word phase boundary, then run the unrolled block loop.
    for (; i + 8 <= n && (words_ & 3) != 0; i += 8) word(read64(p + i));
    for (; i + 32 <= n; i += 32) {
      std::uint64_t lane[4];
      std::memcpy(lane, p + i, 32);
      h_[0] = (h_[0] ^ lane[0]) * kPrime;
      h_[1] = (h_[1] ^ lane[1]) * kPrime;
      h_[2] = (h_[2] ^ lane[2]) * kPrime;
      h_[3] = (h_[3] ^ lane[3]) * kPrime;
      words_ += 4;
    }
    for (; i + 8 <= n; i += 8) word(read64(p + i));
    while (i < n) carry_[carry_len_++] = p[i++];
  }
  std::uint64_t finish() {
    if (carry_len_ > 0) {  // flush a zero-padded final word (defensive:
      while (carry_len_ < 8) carry_[carry_len_++] = 0;  // sections are
      word(read64(carry_));                             // 8-aligned)
      carry_len_ = 0;
    }
    std::uint64_t h = (h_[0] ^ h_[1]) * kPrime;
    h = (h ^ h_[2]) * kPrime;
    h = (h ^ h_[3]) * kPrime;
    return h ^ bytes_;
  }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  static std::uint64_t read64(const char* p) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  }
  void word(std::uint64_t v) {
    h_[words_ & 3] = (h_[words_ & 3] ^ v) * kPrime;
    ++words_;
  }
  std::uint64_t h_[4] = {0xCBF29CE484222325ULL, 0x9E3779B97F4A7C15ULL,
                         0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL};
  std::uint64_t words_ = 0;
  std::uint64_t bytes_ = 0;
  char carry_[8] = {};
  unsigned carry_len_ = 0;
};

std::uint64_t checksum64(const char* p, std::size_t n) {
  Checksum c;
  c.update(p, n);
  return c.finish();
}

/// A read-only view of a whole snapshot file, memory-mapped where the
/// platform allows (the zero-copy path: loaded sections are used in place
/// and pages fault in on demand) with a heap-read fallback elsewhere.
struct FileView {
  const char* data = nullptr;
  std::size_t size = 0;
#if !defined(_WIN32)
  void* mapping = nullptr;
#endif
  std::vector<char> heap;
  ~FileView() {
#if !defined(_WIN32)
    if (mapping) ::munmap(mapping, size);
#endif
  }
};

std::shared_ptr<FileView> map_file(const std::string& path) {
  auto view = std::make_shared<FileView>();
#if !defined(_WIN32)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw SnapshotError("cannot open snapshot: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw SnapshotError("cannot stat snapshot: " + path);
  }
  view->size = static_cast<std::size_t>(st.st_size);
  if (view->size > 0) {
    void* mapping = ::mmap(nullptr, view->size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (mapping == MAP_FAILED) {
      throw SnapshotError("cannot map snapshot: " + path);
    }
    view->mapping = mapping;
    view->data = static_cast<const char*>(mapping);
  } else {
    ::close(fd);
  }
#else
  std::ifstream file(path, std::ios::binary);
  if (!file) throw SnapshotError("cannot open snapshot: " + path);
  file.seekg(0, std::ios::end);
  const std::streamoff len = file.tellg();
  if (len < 0) throw SnapshotError("cannot stat snapshot: " + path);
  view->heap.resize(static_cast<std::size_t>(len));
  file.seekg(0, std::ios::beg);
  file.read(view->heap.data(), len);
  if (!file) throw SnapshotError("short read on snapshot: " + path);
  view->data = view->heap.data();
  view->size = view->heap.size();
#endif
  return view;
}

struct Buf {
  std::string out;
  void bytes(const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u32(std::uint32_t v) { bytes(&v, 4); }
  void u64(std::uint64_t v) { bytes(&v, 8); }
  void f64(double v) { bytes(&v, 8); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void pad8() {
    while (out.size() % 8) out.push_back('\0');
  }
};

struct Reader {
  const char* base;
  std::size_t size;
  std::size_t pos = 0;
  void need(std::size_t n) const {
    if (pos + n > size) throw SnapshotError("snapshot truncated");
  }
  void bytes(void* p, std::size_t n) {
    need(n);
    std::memcpy(p, base + pos, n);
    pos += n;
  }
  std::uint8_t u8() {
    std::uint8_t v;
    bytes(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    bytes(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    bytes(&v, 8);
    return v;
  }
  double f64() {
    double v;
    bytes(&v, 8);
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(base + pos, len);
    pos += len;
    return s;
  }
};

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void encode_value(Buf& b, const Value& v) {
  b.u8(static_cast<std::uint8_t>(v.kind()));
  switch (v.kind()) {
    case csp::ValueKind::Int:
      b.u64(static_cast<std::uint64_t>(v.as_int()));
      break;
    case csp::ValueKind::Real:
      b.f64(v.as_real());
      break;
    case csp::ValueKind::Bool:
      b.u8(v.truthy() ? 1 : 0);
      break;
    case csp::ValueKind::Str:
      b.str(v.as_str());
      break;
  }
}

Value decode_value(Reader& r) {
  switch (static_cast<csp::ValueKind>(r.u8())) {
    case csp::ValueKind::Int:
      return Value(static_cast<std::int64_t>(r.u64()));
    case csp::ValueKind::Real:
      return Value(r.f64());
    case csp::ValueKind::Bool:
      return Value(r.u8() != 0);
    case csp::ValueKind::Str:
      return Value(r.str());
  }
  throw SnapshotError("snapshot domain value has unknown kind tag");
}

/// Cache file name: sanitized spec name + fingerprint, so the directory is
/// human-browsable while collisions are impossible across specs/methods.
std::string snapshot_cache_path(const std::string& cache_dir,
                                const std::string& spec_name,
                                std::uint64_t fingerprint) {
  std::string name = spec_name.empty() ? "space" : spec_name;
  for (char& c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!keep) c = '_';
  }
  return cache_dir + "/" + name + "-" + hex16(fingerprint) + ".tss";
}

}  // namespace

void save_snapshot(const SearchSpace& space, const std::string& path) {
  const std::size_t d = space.num_params();
  const std::size_t n = space.size();

  // Sections are assembled as lists of (pointer, size) pieces so the bulk
  // payloads — packed column words and the row table — are checksummed and
  // written straight from the live space instead of being copied into
  // staging buffers (which would briefly double the resolved space's memory
  // footprint).  Only the small headers are staged.
  struct Piece {
    const void* data;
    std::size_t size;
  };
  static constexpr char kZeros[8] = {};

  Buf domains;
  for (std::size_t p = 0; p < d; ++p) {
    const csp::Domain& domain = space.problem().domain(p);
    domains.str(space.param_name(p));
    domains.u64(domain.size());
    for (const Value& v : domain.values()) encode_value(domains, v);
  }
  domains.pad8();

  Buf col_headers;
  for (std::size_t p = 0; p < d; ++p) {
    const solver::PackedColumn& col = space.solutions().column(p);
    col_headers.u32(col.bits());
    col_headers.u32(0);
    col_headers.u64(col.word_count());
  }

  Buf rowindex_header;
  rowindex_header.u64(space.hash_table_.size());

  std::vector<Piece> pieces[kSectionCount];
  pieces[kSectionDomains - 1] = {{domains.out.data(), domains.out.size()}};

  auto& columns = pieces[kSectionColumns - 1];
  columns.push_back({col_headers.out.data(), col_headers.out.size()});
  for (std::size_t p = 0; p < d; ++p) {
    const solver::PackedColumn& col = space.solutions().column(p);
    if (col.word_count() > 0) {
      columns.push_back({col.words(), col.word_count() * sizeof(std::uint64_t)});
    }
  }

  auto& rowindex = pieces[kSectionRowIndex - 1];
  rowindex.push_back({rowindex_header.out.data(), rowindex_header.out.size()});
  if (!space.hash_table_.empty()) {
    rowindex.push_back({space.hash_table_.data(),
                        space.hash_table_.size() * sizeof(std::uint32_t)});
  }

  // Pad every section to the 8-byte alignment the loader requires.
  std::uint64_t sizes[kSectionCount];
  std::uint64_t sums[kSectionCount];
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    std::size_t total = 0;
    for (const Piece& piece : pieces[s]) total += piece.size;
    if (total % 8 != 0) pieces[s].push_back({kZeros, 8 - total % 8});
    Checksum checksum;
    sizes[s] = 0;
    for (const Piece& piece : pieces[s]) {
      checksum.update(piece.data, piece.size);
      sizes[s] += piece.size;
    }
    sums[s] = checksum.finish();
  }

  Buf header;
  header.bytes(kMagic, 8);
  header.u32(kSnapshotFormatVersion);
  header.u32(kEndianTag);
  header.u64(space.fingerprint_);
  header.u32(static_cast<std::uint32_t>(d));
  header.u32(kSectionCount);
  header.u64(n);
  header.u64(space.stats_.nodes);
  header.u64(space.stats_.constraint_checks);
  header.u64(space.stats_.fast_checks);
  header.u64(space.stats_.prunes);
  header.u64(space.stats_.parallel_tasks);
  header.u32(space.stats_.parallel_workers);
  header.u32(0);
  header.f64(space.stats_.preprocess_seconds);
  header.f64(space.stats_.search_seconds);
  header.f64(space.construction_seconds_);

  std::uint64_t offset = kHeaderBytes + kSectionCount * kSectionEntryBytes;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    header.u32(static_cast<std::uint32_t>(s + 1));  // section ids are 1-based
    header.u32(0);
    header.u64(offset);
    header.u64(sizes[s]);
    header.u64(sums[s]);
    offset += sizes[s];
  }

  // Concurrent processes missing the same cache entry each write their own
  // temp file; the rename publishes whichever finishes last, atomically.
  std::vector<std::span<const char>> bytes{{header.out.data(), header.out.size()}};
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    for (const Piece& piece : pieces[s]) {
      bytes.push_back({static_cast<const char*>(piece.data), piece.size});
    }
  }
  util::write_file_atomically(path, bytes);
}

SearchSpace load_snapshot(const tuner::TuningProblem& spec,
                          const tuner::Method& method, const std::string& path,
                          SnapshotVerify verify) {
  util::WallTimer timer;
  const std::shared_ptr<FileView> buffer = map_file(path);

  Reader r{buffer->data, buffer->size};
  char magic[8];
  r.bytes(magic, 8);
  if (std::memcmp(magic, kMagic, 8) != 0) {
    throw SnapshotError("not a tunespace snapshot: " + path);
  }
  const std::uint32_t version = r.u32();
  if (version != kSnapshotFormatVersion) {
    throw SnapshotError("snapshot format version " + std::to_string(version) +
                        " unsupported (this build reads version " +
                        std::to_string(kSnapshotFormatVersion) + "): " + path);
  }
  if (r.u32() != kEndianTag) {
    throw SnapshotError("snapshot was written with a different byte order: " +
                        path);
  }
  const std::uint64_t fingerprint = r.u64();
  const std::uint64_t expected = tuner::spec_fingerprint(spec, method);
  if (fingerprint != expected) {
    throw SnapshotError("snapshot fingerprint " + hex16(fingerprint) +
                        " does not match spec+method fingerprint " +
                        hex16(expected) + ": " + path);
  }
  const std::uint32_t d = r.u32();
  if (d != spec.num_params()) {
    throw SnapshotError("snapshot parameter count mismatch: " + path);
  }
  if (r.u32() != kSectionCount) {
    throw SnapshotError("snapshot section count mismatch: " + path);
  }
  const std::uint64_t n64 = r.u64();
  if (d == 0 && n64 != 0) {
    throw SnapshotError("snapshot claims rows without parameters: " + path);
  }
  if (n64 >= 0xFFFFFFFFull) {
    throw SnapshotError("snapshot row count out of range: " + path);
  }
  const std::size_t n = static_cast<std::size_t>(n64);

  solver::SolveStats stats;
  stats.nodes = r.u64();
  stats.constraint_checks = r.u64();
  stats.fast_checks = r.u64();
  stats.prunes = r.u64();
  stats.parallel_tasks = r.u64();
  stats.parallel_workers = r.u32();
  r.u32();  // reserved
  stats.preprocess_seconds = r.f64();
  stats.search_seconds = r.f64();
  r.f64();  // original construction seconds (reported stat only)

  struct Section {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };
  Section sections[kSectionCount];
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    const std::uint32_t id = r.u32();
    r.u32();  // reserved
    const std::uint64_t offset = r.u64();
    const std::uint64_t size = r.u64();
    const std::uint64_t sum = r.u64();
    if (id != s + 1) throw SnapshotError("snapshot section table corrupt: " + path);
    if (offset % 8 != 0 || size % 8 != 0 || offset > buffer->size ||
        size > buffer->size - offset) {
      throw SnapshotError("snapshot section out of bounds: " + path);
    }
    // The domains section is tiny and anchors the whole file, so its
    // checksum is always streamed; the bulk payload sections are streamed
    // only under kFull (kShape trusts the atomically-written cache and
    // keeps the zero-copy reload at microseconds).
    if ((verify == SnapshotVerify::kFull || id == kSectionDomains) &&
        checksum64(buffer->data + offset, static_cast<std::size_t>(size)) != sum) {
      throw SnapshotError("snapshot section " + std::to_string(id) +
                          " checksum mismatch (corrupt file): " + path);
    }
    sections[s] = Section{offset, size};
  }

  SearchSpace space;
  space.problem_ = tuner::build_problem(spec, method.pipeline);
  space.fingerprint_ = fingerprint;
  space.stats_ = stats;

  // --- Domains: must match the problem built from the requested spec.
  {
    const Section& sec = sections[kSectionDomains - 1];
    Reader dr{buffer->data + sec.offset, static_cast<std::size_t>(sec.size)};
    for (std::size_t p = 0; p < d; ++p) {
      if (dr.str() != space.problem_.name(p)) {
        throw SnapshotError("snapshot parameter name mismatch: " + path);
      }
      const std::uint64_t count = dr.u64();
      const csp::Domain& domain = space.problem_.domain(p);
      if (count != domain.size()) {
        throw SnapshotError("snapshot domain size mismatch: " + path);
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        if (decode_value(dr) != domain[static_cast<std::size_t>(i)]) {
          throw SnapshotError("snapshot domain value mismatch: " + path);
        }
      }
    }
  }

  // --- Columns: borrow the packed words straight out of the buffer.
  {
    const Section& sec = sections[kSectionColumns - 1];
    Reader cr{buffer->data + sec.offset, static_cast<std::size_t>(sec.size)};
    std::vector<unsigned> bits(d);
    std::vector<std::uint64_t> word_counts(d);
    std::uint64_t total_words = 0;
    for (std::size_t p = 0; p < d; ++p) {
      bits[p] = cr.u32();
      cr.u32();  // reserved
      word_counts[p] = cr.u64();
      const unsigned expect_bits = solver::PackedColumn::bits_for_domain(
          space.problem_.domain(p).size());
      if (bits[p] != expect_bits) {
        throw SnapshotError("snapshot column width mismatch: " + path);
      }
      const std::uint64_t expect_words =
          (static_cast<std::uint64_t>(n) * bits[p] + 63) >> 6;
      if (word_counts[p] != expect_words) {
        throw SnapshotError("snapshot column word count mismatch: " + path);
      }
      total_words += word_counts[p];
    }
    const std::uint64_t words_base = sec.offset + 16ull * d;
    if (words_base + total_words * 8 != sec.offset + sec.size) {
      throw SnapshotError("snapshot column section size mismatch: " + path);
    }
    std::vector<solver::PackedColumn> cols;
    cols.reserve(d);
    std::uint64_t word_offset = words_base;
    for (std::size_t p = 0; p < d; ++p) {
      cols.push_back(solver::PackedColumn::borrowed(
          bits[p], n,
          reinterpret_cast<const std::uint64_t*>(buffer->data + word_offset),
          buffer));
      word_offset += word_counts[p] * 8;
    }
    space.solutions_ = solver::SolutionSet(std::move(cols));
    space.derive_key_layout();
  }

  // --- Row-lookup table: borrowed view.
  {
    const Section& sec = sections[kSectionRowIndex - 1];
    Reader hr{buffer->data + sec.offset, static_cast<std::size_t>(sec.size)};
    const std::uint64_t table_size = hr.u64();
    const std::uint64_t expect_size =
        std::bit_ceil(std::max<std::uint64_t>(16, n64 * 2));
    if (table_size != expect_size) {
      throw SnapshotError("snapshot row-table size mismatch: " + path);
    }
    if (8 + table_size * 4 > sec.size) {
      throw SnapshotError("snapshot row-table section truncated: " + path);
    }
    const auto* slots =
        reinterpret_cast<const std::uint32_t*>(buffer->data + sec.offset + 8);
    if (verify == SnapshotVerify::kFull) {
      for (std::uint64_t i = 0; i < table_size; ++i) {
        if (slots[i] != SearchSpace::kEmptySlot && slots[i] >= n) {
          throw SnapshotError("snapshot row-table slot out of range: " + path);
        }
      }
    }
    space.hash_table_ = {slots, static_cast<std::size_t>(table_size)};
  }

  space.snapshot_buffer_ = buffer;
  space.construction_seconds_ = timer.seconds();
  return space;
}

SearchSpace load_snapshot(const tuner::TuningProblem& spec,
                          const std::string& path, SnapshotVerify verify) {
  return load_snapshot(spec, tuner::optimized_method(), path, verify);
}

std::string snapshot_cache_entry(const std::string& cache_dir,
                                 const tuner::TuningProblem& spec,
                                 const tuner::Method& method) {
  return snapshot_cache_path(cache_dir, spec.name(),
                             tuner::spec_fingerprint(spec, method));
}

SearchSpace SearchSpace::load_or_build(const tuner::TuningProblem& spec,
                                       const std::string& cache_dir) {
  return load_or_build(spec, tuner::optimized_method(), cache_dir);
}

SearchSpace SearchSpace::load_or_build(const tuner::TuningProblem& spec,
                                       const tuner::Method& method,
                                       const std::string& cache_dir) {
  if (!spec.lambda_constraints().empty()) {
    // Native predicates are opaque to the fingerprint; caching could serve a
    // stale space after the lambda's behavior changes.  Always build fresh.
    return SearchSpace(spec, method);
  }
  const std::string path = snapshot_cache_entry(cache_dir, spec, method);
  try {
    // The cache directory is a local artifact this library writes
    // atomically; shape-level verification keeps the hit path zero-copy.
    return load_snapshot(spec, method, path, SnapshotVerify::kShape);
  } catch (const SnapshotError&) {
    // Miss, stale format, or corrupt file: fall through to a fresh build.
  }
  SearchSpace space(spec, method);
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  try {
    save_snapshot(space, path);
  } catch (const std::exception&) {
    // A read-only or full cache directory must not fail construction.
  }
  return space;
}

}  // namespace tunespace::searchspace
