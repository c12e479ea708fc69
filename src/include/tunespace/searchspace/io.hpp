#pragma once
// SearchSpace persistence: human-readable CSV and binary snapshots.
//
// CSV — export a resolved space (one row per valid configuration, one
// column per parameter) and re-import it for validation or sharing between
// tools.  Writing and parsing are locale-independent and exact: streams are
// imbued with the classic "C" locale for the duration of the call, and
// doubles round-trip through shortest-form std::to_chars / std::from_chars,
// so a process running under a comma-decimal locale produces and accepts
// the same bytes as any other.
//
// Snapshot — a versioned binary format for the fully-resolved space, so the
// construction cost the paper minimizes is paid once per spec instead of
// once per process.  File layout (little-endian, all sections 8-aligned):
//
//   header    magic "TSSNAP\0\0", format version, endianness tag,
//             spec fingerprint (tuner::spec_fingerprint), #params, #rows,
//             solve stats, construction seconds
//   table     one {id, offset, byte size, checksum} entry per section
//   sections  1 domains   parameter names + value lists (validated on load)
//             2 columns   the bit-packed solution columns, words verbatim
//             3 rowindex  the open-addressing row-lookup table, laid out
//                         by the row-key hash (searchspace.hpp)
//
// Version 3 changed only the row hash, so section 3's slots; version 2
// files are rejected (load_or_build rebuilds them).  The key layout is
// derived from the checked column widths on load and is not stored.
//
// Checksums are four-lane interleaved FNV-1a over 64-bit words.
// load_snapshot memory-maps the file and *borrows* the column words and the
// row table straight out of the mapping (zero-copy): no parse, no copy, no
// index rebuild — the result is byte-identical to a fresh construction
// (same enumeration order, same CSV bytes, same query results) and
// reloading is orders of magnitude faster than re-solving.  The summary the
// queries read (searchspace.hpp) is derived data and is not stored; a
// loaded space derives it on first use, as a fresh one does.
//
// Two verification levels (see SnapshotVerify): kFull additionally streams
// every section through its checksum; kShape validates the header, the
// fingerprint, the (checksummed) domains section and every section's
// bounds/shape invariants but trusts the bulk payload, which keeps a cache
// hit at microseconds.  SearchSpace::load_or_build uses kShape — the cache
// directory is a trusted local artifact this library writes atomically —
// and falls back to a fresh build whenever a snapshot is rejected.  Cache
// layout: one "<sanitized spec name>-<fingerprint hex>.tss" file per
// spec + method under the chosen cache directory.

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "tunespace/searchspace/searchspace.hpp"

namespace tunespace::searchspace {

/// Snapshot format version written and accepted by this build.
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/// Thrown when a snapshot cannot be used: missing file, truncation, bad
/// magic, format-version or endianness mismatch, checksum failure, or a
/// fingerprint that does not match the requested spec + method.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How much of a snapshot load_snapshot verifies before trusting it.
enum class SnapshotVerify {
  /// Header, fingerprint, domains section (checksummed) and all structural
  /// shape checks; bulk payload sections are bounds-checked but their
  /// checksums are not streamed.  The right level for the trusted,
  /// atomically-written load_or_build cache: a hit costs microseconds.
  kShape,
  /// kShape plus every section checksum (one pass over the whole file).
  kFull,
};

/// Serialize a resolved space (domains, packed columns, row table) to `path`,
/// atomically (temp file + rename).  Throws std::runtime_error on I/O error.
void save_snapshot(const SearchSpace& space, const std::string& path);

/// Reload a snapshot produced by save_snapshot for the same spec + method.
/// Throws SnapshotError when the file is unusable (see class docs).
SearchSpace load_snapshot(const tuner::TuningProblem& spec,
                          const tuner::Method& method, const std::string& path,
                          SnapshotVerify verify = SnapshotVerify::kFull);
/// Overload using the default "optimized" construction method.
SearchSpace load_snapshot(const tuner::TuningProblem& spec,
                          const std::string& path,
                          SnapshotVerify verify = SnapshotVerify::kFull);

/// The cache file SearchSpace::load_or_build reads/writes for this
/// spec + method under `cache_dir`:
/// "<sanitized spec name>-<fingerprint hex>.tss".  Exposed so tools can
/// pre-populate, inspect or invalidate individual entries.
std::string snapshot_cache_entry(const std::string& cache_dir,
                                 const tuner::TuningProblem& spec,
                                 const tuner::Method& method);

/// Write `space` as CSV: a header of parameter names, then one row per
/// valid configuration in enumeration order.  The stream is temporarily
/// imbued with the classic locale; doubles are rendered shortest-round-trip.
void write_csv(const SearchSpace& space, std::ostream& os);

/// Convenience overload writing to a file; throws std::runtime_error when
/// the file cannot be opened.
void write_csv(const SearchSpace& space, const std::string& path);

/// Parse a CSV produced by write_csv against a spec's declared parameters,
/// returning each row resolved to a Config (values are canonicalized to the
/// declared domain values).  Throws std::runtime_error on header mismatch,
/// truncated or over-long rows (the message names the line), malformed
/// cells, or values absent from the declared domains.
std::vector<csp::Config> read_csv(const tuner::TuningProblem& spec,
                                  std::istream& is);

}  // namespace tunespace::searchspace
