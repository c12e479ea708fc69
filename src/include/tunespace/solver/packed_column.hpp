#pragma once
// PackedColumn: a bit-packed vector of uint32 domain-value indices.
//
// The solution store keeps one column per tunable parameter; a parameter
// whose domain has m values only needs ceil(log2(m)) bits per entry, so
// packing the columns drops the resolved-space memory footprint several-fold
// versus the previous vector<uint32_t>-per-column layout (a typical tuning
// parameter has 2-32 values, i.e. 1-5 bits instead of 32).
//
// A column either owns its 64-bit words or borrows them from a loaded
// snapshot buffer (the zero-copy reload path in searchspace/io); mutating a
// borrowed column first detaches it into owned storage.  Bits at positions
// >= size()*bits() are always zero, so equal-width columns compare and
// serialize word-by-word.

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace tunespace::solver {

class PackedColumn {
 public:
  /// An unpacked column (32 bits per entry) — the layout used when domain
  /// sizes are unknown at construction time.
  PackedColumn() = default;

  /// A column storing `bits` bits per entry (0 <= bits <= 32; width 0 means
  /// every entry is the single value 0 and no storage is allocated).
  explicit PackedColumn(unsigned bits) : bits_(bits), mask_(mask_for(bits)) {
    assert(bits <= 32);
  }

  /// Bits needed to index a domain of `domain_size` values.
  static unsigned bits_for_domain(std::size_t domain_size);

  /// A column viewing `size` entries in `words` without copying; `keepalive`
  /// owns the underlying buffer (snapshot zero-copy reload path).
  static PackedColumn borrowed(unsigned bits, std::size_t size,
                               const std::uint64_t* words,
                               std::shared_ptr<const void> keepalive);

  unsigned bits() const { return bits_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool is_borrowed() const { return borrowed_ != nullptr; }

  /// Number of 64-bit words backing the column.
  std::size_t word_count() const { return words_needed(size_); }
  /// The backing words (owned or borrowed); null only when word_count() == 0.
  const std::uint64_t* words() const { return data(); }
  /// Heap bytes held by this column (0 when borrowed from a snapshot).
  std::size_t memory_bytes() const {
    return owned_.capacity() * sizeof(std::uint64_t);
  }

  std::uint32_t get(std::size_t i) const {
    assert(i < size_);
    if (bits_ == 0) return 0;
    const std::uint64_t bit = static_cast<std::uint64_t>(i) * bits_;
    const std::uint64_t* w = data() + (bit >> 6);
    const unsigned off = static_cast<unsigned>(bit & 63);
    std::uint64_t v = *w >> off;
    if (off + bits_ > 64) v |= w[1] << (64 - off);
    return static_cast<std::uint32_t>(v & mask_);
  }

  /// Entries per block: block b is entries [b * kBlockRows, (b + 1) *
  /// kBlockRows), and a full block of a w-bit column is exactly the words
  /// [b * w, (b + 1) * w).
  static constexpr std::size_t kBlockRows = 64;

  /// Copy entries [begin, begin + count) into `out` (the bulk form of
  /// get()).  When `begin` starts a block, each full block runs an unpack
  /// specialised by width, with every shift fixed at compile time; the
  /// remaining entries go through one running bit cursor over the words.
  void decode(std::size_t begin, std::size_t count, std::uint32_t* out) const;

  /// Bit i set when entry b * kBlockRows + i holds a value v with
  /// allowed[v] == 1.  `allowed` has an entry, 0 or 1, for every value in
  /// the block, and for both values of a 1-bit column, whose full blocks
  /// are one word of entries.  Other full blocks run decode()'s unpack and
  /// test each entry as it comes out; the shorter tail block is decoded.
  std::uint64_t match_block(std::size_t b, const std::uint8_t* allowed) const;

  /// Append one entry; `v` must fit in bits().
  void push_back(std::uint32_t v);

  /// Append values[0], values[stride], ... (`count` entries, each fitting in
  /// bits()): the block path that SolutionSet::append_block feeds from a
  /// row-major block.  When size() is a multiple of kBlockRows, each full
  /// block runs a pack specialised by width, the mirror of decode()'s
  /// unpack, writing each of its words once; the remaining entries, and
  /// appends that start inside a block, go through one running bit cursor.
  void append_strided(const std::uint32_t* values, std::size_t count, std::size_t stride);

  /// Append `count` entries of `other` starting at `begin`.  Equal-width
  /// appends run as a word-level bit blit (the parallel-merge hot path).
  void append(const PackedColumn& other, std::size_t begin, std::size_t count);

  /// Logical element-wise equality (the widths may differ).
  bool operator==(const PackedColumn& o) const;
  bool operator!=(const PackedColumn& o) const { return !(*this == o); }

 private:
  static std::uint32_t mask_for(unsigned bits) {
    return bits >= 32 ? 0xFFFFFFFFu : (1u << bits) - 1u;
  }
  std::size_t words_needed(std::size_t entries) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(entries) * bits_ + 63) >> 6);
  }
  const std::uint64_t* data() const {
    return borrowed_ ? borrowed_ : owned_.data();
  }
  void detach();  // borrowed -> owned copy, enabling mutation
  void grow_to_words(std::size_t need);
  void append_bits(const std::uint64_t* src, std::uint64_t src_bit,
                   std::uint64_t nbits);

  unsigned bits_ = 32;
  std::uint32_t mask_ = 0xFFFFFFFFu;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> owned_;
  const std::uint64_t* borrowed_ = nullptr;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace tunespace::solver
