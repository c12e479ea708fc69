#include "tunespace/solver/packed_column.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

namespace tunespace::solver {

namespace {

/// Entry I of the 64 W-bit entries held in words[0, W).
template <unsigned W, unsigned I>
inline std::uint32_t block_entry(const std::uint64_t* words) {
  constexpr unsigned kBit = I * W;
  constexpr unsigned kWord = kBit / 64;
  constexpr unsigned kOff = kBit % 64;
  std::uint64_t v = words[kWord] >> kOff;
  if constexpr (kOff + W > 64) v |= words[kWord + 1] << (64 - kOff);
  return static_cast<std::uint32_t>(v & ((std::uint64_t{1} << W) - 1));
}

/// The entry indices of a full block.
constexpr std::make_integer_sequence<unsigned, PackedColumn::kBlockRows> kEntries{};

/// Call visit(i, entry i) for each entry I of a full block, unrolled: every
/// word index and shift is a compile-time constant.
template <unsigned W, typename Visit, unsigned... I>
void unpack_block(const std::uint64_t* words, Visit visit,
                  std::integer_sequence<unsigned, I...> /*entries*/) {
  (visit(I, block_entry<W, I>(words)), ...);
}

template <unsigned W>
void decode_full_block(const std::uint64_t* words, std::uint32_t* out) {
  unpack_block<W>(words, [out](unsigned i, std::uint32_t v) { out[i] = v; }, kEntries);
}

template <unsigned W>
std::uint64_t match_full_block(const std::uint64_t* words, const std::uint8_t* allowed) {
  if constexpr (W == 1) {
    // The block's entries are the word's bits.
    return (words[0] & (0 - std::uint64_t{allowed[1]})) |
           (~words[0] & (0 - std::uint64_t{allowed[0]}));
  } else {
    std::uint64_t match = 0;
    const auto test = [&](unsigned i, std::uint32_t v) {
      match |= std::uint64_t{allowed[v]} << i;
    };
    unpack_block<W>(words, test, kEntries);
    return match;
  }
}

/// Pack entry I of a full W-bit block, values[I * stride], into the running
/// word `acc`; the entry that completes a word stores it to words[kWord]
/// and leaves its spilled high bits in `acc`.  The mirror of block_entry.
template <unsigned W, unsigned I>
inline void pack_entry(const std::uint32_t* values, std::size_t stride,
                       std::uint64_t& acc, std::uint64_t* words) {
  constexpr unsigned kBit = I * W;
  constexpr unsigned kWord = kBit / 64;
  constexpr unsigned kOff = kBit % 64;
  const std::uint64_t v = values[I * stride];
  assert((v >> W) == 0 && "value exceeds column width");
  if constexpr (kOff == 0) {
    acc = v;
  } else {
    acc |= v << kOff;
  }
  if constexpr (kOff + W >= 64) {
    words[kWord] = acc;
    if constexpr (kOff + W > 64) acc = v >> (64 - kOff);
  }
}

/// Pack the 64 entries values[0], values[stride], ... into words[0, W),
/// unrolled with every word index and shift fixed at compile time; each
/// word is written once.
template <unsigned W>
void pack_full_block(const std::uint32_t* values, std::size_t stride,
                     std::uint64_t* words) {
  std::uint64_t acc = 0;
  [&]<unsigned... I>(std::integer_sequence<unsigned, I...> /*entries*/) {
    (pack_entry<W, I>(values, stride, acc, words), ...);
  }(kEntries);
}

/// Kernel tables indexed by width - 1, for widths 1..32.
template <std::size_t... I>
constexpr auto full_block_decoders(std::index_sequence<I...>) {
  return std::array{&decode_full_block<static_cast<unsigned>(I + 1)>...};
}
template <std::size_t... I>
constexpr auto full_block_matchers(std::index_sequence<I...>) {
  return std::array{&match_full_block<static_cast<unsigned>(I + 1)>...};
}
template <std::size_t... I>
constexpr auto full_block_packers(std::index_sequence<I...>) {
  return std::array{&pack_full_block<static_cast<unsigned>(I + 1)>...};
}
constexpr auto kDecodeFullBlock = full_block_decoders(std::make_index_sequence<32>{});
constexpr auto kMatchFullBlock = full_block_matchers(std::make_index_sequence<32>{});
constexpr auto kPackFullBlock = full_block_packers(std::make_index_sequence<32>{});

}  // namespace

unsigned PackedColumn::bits_for_domain(std::size_t domain_size) {
  if (domain_size <= 1) return 0;
  return static_cast<unsigned>(std::bit_width(domain_size - 1));
}

PackedColumn PackedColumn::borrowed(unsigned bits, std::size_t size,
                                    const std::uint64_t* words,
                                    std::shared_ptr<const void> keepalive) {
  PackedColumn col(bits);
  col.size_ = size;
  col.borrowed_ = words;
  col.keepalive_ = std::move(keepalive);
  return col;
}

void PackedColumn::detach() {
  owned_.assign(borrowed_, borrowed_ + word_count());
  borrowed_ = nullptr;
  keepalive_.reset();
}

void PackedColumn::grow_to_words(std::size_t need) {
  if (owned_.capacity() < need) {
    owned_.reserve(std::max(need, owned_.capacity() * 2));
  }
  owned_.resize(need, 0);
}

void PackedColumn::push_back(std::uint32_t v) {
  assert((v & ~static_cast<std::uint64_t>(mask_)) == 0 &&
         "value exceeds column width");
  if (borrowed_) detach();
  if (bits_ == 0) {
    ++size_;
    return;
  }
  const std::uint64_t bit = static_cast<std::uint64_t>(size_) * bits_;
  const std::size_t need = words_needed(size_ + 1);
  if (need > owned_.size()) grow_to_words(need);
  const std::size_t word = static_cast<std::size_t>(bit >> 6);
  const unsigned off = static_cast<unsigned>(bit & 63);
  owned_[word] |= static_cast<std::uint64_t>(v) << off;
  if (off + bits_ > 64) {
    owned_[word + 1] |= static_cast<std::uint64_t>(v) >> (64 - off);
  }
  ++size_;
}

void PackedColumn::decode(std::size_t begin, std::size_t count,
                          std::uint32_t* out) const {
  assert(begin + count <= size_);
  if (bits_ == 0) {
    std::fill_n(out, count, 0u);
    return;
  }
  if (begin % kBlockRows == 0) {
    for (; count >= kBlockRows; begin += kBlockRows, count -= kBlockRows) {
      kDecodeFullBlock[bits_ - 1](data() + begin / kBlockRows * bits_, out);
      out += kBlockRows;
    }
  }
  if (count == 0) return;
  const std::uint64_t bit = static_cast<std::uint64_t>(begin) * bits_;
  const std::uint64_t* w = data() + (bit >> 6);
  unsigned off = static_cast<unsigned>(bit & 63);  // bits of *w already read
  std::uint64_t cur = *w;
  for (std::size_t i = 0; i < count; ++i) {
    // Step to the next word only once an entry needs it, so the read never
    // runs past the last word.
    if (off == 64) {
      cur = *++w;
      off = 0;
    }
    std::uint64_t v = cur >> off;
    off += bits_;
    if (off > 64) {
      cur = *++w;
      off -= 64;
      v |= cur << (bits_ - off);
    }
    out[i] = static_cast<std::uint32_t>(v & mask_);
  }
}

std::uint64_t PackedColumn::match_block(std::size_t b,
                                        const std::uint8_t* allowed) const {
  if (bits_ != 0 && (b + 1) * kBlockRows <= size_) {
    return kMatchFullBlock[bits_ - 1](data() + b * bits_, allowed);
  }
  const std::size_t first = b * kBlockRows;
  assert(first < size_);
  const std::size_t len = std::min(kBlockRows, size_ - first);
  std::uint32_t values[kBlockRows];
  decode(first, len, values);
  std::uint64_t match = 0;
  for (std::size_t i = 0; i < len; ++i) match |= std::uint64_t{allowed[values[i]]} << i;
  return match;
}

void PackedColumn::append_strided(const std::uint32_t* values, std::size_t count,
                                  std::size_t stride) {
  if (count == 0) return;
  if (borrowed_) detach();
  if (bits_ == 0) {
    size_ += count;
    return;
  }
  const std::size_t need = words_needed(size_ + count);
  if (need > owned_.size()) grow_to_words(need);
  if (size_ % kBlockRows == 0) {
    // Block b of a w-bit column is exactly the words [b * w, (b + 1) * w).
    for (; count >= kBlockRows; count -= kBlockRows) {
      std::uint64_t* block = owned_.data() + size_ / kBlockRows * bits_;
      kPackFullBlock[bits_ - 1](values, stride, block);
      values += kBlockRows * stride;
      size_ += kBlockRows;
    }
    if (count == 0) return;
  }
  const std::uint64_t bit = static_cast<std::uint64_t>(size_) * bits_;
  std::uint64_t* w = owned_.data() + (bit >> 6);
  unsigned fill = static_cast<unsigned>(bit & 63);
  std::uint64_t acc = *w;  // the partly filled last word; its free bits are 0
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = values[i * stride];
    assert((v & ~static_cast<std::uint64_t>(mask_)) == 0 &&
           "value exceeds column width");
    acc |= v << fill;
    fill += bits_;
    if (fill >= 64) {
      *w++ = acc;
      fill -= 64;
      acc = v >> (bits_ - fill);  // the bits that spilled over; 0 if none
    }
  }
  if (fill > 0) *w = acc;
  size_ += count;
}

void PackedColumn::append_bits(const std::uint64_t* src, std::uint64_t src_bit,
                               std::uint64_t nbits) {
  std::uint64_t dst_bit = static_cast<std::uint64_t>(size_) * bits_;
  while (nbits > 0) {
    const unsigned chunk = nbits < 64 ? static_cast<unsigned>(nbits) : 64u;
    const std::uint64_t* sw = src + (src_bit >> 6);
    const unsigned soff = static_cast<unsigned>(src_bit & 63);
    std::uint64_t v = sw[0] >> soff;
    // The second source word exists whenever the chunk extends into it.
    if (soff + chunk > 64) v |= sw[1] << (64 - soff);
    if (chunk < 64) v &= (1ULL << chunk) - 1;
    std::uint64_t* dw = owned_.data() + (dst_bit >> 6);
    const unsigned doff = static_cast<unsigned>(dst_bit & 63);
    dw[0] |= v << doff;
    if (doff + chunk > 64) dw[1] |= v >> (64 - doff);
    src_bit += chunk;
    dst_bit += chunk;
    nbits -= chunk;
  }
}

void PackedColumn::append(const PackedColumn& other, std::size_t begin,
                          std::size_t count) {
  assert(begin + count <= other.size_);
  if (count == 0) return;
  if (bits_ != other.bits_) {
    // Width mismatch (e.g. a packed target fed from an unpacked scratch
    // set): element-wise fallback.
    for (std::size_t i = 0; i < count; ++i) push_back(other.get(begin + i));
    return;
  }
  if (borrowed_) detach();
  if (bits_ == 0) {
    size_ += count;
    return;
  }
  const std::size_t need = words_needed(size_ + count);
  if (need > owned_.size()) grow_to_words(need);
  append_bits(other.data(), static_cast<std::uint64_t>(begin) * bits_,
              static_cast<std::uint64_t>(count) * bits_);
  size_ += count;
}

bool PackedColumn::operator==(const PackedColumn& o) const {
  if (size_ != o.size_) return false;
  if (bits_ == o.bits_) {
    // Tail bits past size()*bits() are zero by invariant, so equal-width
    // columns compare word-by-word.
    const std::size_t words = word_count();
    return std::equal(data(), data() + words, o.data());
  }
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i) != o.get(i)) return false;
  }
  return true;
}

}  // namespace tunespace::solver
