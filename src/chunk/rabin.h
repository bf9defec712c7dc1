// Rabin fingerprinting over GF(2) — the rolling hash driving variable-size
// chunking (paper §V "Client": Rabin fingerprinting with min/max/average
// chunk-size parameters).
//
// The fingerprint of a byte window is the residue of its polynomial mod an
// irreducible degree-53 polynomial. Push/pop are O(1) via two precomputed
// 256-entry tables.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace reed::chunk {

// The two reduction tables for one (window size, polynomial) pair. A rolling
// window is the caller's: RabinChunker reads the outgoing byte straight from
// its input, so no ring buffer is kept here.
class RabinTables {
 public:
  static constexpr std::uint64_t kDefaultPoly = 0x3DA3358B4DC173ULL;  // deg 53
  static constexpr std::size_t kDefaultWindowSize = 48;

  explicit RabinTables(std::size_t window_size = kDefaultWindowSize,
                       std::uint64_t poly = kDefaultPoly);

  // Shifts byte `in` into fingerprint `fp` (fp < 2^degree). The byte that
  // overflows the degree is fp's top byte, so the table index does not wait
  // on the shift.
  std::uint64_t Push(std::uint64_t fp, std::uint8_t in) const {
    return ((fp << 8) & low_mask_) ^ in ^ append_[fp >> (degree_ - 8)];
  }

  // Cancels byte `out`, pushed window_size pushes ago.
  std::uint64_t Pop(std::uint64_t fp, std::uint8_t out) const {
    return fp ^ remove_[out];
  }

  std::size_t window_size() const { return window_size_; }

  // (value mod poly) over GF(2); exposed for tests.
  static std::uint64_t PolyMod(std::uint64_t value, std::uint64_t poly);

 private:
  std::size_t window_size_;
  int degree_;
  std::uint64_t low_mask_;
  // append_[b]: (b << degree) mod poly — reduces the overflow byte.
  std::array<std::uint64_t, 256> append_;
  // remove_[b]: (b << 8*window_size) mod poly — cancels the oldest byte.
  std::array<std::uint64_t, 256> remove_;
};

}  // namespace reed::chunk
