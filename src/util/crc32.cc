#include "util/crc32.h"

#include <array>

namespace reed::util {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the byte-at-a-time table of the reflected polynomial.
// tables[k][b] is the CRC register after byte b is followed by k zero
// bytes, so eight table reads advance the register over eight bytes
// (slice-by-8).
constexpr Tables MakeCrcTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kCrcTables = MakeCrcTables();

// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(ByteSpan data, std::uint32_t seed) {
  const Tables& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ c;
    const std::uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32Bytewise(ByteSpan data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c = kCrcTables[0][(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace reed::util
