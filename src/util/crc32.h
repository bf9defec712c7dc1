// CRC-32 (IEEE 802.3, the zlib polynomial) over byte spans.
//
// The durable store (DESIGN.md §12) stamps every WAL / segment-log record
// with a CRC so recovery can tell a torn tail from valid data. This is an
// integrity check against crashes and bit rot, NOT an authenticator — any
// tamper-evidence the system needs comes from the crypto layer.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace reed::util {

// One-shot CRC-32 of `data`. Chain incremental computations by passing the
// previous result as `seed` (Crc32(b, Crc32(a)) == Crc32(a||b)). Slice-by-8:
// eight table reads per eight input bytes.
[[nodiscard]] std::uint32_t Crc32(ByteSpan data, std::uint32_t seed = 0);

// The same function one table byte at a time: the oracle Crc32 is tested
// against.
[[nodiscard]] std::uint32_t Crc32Bytewise(ByteSpan data, std::uint32_t seed = 0);

}  // namespace reed::util
