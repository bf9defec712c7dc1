// Chunk fingerprints.
//
// A fingerprint is the SHA-256 of chunk content (paper §II-A); dedup treats
// fingerprint equality as content equality (collision probability is
// negligible). The 48-bit truncation mirrors the FSL trace format used in
// the paper's real-world evaluation (§VI-B).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace reed::chunk {

struct Fingerprint {
  static constexpr std::size_t kSize = 32;
  std::array<std::uint8_t, kSize> bytes{};

  static Fingerprint Of(ByteSpan data) {
    Fingerprint fp;
    fp.bytes = crypto::Sha256::Hash(data);
    return fp;
  }

  // out[i] = Of(data[i]) for every i, hashed as one batch
  // (crypto::Sha256::HashMany). The spans must be the same length.
  static void OfMany(std::span<const ByteSpan> data,
                     std::span<Fingerprint> out) {
    if (out.size() != data.size()) {
      throw Error("Fingerprint::OfMany: one fingerprint per input");
    }
    std::vector<crypto::Sha256Digest> digests(data.size());
    crypto::Sha256::HashMany(data, digests);
    for (std::size_t i = 0; i < digests.size(); ++i) out[i].bytes = digests[i];
  }

  static Fingerprint FromBytes(ByteSpan b) {
    if (b.size() != 32) throw Error("Fingerprint::FromBytes: need 32 bytes");
    Fingerprint fp;
    std::copy(b.begin(), b.end(), fp.bytes.begin());
    return fp;
  }

  ByteSpan AsSpan() const { return ByteSpan(bytes.data(), bytes.size()); }
  Bytes ToBytes() const { return Bytes(bytes.begin(), bytes.end()); }
  std::string ToHex() const { return HexEncode(AsSpan()); }

  // 48-bit truncation, as stored in FSL-style trace snapshots.
  std::uint64_t Short48() const {
    std::uint64_t v = 0;
    for (int i = 0; i < 6; ++i) v = (v << 8) | bytes[i];
    return v;
  }

  bool operator==(const Fingerprint&) const = default;
  auto operator<=>(const Fingerprint&) const = default;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& fp) const {
    // The fingerprint is already uniform; fold the first 8 bytes.
    std::uint64_t v;
    std::memcpy(&v, fp.bytes.data(), sizeof(v));
    return static_cast<std::size_t>(v);
  }
};

}  // namespace reed::chunk
