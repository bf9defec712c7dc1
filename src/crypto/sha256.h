// SHA-256 (FIPS 180-4), implemented from scratch.
//
// SHA-256 is REED's workhorse hash: chunk fingerprints, CAONT hash keys
// (enhanced scheme), package tails (basic scheme), file-key derivation from
// key states, and the OPRF fingerprint hashing all use it. Two backends are
// compiled: a portable one and an Intel SHA-NI one selected at runtime.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace reed::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

// Incremental SHA-256. Update() may be called any number of times.
class Sha256 {
 public:
  Sha256() { Reset(); }
  // Wipes the chaining state and the buffered partial block: a hash over
  // secret input (K_M in CAONT, HMAC key pads) leaves its tail there.
  ~Sha256();

  void Reset();
  void Update(ByteSpan data);
  [[nodiscard]] Sha256Digest Finish();

  // One-shot convenience.
  [[nodiscard]] static Sha256Digest Hash(ByteSpan data);
  [[nodiscard]] static Bytes HashToBytes(ByteSpan data);

  // True when the runtime-dispatched backend uses the SHA-NI instructions.
  [[nodiscard]] static bool UsingHardware();

 private:
  void ProcessBlocks(const std::uint8_t* data, std::size_t num_blocks);

  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
};

}  // namespace reed::crypto
