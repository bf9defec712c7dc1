// SHA-256 (FIPS 180-4), implemented from scratch.
//
// SHA-256 is REED's workhorse hash: chunk fingerprints, CAONT hash keys
// (enhanced scheme), package tails (basic scheme), file-key derivation from
// key states, and the OPRF fingerprint hashing all use it. One message at a
// time runs on Intel SHA-NI when the CPU has it, else on a portable loop.
//
// The bulk passes hash many independent messages at once (every chunk of an
// upload unit, every package of a fetched frame). HashMany gives each
// message its own 32-bit lane of an AVX-512 vector, sixteen per pass, and
// refills a lane as soon as its message and padding end (the multi-buffer
// technique of Gueron and Krasnov, "Simultaneous hashing of multiple
// messages", J. Inf. Sec. 2012). The one-message hash is its fallback and
// its oracle (DESIGN.md §18).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace reed::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

// The batch kernels. Both produce the same digests.
//   kPerMessage: Sha256::Hash on each message in turn (SHA-NI or portable);
//   kX16: sixteen messages per AVX-512F/BW pass.
enum class Sha256ManyBackend { kPerMessage, kX16 };

// "per-message" or "x16": the label benches print next to a number.
[[nodiscard]] const char* Sha256ManyBackendName(Sha256ManyBackend backend);

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

  // digests[i] = Hash(messages[i]) for every i, on the widest batch kernel
  // this CPU has. The spans must be the same length. Wipes the per-lane
  // tail blocks and chaining values it kept, as the destructor does.
  static void HashMany(std::span<const ByteSpan> messages,
                       std::span<Sha256Digest> digests);
  // The same on `backend`, so tests can compare the kernels. Throws
  // CryptoError if this CPU lacks it.
  static void HashMany(std::span<const ByteSpan> messages,
                       std::span<Sha256Digest> digests,
                       Sha256ManyBackend backend);

  // The widest batch kernel this CPU supports, detected once from CPUID.
  [[nodiscard]] static Sha256ManyBackend ManyBackend();
  [[nodiscard]] static bool Supports(Sha256ManyBackend backend);

  // True when the runtime-dispatched backend uses the SHA-NI instructions.
  [[nodiscard]] static bool UsingHardware();

 private:
  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
};

}  // namespace reed::crypto
