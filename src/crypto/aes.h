// AES-256 (FIPS 197) from scratch, with CTR and CBC modes.
//
// REED uses AES-256 as the symmetric cipher E(·) everywhere the paper does:
// the CAONT pseudo-random mask G(K) = E(K, S) (S = a public constant block
// stream), the MLE encryption step of the enhanced scheme, stub-file
// encryption under the file key, and key-state wrapping. A portable
// byte-oriented backend and an AES-NI backend are selected at runtime.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"
#include "util/secret.h"

namespace reed::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAes256KeySize = 32;

using AesKey = std::array<std::uint8_t, kAes256KeySize>;

// The AES implementations, widest last. All produce the same bytes.
enum class AesBackend { kPortable, kAesNi, kVaes };

// "portable", "aes-ni" or "vaes": the label benches print next to a number.
[[nodiscard]] const char* AesBackendName(AesBackend backend);

// Expanded-key AES-256 context. Immutable after construction; safe to share
// across threads for encryption.
class Aes256 {
 public:
  explicit Aes256(ByteSpan key) : Aes256(key, Backend()) {}  // 32 bytes
  explicit Aes256(const Secret& key) : Aes256(key.ExposeForCrypto()) {}

  // The expanded schedule is key-equivalent material: wipe it so freed
  // contexts never leave round keys in reusable memory.
  ~Aes256() {
    SecureZero(enc_round_keys_);
    SecureZero(dec_round_keys_);
  }

  Aes256(const Aes256&) = default;
  Aes256& operator=(const Aes256&) = default;

  // Single-block ECB primitives (building blocks for the modes below).
  void EncryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void DecryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;

  // The widest backend this CPU supports, detected once from CPUID; the
  // CTR loop runs on it.
  [[nodiscard]] static AesBackend Backend();
  [[nodiscard]] static bool Supports(AesBackend backend);

 private:
  friend class AesCtr;
  // Expands the key with `backend`'s code, so the portable CTR backend
  // stays an oracle independent of AES-NI even on a host that has it.
  Aes256(ByteSpan key, AesBackend backend);

  // Expanded key bytes, FIPS-197 order: round r occupies [16r, 16r+16).
  alignas(16) std::array<std::uint8_t, 240> enc_round_keys_;
  // AES-NI "equivalent inverse cipher" keys (aesimc-transformed, reversed).
  alignas(16) std::array<std::uint8_t, 240> dec_round_keys_;
};

// AES-256-CTR keystream/cipher. CTR(K, iv) XOR data — encryption and
// decryption are the same operation. The CAONT mask G(K) is exactly the CTR
// keystream with a fixed public IV (the "publicly known block S").
class AesCtr {
 public:
  // iv must be 16 bytes; it forms the initial counter block, incremented
  // as one 128-bit big-endian integer (NIST SP 800-38A style; the carry
  // runs through all 16 bytes and wraps at 2^128).
  AesCtr(ByteSpan key, ByteSpan iv) : AesCtr(key, iv, Aes256::Backend()) {}
  AesCtr(const Secret& key, ByteSpan iv) : AesCtr(key.ExposeForCrypto(), iv) {}
  // Runs on `backend` instead of the detected one, so tests can compare the
  // paths byte for byte. Throws CryptoError if this CPU lacks it.
  AesCtr(ByteSpan key, ByteSpan iv, AesBackend backend);

  // XORs the keystream into `data` in place, continuing from the current
  // stream position.
  void Process(MutableByteSpan data) { Process(data, data); }

  // out = in XOR keystream, continuing from the current stream position.
  // Sizes must match; `in` and `out` are either the same span or disjoint.
  void Process(ByteSpan in, MutableByteSpan out);

  // Writes raw keystream bytes into `out`.
  void Keystream(MutableByteSpan out);

  // Keystream bytes are XOR-equivalent to plaintext; wipe on teardown.
  ~AesCtr() { SecureZero(buffer_); }

 private:
  void XorBlocks(const std::uint8_t* in, std::uint8_t* out,
                 std::size_t nblocks);

  Aes256 aes_;
  AesBackend backend_;
  std::array<std::uint8_t, kAesBlockSize> counter_;
  std::array<std::uint8_t, kAesBlockSize> buffer_;
  std::size_t buffer_pos_ = kAesBlockSize;
};

// AES-256-CBC with PKCS#7 padding; used for wrapped key blobs where
// ciphertext length may exceed plaintext length (not for CAONT packages,
// which must stay length-preserving).
[[nodiscard]] Bytes AesCbcEncrypt(ByteSpan key, ByteSpan iv, ByteSpan plaintext);
[[nodiscard]] Bytes AesCbcDecrypt(ByteSpan key, ByteSpan iv, ByteSpan ciphertext);

// Length-preserving CTR helpers used throughout REED.
[[nodiscard]] Bytes AesCtrEncrypt(ByteSpan key, ByteSpan iv, ByteSpan data);
[[nodiscard]] inline Bytes AesCtrDecrypt(ByteSpan key, ByteSpan iv, ByteSpan data) {
  return AesCtrEncrypt(key, iv, data);
}

// Secret-typed key overloads: the cipher layer is where taint legitimately
// meets raw bytes (layering lint, rule secret-expose).
[[nodiscard]] inline Bytes AesCbcEncrypt(const Secret& key, ByteSpan iv,
                                         ByteSpan plaintext) {
  return AesCbcEncrypt(key.ExposeForCrypto(), iv, plaintext);
}
[[nodiscard]] inline Bytes AesCbcDecrypt(const Secret& key, ByteSpan iv,
                                         ByteSpan ciphertext) {
  return AesCbcDecrypt(key.ExposeForCrypto(), iv, ciphertext);
}
[[nodiscard]] inline Bytes AesCtrEncrypt(const Secret& key, ByteSpan iv,
                                         ByteSpan data) {
  return AesCtrEncrypt(key.ExposeForCrypto(), iv, data);
}
[[nodiscard]] inline Bytes AesCtrDecrypt(const Secret& key, ByteSpan iv,
                                         ByteSpan data) {
  return AesCtrEncrypt(key.ExposeForCrypto(), iv, data);
}

}  // namespace reed::crypto
