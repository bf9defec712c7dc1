// The REED chunk-encryption schemes — the paper's primary contribution
// (§IV-B, Figures 2 and 3).
//
// Both schemes turn (chunk, MLE key) into a deterministic CAONT package and
// split it into:
//   * a large *trimmed package* that deduplicates across users, and
//   * a small *stub* (64 B default) whose possession is necessary to revert
//     the package — the stub is what the renewable file key encrypts, so
//     rekeying a file costs only a stub-file re-encryption.
//
// Basic  (Fig. 2): C = (M‖canary) ⊕ G(K_M),  t = K_M ⊕ H(C).
//   Fast, but an adversary holding K_M can unmask the trimmed package.
// Enhanced (Fig. 3): C1 = E(K_M, M);  h = H(C1‖K_M);
//   C2 = (C1‖K_M) ⊕ G(h);  t = SelfXor(C2) ⊕ h.
//   One extra encryption pass buys resilience against MLE-key leakage.
//
// Decryption needs only (trimmed package, stub) — MLE keys are never
// uploaded or needed again (paper §IV-D, footnote 1).
#pragma once

#include <span>

#include "aont/aont.h"
#include "util/bytes.h"
#include "util/secret.h"

namespace reed::aont {

inline constexpr std::size_t kCanarySize = 32;      // zero canary (§V)
inline constexpr std::size_t kDefaultStubSize = 64; // §IV-A / §V
inline constexpr std::size_t kMleKeySize = 32;

enum class Scheme { kBasic, kEnhanced };

[[nodiscard]] const char* SchemeName(Scheme scheme);

// A chunk after REED encryption, before stub-file encryption. The trimmed
// package is public (it deduplicates across users and goes to the server
// as-is); the stub is Secret until EncryptStubFile seals it under the file
// key — possession of a stub reverts its package.
struct SealedChunk {
  Bytes trimmed_package;
  Secret stub;
};

class ReedCipher {
 public:
  explicit ReedCipher(Scheme scheme, std::size_t stub_size = kDefaultStubSize);

  Scheme scheme() const { return scheme_; }
  std::size_t stub_size() const { return stub_size_; }

  // Deterministically seals `chunk` under its 32-byte MLE key: EncryptMany
  // of one.
  [[nodiscard]] SealedChunk Encrypt(ByteSpan chunk, const Secret& mle_key) const;

  // Seals chunks[i] under mle_keys[i] into out[i] for every i. Per chunk
  // it computes C1 (enhanced) or the masked head (basic), hashes every
  // chunk's Y = C1 ‖ K_M (basic: C) as one Sha256::HashMany batch, then
  // masks, writes the tail and splits. Byte for byte what Encrypt gives
  // each chunk. The three spans must be the same length; throws before any
  // work on a key that is not 32 bytes or an empty chunk.
  void EncryptMany(std::span<const ByteSpan> chunks,
                   std::span<const Secret> mle_keys,
                   std::span<SealedChunk> out) const;

  // Reverts the package trimmed_package ‖ stub into `out`, where the stub
  // is the stub_size() bytes of `stubs` at `stub_offset` (so a restore
  // reads each chunk's stub inside the whole stub file, without a copy).
  // `out` must be exactly the chunk's size: trimmed + stub − PackageSize(0)
  // bytes. Reads both parts where they lie (no reassembled copy) and writes
  // plaintext only into `out`, which must not overlap them. Throws Error
  // before writing if the stub lies outside `stubs`, and after zeroing
  // `out` if either part was tampered with (canary / hash-key
  // verification).
  void DecryptInto(ByteSpan trimmed_package, const Secret& stubs,
                   std::size_t stub_offset, MutableByteSpan out) const;

  // DecryptInto a fresh buffer of the chunk's size.
  [[nodiscard]] Bytes Decrypt(ByteSpan trimmed_package, const Secret& stub) const;

  // Package size for a given chunk size (trimmed + stub).
  [[nodiscard]] std::size_t PackageSize(std::size_t chunk_size) const;

 private:
  // Internals operate on raw spans after the public entry points expose
  // the Secret inputs (aont is a sanctioned ExposeForCrypto module).
  struct PackageView;
  void DecryptBasic(const PackageView& package, MutableByteSpan out) const;
  void DecryptEnhanced(const PackageView& package, MutableByteSpan out) const;
  SealedChunk SplitPackage(Bytes package) const;

  Scheme scheme_;
  std::size_t stub_size_;
};

// Stub-file protection under the (renewable) file key: AES-256-CTR with a
// fresh IV plus an HMAC tag, with keys derived from the file key by label.
// Re-encrypting this blob is the entire cost of active revocation.
//
// The ciphertext is returned *still tainted* (Secret): declaring it public
// is the uploader's policy decision, made at one of the two sanctioned
// reed::Declassify crossings in the client (DESIGN.md §8) — not implicitly
// here. The decrypt direction takes public wire bytes and returns Secret.
[[nodiscard]] Secret EncryptStubFile(const Secret& stub_data,
                                     const Secret& file_key, crypto::Rng& rng);
[[nodiscard]] Secret DecryptStubFile(ByteSpan blob, const Secret& file_key);

// Authenticated symmetric wrap for key material (same AES-CTR + HMAC
// construction under distinct derivation labels). Used by the group
// rekeying extension to wrap per-file key states under a group wrap key.
// Same taint convention as the stub-file pair above.
[[nodiscard]] Secret WrapKeyBlob(const Secret& plaintext, const Secret& key,
                                 crypto::Rng& rng);
[[nodiscard]] Secret UnwrapKeyBlob(ByteSpan blob, const Secret& key);

}  // namespace reed::aont
