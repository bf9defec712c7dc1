#include "aont/reed_cipher.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/crypto_error.h"
#include "crypto/sha256.h"
#include "util/fault_inject.h"

namespace reed::aont {

namespace {
// Public IV for the enhanced scheme's deterministic MLE encryption step
// (distinct from the AONT mask IV for domain separation).
constexpr std::uint8_t kMleIv[16] = {'R', 'E', 'E', 'D', '-', 'M', 'L', 'E',
                                     '-', 'C', 'T', 'R', '-', '0', '0', '1'};
}  // namespace

const char* SchemeName(Scheme scheme) {
  return scheme == Scheme::kBasic ? "basic" : "enhanced";
}

ReedCipher::ReedCipher(Scheme scheme, std::size_t stub_size)
    : scheme_(scheme), stub_size_(stub_size) {
  if (stub_size_ < kAontTailSize) {
    throw crypto::CryptoError("ReedCipher: stub must cover at least the package tail");
  }
}

std::size_t ReedCipher::PackageSize(std::size_t chunk_size) const {
  // Basic head: chunk + canary; enhanced head: C1 + K_M. Both + tail.
  std::size_t head = chunk_size + (scheme_ == Scheme::kBasic ? kCanarySize
                                                             : kMleKeySize);
  return head + kAontTailSize;
}

SealedChunk ReedCipher::SplitPackage(Bytes package) const {
  if (package.size() <= stub_size_) {
    throw crypto::CryptoError("ReedCipher: chunk too small for the configured stub size");
  }
  SealedChunk out;
  std::size_t trim = package.size() - stub_size_;
  out.stub = Secret(Bytes(package.begin() + trim, package.end()));
  // resize() does not touch the bytes past the new size — wipe the stub's
  // copy out of the package buffer before handing the trim off as public.
  SecureZero(MutableByteSpan(package).subspan(trim));
  package.resize(trim);
  out.trimmed_package = std::move(package);
  return out;
}

SealedChunk ReedCipher::Encrypt(ByteSpan chunk, const Secret& mle_key) const {
  SealedChunk out;
  EncryptMany(std::span<const ByteSpan>(&chunk, 1),
              std::span<const Secret>(&mle_key, 1),
              std::span<SealedChunk>(&out, 1));
  return out;
}

void ReedCipher::EncryptMany(std::span<const ByteSpan> chunks,
                             std::span<const Secret> mle_keys,
                             std::span<SealedChunk> out) const {
  // Fires inside the encode pool's workers; ParallelForRanges forwards the
  // first worker exception after joining the rest.
  REED_FAULT_POINT("aont.encode");
  if (mle_keys.size() != chunks.size() || out.size() != chunks.size()) {
    throw crypto::CryptoError("ReedCipher: one key and one output per chunk");
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (mle_keys[i].size() != kMleKeySize) {
      throw crypto::CryptoError("ReedCipher: MLE key must be 32 bytes");
    }
    if (chunks[i].empty()) throw crypto::CryptoError("ReedCipher: empty chunk");
  }
  const bool basic = scheme_ == Scheme::kBasic;
  // Until its mask pass an enhanced package holds K_M in the clear, so
  // whatever is left of the packages is wiped on the way out.
  std::vector<Bytes> packages(chunks.size());
  struct WipePackages {
    std::vector<Bytes>& packages;
    ~WipePackages() {
      for (Bytes& p : packages) SecureZero(p);
    }
  } wipe_packages{packages};
  // The hashed part of each package: basic C = (M ‖ canary) ⊕ G(K_M);
  // enhanced Y = C1 ‖ K_M with C1 = E(K_M, M) (deterministic CTR).
  std::vector<ByteSpan> heads(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ByteSpan chunk = chunks[i];
    const ByteSpan key = mle_keys[i].ExposeForCrypto();
    packages[i].resize(PackageSize(chunk.size()));
    MutableByteSpan head(packages[i].data(),
                         packages[i].size() - kAontTailSize);
    if (basic) {
      crypto::AesCtr mask = MaskStream(key);
      mask.Process(chunk, head.first(chunk.size()));
      mask.Process(head.subspan(chunk.size()));  // the zero canary
    } else {
      crypto::AesCtr(key, ByteSpan(kMleIv, 16))
          .Process(chunk, head.first(chunk.size()));
      std::copy(key.begin(), key.end(), head.subspan(chunk.size()).begin());
    }
    heads[i] = head;
  }
  std::vector<crypto::Sha256Digest> hashes(chunks.size());
  ScopedWipe wipe_hashes(std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(hashes.data()),
      hashes.size() * sizeof(crypto::Sha256Digest)));
  crypto::Sha256::HashMany(heads, hashes);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    MutableByteSpan package(packages[i]);
    MutableByteSpan head = package.first(package.size() - kAontTailSize);
    MutableByteSpan tail = package.subspan(head.size());
    const crypto::Sha256Digest& h = hashes[i];
    if (basic) {
      // Tail: t = K_M ⊕ H(C).
      std::copy(h.begin(), h.end(), tail.begin());
      XorInto(tail, mle_keys[i].ExposeForCrypto());
    } else {
      // CAONT over Y with hash key h = H(Y): C2 = Y ⊕ G(h), and the tail
      // by self-XOR (cheaper than a second hash pass): t = SelfXor(C2) ⊕ h.
      MaskStream(h).Process(head);
      SelfXorInto(tail, head, 0);
      XorInto(tail, h);
    }
    out[i] = SplitPackage(std::move(packages[i]));
  }
}

// The package trimmed ‖ stub, read where its two parts lie.
struct ReedCipher::PackageView {
  ByteSpan trimmed;
  ByteSpan stub;

  std::size_t size() const { return trimmed.size() + stub.size(); }

  // Calls fn(piece, offset) on the pieces of bytes [begin, end) in order,
  // `offset` being where each piece starts relative to `begin`.
  template <typename Fn>
  void ForEach(std::size_t begin, std::size_t end, Fn fn) const {
    const std::size_t split = trimmed.size();
    if (begin < split) {
      fn(trimmed.subspan(begin, std::min(end, split) - begin), 0);
    }
    if (end > split) {
      const std::size_t from = std::max(begin, split);
      fn(stub.subspan(from - split, end - from), from - begin);
    }
  }

  // dst = bytes [begin, begin + |dst|) XOR the next bytes of `ctr`.
  void Unmask(crypto::AesCtr& ctr, std::size_t begin,
              MutableByteSpan dst) const {
    ForEach(begin, begin + dst.size(), [&](ByteSpan piece, std::size_t off) {
      ctr.Process(piece, dst.subspan(off, piece.size()));
    });
  }

  // dst = bytes [begin, begin + |dst|).
  void Read(std::size_t begin, MutableByteSpan dst) const {
    ForEach(begin, begin + dst.size(), [&](ByteSpan piece, std::size_t off) {
      std::copy(piece.begin(), piece.end(), dst.subspan(off).begin());
    });
  }
};

void ReedCipher::DecryptInto(ByteSpan trimmed_package, const Secret& stubs,
                             std::size_t stub_offset,
                             MutableByteSpan out) const {
  if (stub_offset > stubs.size() || stubs.size() - stub_offset < stub_size_) {
    throw crypto::CryptoError("ReedCipher: stub out of range");
  }
  const PackageView package{
      trimmed_package, stubs.ExposeForCrypto().subspan(stub_offset, stub_size_)};
  if (package.size() < PackageSize(1)) {
    throw crypto::CryptoError("ReedCipher: package too small");
  }
  if (out.size() != package.size() - PackageSize(0)) {
    throw crypto::CryptoError(
        "ReedCipher: output size does not match the package");
  }
  if (scheme_ == Scheme::kBasic) {
    DecryptBasic(package, out);
  } else {
    DecryptEnhanced(package, out);
  }
}

Bytes ReedCipher::Decrypt(ByteSpan trimmed_package, const Secret& stub) const {
  if (stub.size() != stub_size_) {
    throw crypto::CryptoError("ReedCipher: stub size mismatch");
  }
  const std::size_t package_size = trimmed_package.size() + stub.size();
  Bytes plain(package_size > PackageSize(0) ? package_size - PackageSize(0)
                                            : 0);
  DecryptInto(trimmed_package, stub, 0, plain);
  return plain;
}

// --------------------------- basic scheme ---------------------------

void ReedCipher::DecryptBasic(const PackageView& package,
                              MutableByteSpan out) const {
  const std::size_t head_len = package.size() - kAontTailSize;

  // K_M = t ⊕ H(C) — any modification of the package corrupts K_M, which
  // the canary check below then catches.
  crypto::Sha256 hasher;
  package.ForEach(0, head_len,
                  [&](ByteSpan piece, std::size_t) { hasher.Update(piece); });
  crypto::Sha256Digest mle_key = hasher.Finish();
  ScopedWipe wipe_key(mle_key);
  std::array<std::uint8_t, kAontTailSize> tail{};
  package.Read(head_len, tail);
  XorInto(mle_key, tail);

  std::array<std::uint8_t, kCanarySize> canary{};
  ScopedWipe wipe_canary(canary);
  crypto::AesCtr mask = MaskStream(mle_key);
  package.Unmask(mask, 0, out);
  package.Unmask(mask, out.size(), canary);

  static constexpr std::array<std::uint8_t, kCanarySize> kZeroCanary{};
  if (!SecureCompare(canary, kZeroCanary)) {
    SecureZero(out);
    throw crypto::CryptoError("ReedCipher: canary check failed (tampered chunk)");
  }
}

// --------------------------- enhanced scheme ---------------------------

void ReedCipher::DecryptEnhanced(const PackageView& package,
                                 MutableByteSpan out) const {
  const std::size_t head_len = package.size() - kAontTailSize;

  // h = SelfXor(C2) ⊕ t
  std::array<std::uint8_t, kAontTailSize> h{};
  ScopedWipe wipe_h(h);
  package.ForEach(0, head_len, [&](ByteSpan piece, std::size_t off) {
    SelfXorInto(h, piece, off);
  });
  std::array<std::uint8_t, kAontTailSize> tail{};
  package.Read(head_len, tail);
  XorInto(h, tail);

  // Y = C2 ⊕ G(h) = C1 ‖ K_M: C1 straight into `out`, K_M beside it.
  std::array<std::uint8_t, kMleKeySize> mle_key{};
  ScopedWipe wipe_key(mle_key);
  crypto::AesCtr mask = MaskStream(h);
  package.Unmask(mask, 0, out);
  package.Unmask(mask, out.size(), mle_key);

  // Integrity: H(C1 ‖ K_M) must equal h. (The self-XOR alone can be fooled
  // by paired bit flips, but the recovered Y then fails this hash check —
  // §IV-E.)
  crypto::Sha256 hasher;
  hasher.Update(out);
  hasher.Update(mle_key);
  crypto::Sha256Digest hy = hasher.Finish();
  ScopedWipe wipe_hy(hy);
  if (!SecureCompare(hy, h)) {
    SecureZero(out);
    throw crypto::CryptoError("ReedCipher: hash-key check failed (tampered chunk)");
  }
  crypto::AesCtr(mle_key, ByteSpan(kMleIv, 16)).Process(out);  // C1 → M
}

// --------------------------- stub-file crypto ---------------------------

namespace {

Bytes SealAuthenticated(ByteSpan plaintext, ByteSpan key, crypto::Rng& rng,
                        std::string_view enc_label, std::string_view mac_label) {
  Bytes enc_key = crypto::DeriveKey32(key, enc_label);
  ScopedWipe wipe_enc(enc_key);
  Bytes mac_key = crypto::DeriveKey32(key, mac_label);
  ScopedWipe wipe_mac(mac_key);
  Bytes iv = rng.Generate(16);
  Bytes ct = crypto::AesCtrEncrypt(enc_key, iv, plaintext);
  Bytes out = Concat(iv, ct);
  Append(out, crypto::HmacSha256ToBytes(mac_key, out));
  return out;
}

Bytes OpenAuthenticated(ByteSpan blob, ByteSpan key,
                        std::string_view enc_label, std::string_view mac_label,
                        const char* what) {
  if (blob.size() < 16 + 32) throw crypto::CryptoError(std::string(what) + ": truncated");
  Bytes enc_key = crypto::DeriveKey32(key, enc_label);
  ScopedWipe wipe_enc(enc_key);
  Bytes mac_key = crypto::DeriveKey32(key, mac_label);
  ScopedWipe wipe_mac(mac_key);
  ByteSpan body = blob.subspan(0, blob.size() - 32);
  ByteSpan mac = blob.subspan(blob.size() - 32);
  if (!SecureCompare(crypto::HmacSha256ToBytes(mac_key, body), mac)) {
    throw crypto::CryptoError(std::string(what) +
                ": MAC verification failed (wrong key or tampered data)");
  }
  return crypto::AesCtrEncrypt(enc_key, body.subspan(0, 16), body.subspan(16));
}

}  // namespace

Secret WrapKeyBlob(const Secret& plaintext, const Secret& key,
                   crypto::Rng& rng) {
  return Secret(SealAuthenticated(plaintext.ExposeForCrypto(),
                                  key.ExposeForCrypto(), rng, "reed/wrap-enc",
                                  "reed/wrap-mac"));
}

Secret UnwrapKeyBlob(ByteSpan blob, const Secret& key) {
  return Secret(OpenAuthenticated(blob, key.ExposeForCrypto(), "reed/wrap-enc",
                                  "reed/wrap-mac", "UnwrapKeyBlob"));
}

Secret EncryptStubFile(const Secret& stub_data, const Secret& file_key,
                       crypto::Rng& rng) {
  return Secret(SealAuthenticated(stub_data.ExposeForCrypto(),
                                  file_key.ExposeForCrypto(), rng,
                                  "reed/stub-enc", "reed/stub-mac"));
}

Secret DecryptStubFile(ByteSpan blob, const Secret& file_key) {
  return Secret(OpenAuthenticated(blob, file_key.ExposeForCrypto(),
                                  "reed/stub-enc", "reed/stub-mac",
                                  "DecryptStubFile"));
}

}  // namespace reed::aont
