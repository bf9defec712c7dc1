#include "aont/aont.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "crypto/crypto_error.h"
#include "crypto/sha256.h"

namespace reed::aont {

namespace {
// The "publicly known block S": a fixed, public CTR IV. Any fixed value
// works; what matters is that all parties share it.
constexpr std::uint8_t kPublicIv[16] = {'R', 'E', 'E', 'D', '-', 'A', 'O',
                                        'N', 'T', '-', 'M', 'A', 'S', 'K',
                                        '0', '1'};

// C = M ⊕ G(K), then t = H(C) ⊕ K: the package C ‖ t.
Bytes Package(ByteSpan message, ByteSpan key) {
  Bytes package(message.size() + kAontTailSize);
  MutableByteSpan head(package.data(), message.size());
  MaskStream(key).Process(message, head);
  crypto::Sha256Digest hc = crypto::Sha256::Hash(head);
  MutableByteSpan tail(package.data() + message.size(), kAontTailSize);
  std::copy(hc.begin(), hc.end(), tail.begin());
  XorInto(tail, key);
  return package;
}

// K = H(C) ⊕ t, then M = C ⊕ G(K). `key` receives K for the caller's check.
Bytes Unpackage(ByteSpan package, crypto::Sha256Digest& key, const char* what) {
  if (package.size() < kAontTailSize) {
    throw crypto::CryptoError(std::string(what) + ": package too small");
  }
  std::size_t head_len = package.size() - kAontTailSize;
  ByteSpan head = package.subspan(0, head_len);
  key = crypto::Sha256::Hash(head);
  XorInto(key, package.subspan(head_len));
  Bytes message(head_len);
  MaskStream(key).Process(head, message);
  return message;
}
}  // namespace

crypto::AesCtr MaskStream(ByteSpan key) {
  return crypto::AesCtr(key, ByteSpan(kPublicIv, sizeof(kPublicIv)));
}

Bytes Mask(ByteSpan key, std::size_t length) {
  Bytes out(length);
  MaskStream(key).Keystream(out);
  return out;
}

Bytes AontTransform(ByteSpan message, crypto::Rng& rng) {
  Bytes key = rng.Generate(kAontKeySize);
  ScopedWipe wipe_key(key);
  return Package(message, key);
}

Bytes AontRevert(ByteSpan package) {
  crypto::Sha256Digest key{};
  ScopedWipe wipe_key(key);
  return Unpackage(package, key, "AontRevert");
}

Bytes CaontTransform(ByteSpan message) {
  crypto::Sha256Digest key = crypto::Sha256::Hash(message);  // h = H(M)
  ScopedWipe wipe_key(key);
  return Package(message, key);
}

Bytes CaontRevert(ByteSpan package) {
  crypto::Sha256Digest key{};
  ScopedWipe wipe_key(key);
  Bytes message = Unpackage(package, key, "CaontRevert");
  // CAONT is self-verifying: the recovered message must hash back to h.
  if (!SecureCompare(crypto::Sha256::Hash(message), key)) {
    throw crypto::CryptoError("CaontRevert: integrity check failed");
  }
  return message;
}

void SelfXorInto(MutableByteSpan acc, ByteSpan data, std::size_t offset) {
  if (acc.size() != kAontTailSize) {
    throw crypto::CryptoError("SelfXorInto: accumulator must be 32 bytes");
  }
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::size_t pos = offset % kAontTailSize;
  // Bytes up to the next piece boundary, then whole pieces word by word.
  for (; n > 0 && pos != 0; --n, pos = (pos + 1) % kAontTailSize) {
    acc[pos] ^= *p++;
  }
  std::uint64_t words[kAontTailSize / 8];
  std::memcpy(words, acc.data(), sizeof(words));
  for (; n >= kAontTailSize; n -= kAontTailSize, p += kAontTailSize) {
    for (std::size_t w = 0; w < kAontTailSize / 8; ++w) {
      std::uint64_t v;
      std::memcpy(&v, p + 8 * w, sizeof(v));
      words[w] ^= v;
    }
  }
  std::memcpy(acc.data(), words, sizeof(words));
  for (std::size_t i = 0; i < n; ++i) acc[i] ^= p[i];
}

Bytes SelfXor(ByteSpan data) {
  Bytes acc(kAontTailSize, 0);
  SelfXorInto(acc, data, 0);
  return acc;
}

}  // namespace reed::aont
