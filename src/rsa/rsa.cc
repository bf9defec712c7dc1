#include "rsa/rsa.h"

#include <algorithm>
#include <array>

#include "bigint/mont.h"
#include "bigint/prime.h"
#include "crypto/sha256.h"

namespace reed::rsa {

RsaKeyPair GenerateKeyPair(std::size_t bits, crypto::Rng& rng) {
  if (bits < 256 || bits > 64 * bigint::MontContext::kMaxLimbs || bits % 2 != 0) {
    throw Error("GenerateKeyPair: modulus bits must be even and in [256, 2048]");
  }
  BigInt e(65537);
  for (;;) {
    BigInt p = bigint::GenerateRsaPrime(bits / 2, e, rng);
    BigInt q = bigint::GenerateRsaPrime(bits / 2, e, rng);
    if (p == q) continue;
    BigInt n = p * q;
    if (n.BitLength() != bits) continue;  // product fell short by one bit
    BigInt one(1);
    BigInt phi = (p - one) * (q - one);
    BigInt d = BigInt::InverseMod(e, phi);

    RsaKeyPair kp;
    kp.pub = {n, e};
    kp.priv.pub = kp.pub;
    kp.priv.d = d;
    kp.priv.p = p;
    kp.priv.q = q;
    kp.priv.dp = d % (p - one);
    kp.priv.dq = d % (q - one);
    kp.priv.qinv = BigInt::InverseMod(q, p);
    return kp;
  }
}

BigInt PublicApply(const RsaPublicKey& key, const BigInt& m) {
  if (m >= key.n) throw Error("PublicApply: message out of range");
  return BigInt::PowMod(m, key.e, key.n);
}

CrtContext::CrtContext(const RsaPrivateKey& key)
    : n_(key.pub.n),
      dp_(key.dp),
      dq_(key.dq),
      qinv_(key.qinv),
      mod_p_(key.p),
      mod_q_(key.q) {}

BigInt CrtContext::Recombine(const BigInt& m1, const BigInt& m2) const {
  // Garner: h = qinv·(m1 − m2) mod p, computed as qinv·m1 − qinv·m2 so
  // that m2 (< q, possibly > p) needs no separate reduction.
  const bigint::MontContext& p = mod_p_.context();
  BigInt h = BigInt::SubMod(p.Mul(qinv_, m1), p.Mul(qinv_, m2), p.modulus());
  return m2 + h * mod_q_.modulus();
}

BigInt CrtContext::Apply(const BigInt& m) const {
  if (m >= n_) throw Error("PrivateApply: message out of range");
  return Recombine(mod_p_.context().Pow(m, dp_), mod_q_.context().Pow(m, dq_));
}

void CrtContext::ApplyBatch(std::span<const BigInt> in,
                            std::span<BigInt> out) const {
  if (in.size() != out.size()) {
    throw Error("CrtContext::ApplyBatch: input and output sizes differ");
  }
  for (const BigInt& m : in) {
    if (m >= n_) throw Error("PrivateApply: message out of range");
  }
  using bigint::kLanes;
  std::array<BigInt, kLanes> xp, xq, m1, m2;
  for (std::size_t start = 0; start < in.size(); start += kLanes) {
    std::size_t count = std::min(kLanes, in.size() - start);
    for (std::size_t i = 0; i < count; ++i) {
      xp[i] = mod_p_.context().Reduce(in[start + i]);
      xq[i] = mod_q_.context().Reduce(in[start + i]);
    }
    mod_p_.Pow(std::span(xp).first(count), dp_, m1);
    mod_q_.Pow(std::span(xq).first(count), dq_, m2);
    for (std::size_t i = 0; i < count; ++i) {
      out[start + i] = Recombine(m1[i], m2[i]);
    }
  }
}

BigInt PrivateApply(const RsaPrivateKey& key, const BigInt& m) {
  return CrtContext(key).Apply(m);
}

BigInt FullDomainHash(ByteSpan data, const BigInt& n) {
  // Block i of the expansion is H("reed/fdh" ‖ BE32(i) ‖ data), streamed
  // into one hasher; the blocks land in a fixed buffer as wide as the
  // widest modulus the Montgomery contexts take, so nothing is allocated
  // per block.
  constexpr std::size_t kMaxBytes = 8 * bigint::MontContext::kMaxLimbs;
  const std::size_t nbytes = (n.BitLength() + 7) / 8;
  if (nbytes > kMaxBytes) {
    throw Error("FullDomainHash: modulus wider than 2048 bits");
  }
  static constexpr std::uint8_t kLabel[] = {'r', 'e', 'e', 'd',
                                            '/', 'f', 'd', 'h'};
  std::array<std::uint8_t, kMaxBytes> expanded{};
  crypto::Sha256 hasher;
  for (std::size_t off = 0, counter = 0; off < nbytes;
       off += crypto::kSha256DigestSize, ++counter) {
    std::uint8_t counter_be[4] = {};
    PutU32(counter_be, static_cast<std::uint32_t>(counter));
    hasher.Update(kLabel);
    hasher.Update(counter_be);
    hasher.Update(data);
    const crypto::Sha256Digest block = hasher.Finish();
    std::copy_n(block.begin(), std::min(block.size(), nbytes - off),
                expanded.begin() + off);
  }
  return BigInt::FromBytes(ByteSpan(expanded).first(nbytes)) % n;
}

Bytes SerializePublicKey(const RsaPublicKey& key) {
  Bytes out;
  Bytes n = key.n.ToBytes();
  Bytes e = key.e.ToBytes();
  AppendU32(out, static_cast<std::uint32_t>(n.size()));
  Append(out, n);
  AppendU32(out, static_cast<std::uint32_t>(e.size()));
  Append(out, e);
  return out;
}

RsaPublicKey DeserializePublicKey(ByteSpan blob) {
  if (blob.size() < 8) throw Error("RsaPublicKey: truncated");
  std::uint32_t n_len = GetU32(blob);
  if (blob.size() < 4 + n_len + 4) throw Error("RsaPublicKey: truncated");
  std::uint32_t e_len = GetU32(blob.subspan(4 + n_len));
  if (blob.size() != 8 + n_len + e_len) throw Error("RsaPublicKey: bad length");
  RsaPublicKey key;
  key.n = BigInt::FromBytes(blob.subspan(4, n_len));
  key.e = BigInt::FromBytes(blob.subspan(8 + n_len, e_len));
  return key;
}

namespace {
void AppendField(Bytes& out, const BigInt& v) {
  Bytes b = v.ToBytes();
  AppendU32(out, static_cast<std::uint32_t>(b.size()));
  Append(out, b);
}

BigInt ReadField(ByteSpan blob, std::size_t& off) {
  if (off + 4 > blob.size()) throw Error("RsaKeyPair: truncated");
  std::uint32_t len = GetU32(blob.subspan(off));
  off += 4;
  if (off + len > blob.size()) throw Error("RsaKeyPair: truncated");
  BigInt v = BigInt::FromBytes(blob.subspan(off, len));
  off += len;
  return v;
}
}  // namespace

Secret SerializeKeyPair(const RsaKeyPair& keys) {
  Bytes out;
  AppendField(out, keys.pub.n);
  AppendField(out, keys.pub.e);
  AppendField(out, keys.priv.d);
  AppendField(out, keys.priv.p);
  AppendField(out, keys.priv.q);
  AppendField(out, keys.priv.dp);
  AppendField(out, keys.priv.dq);
  AppendField(out, keys.priv.qinv);
  return Secret(std::move(out));
}

RsaKeyPair DeserializeKeyPair(const Secret& secret_blob) {
  ByteSpan blob = secret_blob.ExposeForCrypto();
  std::size_t off = 0;
  RsaKeyPair keys;
  keys.pub.n = ReadField(blob, off);
  keys.pub.e = ReadField(blob, off);
  keys.priv.pub = keys.pub;
  keys.priv.d = ReadField(blob, off);
  keys.priv.p = ReadField(blob, off);
  keys.priv.q = ReadField(blob, off);
  keys.priv.dp = ReadField(blob, off);
  keys.priv.dq = ReadField(blob, off);
  keys.priv.qinv = ReadField(blob, off);
  if (off != blob.size()) throw Error("RsaKeyPair: trailing bytes");
  if (keys.priv.p * keys.priv.q != keys.pub.n) {
    throw Error("RsaKeyPair: inconsistent CRT components");
  }
  return keys;
}

}  // namespace reed::rsa
