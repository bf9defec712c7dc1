#include "rsa/blind_signature.h"

#include <algorithm>
#include <array>

#include "crypto/sha256.h"

namespace reed::rsa {

BlindSignatureClient::BlindSignatureClient(RsaPublicKey manager_key)
    : key_(std::move(manager_key)), lanes_(key_.n) {}

BlindSignatureClient::BlindSignatureClient(RsaPublicKey manager_key,
                                           bigint::LaneKernel kernel)
    : key_(std::move(manager_key)), lanes_(key_.n, kernel) {}

BigInt BlindSignatureClient::DrawFactor(crypto::Rng& rng) const {
  for (;;) {
    BigInt r = BigInt::Random(rng, key_.n);
    if (!r.IsZero()) return r;
  }
}

BigInt BlindSignatureClient::Reduced(const BigInt& x) const {
  return x < key_.n ? x : x % key_.n;
}

std::vector<std::optional<BigInt>> BlindSignatureClient::InvertFactors(
    const std::vector<BigInt>& factors) const {
  std::vector<BigInt> reduced;
  reduced.reserve(factors.size());
  for (const BigInt& f : factors) reduced.push_back(Reduced(f));
  std::vector<BigInt> inverses(factors.size());
  std::vector<std::optional<BigInt>> out(factors.size());
  if (lanes_.context().TryInvertAll(reduced, inverses)) {
    for (std::size_t i = 0; i < factors.size(); ++i) out[i] = std::move(inverses[i]);
    return out;
  }
  // Some factor shares a prime with N: invert each one alone.
  for (std::size_t i = 0; i < factors.size(); ++i) {
    out[i] = BigInt::TryInverseMod(factors[i], key_.n);
  }
  return out;
}

BlindedRequest BlindSignatureClient::BlindWithInverse(ByteSpan fingerprint,
                                                      const BigInt& r,
                                                      BigInt r_inv) const {
  const bigint::MontContext& mod_n = lanes_.context();
  BlindedRequest req;
  req.h = FullDomainHash(fingerprint, key_.n);
  req.blinded = mod_n.Mul(req.h, mod_n.Pow(r, key_.e));
  req.r_inv = std::move(r_inv);
  return req;
}

void BlindSignatureClient::BlindBatch(std::span<const ByteSpan> fingerprints,
                                      std::span<const BigInt> factors,
                                      std::span<BlindedRequest> requests) const {
  const std::size_t n = fingerprints.size();
  if (factors.size() != n || requests.size() != n) {
    throw Error("BlindSignatureClient::BlindBatch: span sizes differ");
  }
  std::array<BigInt, bigint::kLanes> r, h, x;
  for (std::size_t start = 0; start < n; start += width()) {
    const std::size_t count = std::min(width(), n - start);
    for (std::size_t lane = 0; lane < count; ++lane) {
      r[lane] = Reduced(factors[start + lane]);
      h[lane] = FullDomainHash(fingerprints[start + lane], key_.n);
    }
    lanes_.PowPublic(std::span(r).first(count), key_.e, std::span(h).first(count), x);
    for (std::size_t lane = 0; lane < count; ++lane) {
      requests[start + lane].blinded = std::move(x[lane]);
      requests[start + lane].h = std::move(h[lane]);
    }
  }
}

BlindedRequest BlindSignatureClient::Blind(ByteSpan fingerprint,
                                           crypto::Rng& rng) const {
  for (;;) {
    BigInt r = DrawFactor(rng);
    std::optional<BigInt> r_inv = BigInt::TryInverseMod(r, key_.n);
    if (r_inv) return BlindWithInverse(fingerprint, r, std::move(*r_inv));
  }
}

Secret BlindSignatureClient::KeyOf(const BigInt& s) const {
  // MLE key = H(h^d): a fixed-width encoding keeps hashing canonical.
  return Secret(crypto::Sha256::HashToBytes(s.ToBytesPadded(key_.ByteLength())));
}

Secret BlindSignatureClient::Unblind(const BlindedRequest& request,
                                     const BigInt& signature) const {
  const bigint::MontContext& mod_n = lanes_.context();
  BigInt s = mod_n.Mul(signature, request.r_inv);
  // Verify s^e == h before trusting the key manager's answer.
  if (mod_n.Pow(s, key_.e) != request.h) {
    throw Error("BlindSignatureClient: signature verification failed");
  }
  return KeyOf(s);
}

void BlindSignatureClient::UnblindBatch(std::span<const BlindedRequest> requests,
                                        std::span<const BigInt> signatures,
                                        std::span<Secret> keys) const {
  const std::size_t n = requests.size();
  if (signatures.size() != n || keys.size() != n) {
    throw Error("BlindSignatureClient::UnblindBatch: span sizes differ");
  }
  std::array<BigInt, bigint::kLanes> y, r_inv, s, check;
  for (std::size_t start = 0; start < n; start += width()) {
    const std::size_t count = std::min(width(), n - start);
    for (std::size_t lane = 0; lane < count; ++lane) {
      y[lane] = Reduced(signatures[start + lane]);
      r_inv[lane] = Reduced(requests[start + lane].r_inv);
    }
    lanes_.Mul(std::span(y).first(count), std::span(r_inv).first(count), s);
    lanes_.PowPublic(std::span(s).first(count), key_.e, {}, check);
    // Verify s^e == h in every lane before trusting the key manager.
    for (std::size_t lane = 0; lane < count; ++lane) {
      if (check[lane] != requests[start + lane].h) {
        throw Error("BlindSignatureClient: signature verification failed");
      }
    }
    for (std::size_t lane = 0; lane < count; ++lane) {
      keys[start + lane] = KeyOf(s[lane]);
    }
  }
}

void BlindSignatureServer::CheckBlinded(const BigInt& blinded) const {
  if (blinded.IsZero() || blinded >= key_.pub.n) {
    throw Error("BlindSignatureServer: blinded value out of range");
  }
}

BigInt BlindSignatureServer::Sign(const BigInt& blinded) const {
  CheckBlinded(blinded);
  return crt_.Apply(blinded);
}

void BlindSignatureServer::SignBatch(std::span<const BigInt> blinded,
                                     std::span<BigInt> signatures) const {
  for (const BigInt& b : blinded) CheckBlinded(b);
  crt_.ApplyBatch(blinded, signatures);
}

}  // namespace reed::rsa
