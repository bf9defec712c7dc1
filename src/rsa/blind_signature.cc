#include "rsa/blind_signature.h"

#include "crypto/sha256.h"

namespace reed::rsa {

BigInt BlindSignatureClient::DrawFactor(crypto::Rng& rng) const {
  for (;;) {
    BigInt r = BigInt::Random(rng, key_.n);
    if (!r.IsZero()) return r;
  }
}

std::vector<std::optional<BigInt>> BlindSignatureClient::InvertFactors(
    const std::vector<BigInt>& factors) const {
  std::vector<std::optional<BigInt>> inverses(factors.size());
  if (factors.empty()) return inverses;
  // prefix[i] = f_0 ··· f_i mod N.
  std::vector<BigInt> prefix;
  prefix.reserve(factors.size());
  prefix.push_back(factors[0]);
  for (std::size_t i = 1; i < factors.size(); ++i) {
    prefix.push_back(mod_n_.Mul(prefix.back(), factors[i]));
  }
  std::optional<BigInt> inv = BigInt::TryInverseMod(prefix.back(), key_.n);
  if (!inv) {
    // Some factor shares a prime with N: invert each one alone.
    for (std::size_t i = 0; i < factors.size(); ++i) {
      inverses[i] = BigInt::TryInverseMod(factors[i], key_.n);
    }
    return inverses;
  }
  // Walk back: inv = (f_0 ··· f_i)⁻¹, so f_i⁻¹ = inv · prefix[i−1].
  for (std::size_t i = factors.size(); i-- > 1;) {
    inverses[i] = mod_n_.Mul(*inv, prefix[i - 1]);
    *inv = mod_n_.Mul(*inv, factors[i]);
  }
  inverses[0] = std::move(*inv);
  return inverses;
}

BlindedRequest BlindSignatureClient::BlindWithInverse(ByteSpan fingerprint,
                                                      const BigInt& r,
                                                      BigInt r_inv) const {
  BlindedRequest req;
  req.h = FullDomainHash(fingerprint, key_.n);
  req.blinded = mod_n_.Mul(req.h, mod_n_.Pow(r, key_.e));
  req.r_inv = std::move(r_inv);
  return req;
}

BlindedRequest BlindSignatureClient::Blind(ByteSpan fingerprint,
                                           crypto::Rng& rng) const {
  for (;;) {
    BigInt r = DrawFactor(rng);
    std::optional<BigInt> r_inv = BigInt::TryInverseMod(r, key_.n);
    if (r_inv) return BlindWithInverse(fingerprint, r, std::move(*r_inv));
  }
}

Secret BlindSignatureClient::Unblind(const BlindedRequest& request,
                                     const BigInt& signature) const {
  BigInt s = mod_n_.Mul(signature, request.r_inv);
  // Verify s^e == h before trusting the key manager's answer.
  if (mod_n_.Pow(s, key_.e) != request.h) {
    throw Error("BlindSignatureClient: signature verification failed");
  }
  // MLE key = H(h^d): a fixed-width encoding keeps hashing canonical.
  return Secret(crypto::Sha256::HashToBytes(s.ToBytesPadded(key_.ByteLength())));
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
