#include "rsa/blind_signature.h"

#include "crypto/sha256.h"

namespace reed::rsa {

BigInt BlindSignatureClient::DrawFactor(crypto::Rng& rng) const {
  for (;;) {
    BigInt r = BigInt::Random(rng, key_.n);
    if (!r.IsZero()) return r;
  }
}

std::optional<BlindedRequest> BlindSignatureClient::BlindWith(
    ByteSpan fingerprint, const BigInt& r) const {
  std::optional<BigInt> r_inv = BigInt::TryInverseMod(r, key_.n);
  if (!r_inv) return std::nullopt;
  BlindedRequest req;
  req.h = FullDomainHash(fingerprint, key_.n);
  req.blinded = mont_n_.Mul(req.h, mont_n_.Pow(r, key_.e));
  req.r_inv = std::move(*r_inv);
  return req;
}

BlindedRequest BlindSignatureClient::Blind(ByteSpan fingerprint,
                                           crypto::Rng& rng) const {
  for (;;) {
    std::optional<BlindedRequest> req = BlindWith(fingerprint, DrawFactor(rng));
    if (req) return std::move(*req);
  }
}

Secret BlindSignatureClient::Unblind(const BlindedRequest& request,
                                     const BigInt& signature) const {
  BigInt s = mont_n_.Mul(signature, request.r_inv);
  // Verify s^e == h before trusting the key manager's answer.
  if (mont_n_.Pow(s, key_.e) != request.h) {
    throw Error("BlindSignatureClient: signature verification failed");
  }
  // MLE key = H(h^d): a fixed-width encoding keeps hashing canonical.
  return Secret(crypto::Sha256::HashToBytes(s.ToBytesPadded(key_.ByteLength())));
}

BigInt BlindSignatureServer::Sign(const BigInt& blinded) const {
  if (blinded.IsZero() || blinded >= key_.pub.n) {
    throw Error("BlindSignatureServer: blinded value out of range");
  }
  // Garner's CRT recombination, as PrivateApply, on the kept contexts.
  BigInt m1 = mont_p_.Pow(blinded, key_.dp);
  BigInt m2 = mont_q_.Pow(blinded, key_.dq);
  BigInt h = mont_p_.Mul(key_.qinv, BigInt::SubMod(m1, m2, key_.p));
  return m2 + h * key_.q;
}

}  // namespace reed::rsa
