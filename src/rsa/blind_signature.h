// RSA blind-signature OPRF — the DupLESS MLE key-generation protocol
// (paper §II-A, §V "Key manager").
//
// Flow per chunk fingerprint fp:
//   client:  h = FDH(fp, N); picks random r; sends x = h * r^e mod N
//   manager: y = x^d mod N                (cannot see fp: x is blinded)
//   client:  s = y * r^{-1} mod N = h^d;  verifies s^e == h;  K_M = H(s)
//
// The manager signs without learning the fingerprint (obliviousness), and
// the client cannot compute h^d alone (the MLE key space looks random to
// anyone without d, defeating offline brute force on predictable chunks).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "rsa/rsa.h"
#include "util/secret.h"

namespace reed::rsa {

// Client-side state for one blinded request (keeps r to unblind later).
struct BlindedRequest {
  BigInt blinded;   // x = h * r^e mod N, sent to the key manager
  BigInt r_inv;     // r^{-1} mod N, kept locally
  BigInt h;         // FDH(fp), kept locally for verification
};

class BlindSignatureClient {
 public:
  explicit BlindSignatureClient(RsaPublicKey manager_key)
      : key_(std::move(manager_key)), mod_n_(key_.n) {}

  const RsaPublicKey& manager_key() const { return key_; }

  // Draws a blinding factor r, uniform in [1, N). This is the only step that
  // touches the RNG, so a batch draws its factors serially and in order.
  [[nodiscard]] BigInt DrawFactor(crypto::Rng& rng) const;

  // Inverts a batch of factors mod N with Montgomery's trick: one inversion
  // for the whole batch plus three multiplies per factor. Element i is
  // nullopt when factors[i] is not invertible (it shares a prime with N,
  // which a random draw hits with negligible probability); the others are
  // still inverted. Pure and thread-safe.
  [[nodiscard]] std::vector<std::optional<BigInt>> InvertFactors(
      const std::vector<BigInt>& factors) const;

  // Blinds a chunk fingerprint with factor r whose inverse mod N is r_inv.
  // Pure and thread-safe.
  [[nodiscard]] BlindedRequest BlindWithInverse(ByteSpan fingerprint,
                                                const BigInt& r,
                                                BigInt r_inv) const;

  // One chunk alone: DrawFactor, invert r, BlindWithInverse, drawing again
  // until r is invertible.
  [[nodiscard]] BlindedRequest Blind(ByteSpan fingerprint, crypto::Rng& rng) const;

  // Unblinds the manager's signature and verifies it; returns the 32-byte
  // MLE key H(h^d) as a Secret. Throws Error if the signature does not
  // verify. Thread-safe.
  [[nodiscard]] Secret Unblind(const BlindedRequest& request, const BigInt& signature) const;

 private:
  RsaPublicKey key_;
  bigint::MontContext mod_n_;  // r^e, the multiplies and s^e == h
};

class BlindSignatureServer {
 public:
  explicit BlindSignatureServer(RsaPrivateKey key)
      : key_(std::move(key)), crt_(key_) {}

  const RsaPublicKey& public_key() const { return key_.pub; }

  // Signs a blinded value: y = x^d mod N (CRT). The server never sees h or
  // fp. Thread-safe.
  [[nodiscard]] BigInt Sign(const BigInt& blinded) const;

  // signatures[i] = Sign(blinded[i]), width() values per lane-kernel
  // exponentiation (CrtContext::ApplyBatch). Throws Error, signing nothing,
  // unless the sizes match and every value passes CheckBlinded.
  // Thread-safe.
  void SignBatch(std::span<const BigInt> blinded,
                 std::span<BigInt> signatures) const;

  // Values one SignBatch group signs at the cost of one (CrtContext::width).
  std::size_t width() const { return crt_.width(); }

  // Throws Error unless 0 < blinded < N, the check Sign makes.
  void CheckBlinded(const BigInt& blinded) const;

 private:
  RsaPrivateKey key_;
  CrtContext crt_;
};

}  // namespace reed::rsa
