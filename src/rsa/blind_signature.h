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
      : key_(std::move(manager_key)), mont_n_(key_.n) {}

  const RsaPublicKey& manager_key() const { return key_; }

  // Draws a blinding factor r, uniform in [1, N). This is the only step that
  // touches the RNG, so a batch draws its factors serially and in order.
  [[nodiscard]] BigInt DrawFactor(crypto::Rng& rng) const;

  // Blinds a chunk fingerprint with factor r. Pure and thread-safe. Returns
  // nullopt when r is not invertible mod N (r then shares a prime with N,
  // which a random draw hits with negligible probability); the caller draws
  // again.
  [[nodiscard]] std::optional<BlindedRequest> BlindWith(ByteSpan fingerprint,
                                                        const BigInt& r) const;

  // DrawFactor + BlindWith, drawing again until r is invertible.
  [[nodiscard]] BlindedRequest Blind(ByteSpan fingerprint, crypto::Rng& rng) const;

  // Unblinds the manager's signature and verifies it; returns the 32-byte
  // MLE key H(h^d) as a Secret. Throws Error if the signature does not
  // verify. Thread-safe.
  [[nodiscard]] Secret Unblind(const BlindedRequest& request, const BigInt& signature) const;

 private:
  RsaPublicKey key_;
  bigint::Montgomery mont_n_;  // for r^e, both multiplies and s^e == h
};

class BlindSignatureServer {
 public:
  explicit BlindSignatureServer(RsaPrivateKey key)
      : key_(std::move(key)), mont_p_(key_.p), mont_q_(key_.q) {}

  const RsaPublicKey& public_key() const { return key_.pub; }

  // Signs a blinded value: y = x^d mod N (CRT). The server never sees h or
  // fp. Thread-safe.
  [[nodiscard]] BigInt Sign(const BigInt& blinded) const;

 private:
  RsaPrivateKey key_;
  bigint::Montgomery mont_p_;
  bigint::Montgomery mont_q_;
};

}  // namespace reed::rsa
