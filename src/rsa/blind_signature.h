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
  // The batch calls run on the widest lane kernel this CPU has for N (the
  // scalar path when N is wider than MontLanes<20>::kMaxBits = 1038 bits).
  explicit BlindSignatureClient(RsaPublicKey manager_key);
  // Runs them on `kernel`, so tests can compare the paths; throws Error if
  // this CPU lacks it or N is too wide for it.
  BlindSignatureClient(RsaPublicKey manager_key, bigint::LaneKernel kernel);

  const RsaPublicKey& manager_key() const { return key_; }
  bigint::LaneKernel kernel() const { return lanes_.kernel(); }
  // Chunks one BlindBatch / UnblindBatch lane group handles at the cost of
  // one: 8 on the IFMA kernel, 1 on the scalar path.
  std::size_t width() const { return lanes_.width(); }

  // Draws a blinding factor r, uniform in [1, N). This is the only step that
  // touches the RNG, so a batch draws its factors serially and in order.
  [[nodiscard]] BigInt DrawFactor(crypto::Rng& rng) const;

  // Inverts a batch of factors mod N with Montgomery's trick
  // (MontContext::TryInvertAll): one inversion for the whole batch plus
  // three Montgomery multiplies per factor. Element i is nullopt when
  // factors[i] is not invertible (it shares a prime with N, which a random
  // draw hits with negligible probability); the others are still inverted.
  // Pure and thread-safe.
  [[nodiscard]] std::vector<std::optional<BigInt>> InvertFactors(
      const std::vector<BigInt>& factors) const;

  // Blinds a chunk fingerprint with factor r whose inverse mod N is r_inv.
  // The scalar oracle for BlindBatch. Pure and thread-safe.
  [[nodiscard]] BlindedRequest BlindWithInverse(ByteSpan fingerprint,
                                                const BigInt& r,
                                                BigInt r_inv) const;

  // Blinds fingerprints[i] with factors[i] for every i: sets requests[i]'s
  // h and x = h·r^e as BlindWithInverse does, one PowPublic per lane group
  // of width() chunks, and leaves r_inv to the caller, so the batch can be
  // blinded while its factors are still being inverted. Throws Error unless
  // the three spans have the same size. Pure and thread-safe.
  void BlindBatch(std::span<const ByteSpan> fingerprints,
                  std::span<const BigInt> factors,
                  std::span<BlindedRequest> requests) const;

  // One chunk alone: DrawFactor, invert r, BlindWithInverse, drawing again
  // until r is invertible.
  [[nodiscard]] BlindedRequest Blind(ByteSpan fingerprint, crypto::Rng& rng) const;

  // Unblinds the manager's signature and verifies it; returns the 32-byte
  // MLE key H(h^d) as a Secret. Throws Error if the signature does not
  // verify. The scalar oracle for UnblindBatch. Thread-safe.
  [[nodiscard]] Secret Unblind(const BlindedRequest& request, const BigInt& signature) const;

  // keys[i] = Unblind(requests[i], signatures[i]) for every i, s = y·r⁻¹
  // and s^e for each lane group of width() chunks in one pass each, with
  // s^e == h checked in every lane. Throws Error if any signature fails to
  // verify (which keys were written is then unspecified), or unless the
  // three spans have the same size. Thread-safe.
  void UnblindBatch(std::span<const BlindedRequest> requests,
                    std::span<const BigInt> signatures,
                    std::span<Secret> keys) const;

 private:
  // x mod N, with no division when x is already below N.
  BigInt Reduced(const BigInt& x) const;
  // The MLE key of an unblinded, verified s.
  Secret KeyOf(const BigInt& s) const;

  RsaPublicKey key_;
  // r^e, s^e and the multiplies, eight chunks per pass; its scalar context
  // does the single-chunk calls and the batch inversion.
  bigint::MontLanes<20> lanes_;
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
