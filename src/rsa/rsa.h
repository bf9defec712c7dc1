// RSA key generation and raw RSA operations (textbook RSA over our bigint),
// with CRT acceleration for the private operation.
//
// REED uses RSA in two places, both as the paper prescribes:
//  * the key manager's system-wide key pair for the blind-signature OPRF
//    (DupLESS-style MLE key generation; 1024-bit default, as in §V), and
//  * per-user derivation key pairs for RSA key regression (§IV-C).
// Raw (unpadded) RSA is correct in both constructions: the OPRF applies a
// full-domain hash before signing, and key regression winds full-domain
// states.
#pragma once

#include <span>

#include "bigint/bigint.h"
#include "bigint/mont.h"
#include "bigint/mont_lanes.h"
#include "crypto/random.h"
#include "util/secret.h"

namespace reed::rsa {

using bigint::BigInt;

struct RsaPublicKey {
  BigInt n;
  BigInt e;

  std::size_t ByteLength() const { return (n.BitLength() + 7) / 8; }
};

struct RsaPrivateKey {
  RsaPublicKey pub;
  BigInt d;
  // CRT components: private ops run ~4x faster via the two half-size
  // exponentiations.
  BigInt p, q, dp, dq, qinv;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

// Generates an RSA key pair with an n of exactly `bits` bits, e = 65537.
// bits must be even and in [256, 2048] (the Montgomery kernel's widest
// modulus).
[[nodiscard]] RsaKeyPair GenerateKeyPair(std::size_t bits, crypto::Rng& rng);

// m^e mod n; m must be < n.
[[nodiscard]] BigInt PublicApply(const RsaPublicKey& key, const BigInt& m);

// The RSA private operation m^d mod n with kept Montgomery contexts for p
// and q: two half-size exponentiations (m enters each context unreduced, no
// division) and Garner's recombination. Holders that apply one key many
// times keep one: the OPRF signer and the key-regression owner.
class CrtContext {
 public:
  explicit CrtContext(const RsaPrivateKey& key);

  // m^d mod n on the scalar kernel; throws Error unless m < n. Thread-safe.
  [[nodiscard]] BigInt Apply(const BigInt& m) const;

  // out[i] = in[i]^d mod n, the values Apply gives: each input is reduced
  // mod p and mod q, and both halves run width() values per lane-kernel
  // exponentiation (bigint/mont_lanes.h). Throws Error, writing nothing,
  // unless in and out have the same size and every in[i] < n. Thread-safe.
  void ApplyBatch(std::span<const BigInt> in, std::span<BigInt> out) const;

  // Values one ApplyBatch group computes at the cost of one: 8 on the IFMA
  // lane kernel, 1 on the scalar path.
  std::size_t width() const { return mod_p_.width(); }

 private:
  // Garner: m1 mod p and m2 mod q recombined mod n.
  BigInt Recombine(const BigInt& m1, const BigInt& m2) const;

  BigInt n_, dp_, dq_, qinv_;
  bigint::MontLanes<10> mod_p_;  // a 1024-bit key's 512-bit halves
  bigint::MontLanes<10> mod_q_;
};

// m^d mod n via CRT on fresh contexts; m must be < n.
[[nodiscard]] BigInt PrivateApply(const RsaPrivateKey& key, const BigInt& m);

// Full-domain hash of `data` into [0, n): SHA-256 expanded with a counter to
// the modulus width, then reduced. Used by the OPRF and key regression.
[[nodiscard]] BigInt FullDomainHash(ByteSpan data, const BigInt& n);

// Public-key serialization (length-prefixed n ‖ e); key-state records carry
// the owner's public derivation key in this form.
[[nodiscard]] Bytes SerializePublicKey(const RsaPublicKey& key);
[[nodiscard]] RsaPublicKey DeserializePublicKey(ByteSpan blob);

// Full key-pair serialization (all CRT components) — identity bundles and
// key-manager state files use this. The blob IS the private key, so it is
// Secret-typed: persisting it requires a visible Declassify at the caller.
[[nodiscard]] Secret SerializeKeyPair(const RsaKeyPair& keys);
[[nodiscard]] RsaKeyPair DeserializeKeyPair(const Secret& blob);

}  // namespace reed::rsa
