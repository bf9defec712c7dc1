// Type-A symmetric pairing ê: G1 × G1 → GT ⊂ F_p², built from scratch.
//
// Construction (matching PBC's "type A" parameters, which the cpabe toolkit
// used in the paper's prototype):
//   * r: 160-bit prime group order; cofactor h with p = h·r − 1 prime and
//     p ≡ 3 mod 4  (so #E(F_p) = p + 1 = h·r),
//   * E: y² = x³ + x over F_p (supersingular),
//   * distortion map φ(x, y) = (−x, i·y) into E(F_p²),
//   * ê(P, Q) = Tate(P, φ(Q)) via a Miller loop and final exponentiation
//     (p²−1)/r = (p−1)·h applied as a Frobenius-assisted conjugate/inverse
//     step followed by one h-bit exponentiation.
//
// The Miller loop keeps V in Jacobian coordinates, so no step inverts a
// field element. Each tangent or chord line is evaluated at φ(Q) times a
// nonzero F_p factor (2YZ³ for a tangent, Z·H for a chord) that clears its
// denominators. Vertical lines are skipped outright, as their values lie in
// F_p too. All of these factors vanish in the final exponentiation: any
// c ∈ F_p* has c^(p−1) = 1, so the loop's value changes but ê does not,
// byte for byte.
#pragma once

#include <memory>

#include "pairing/curve.h"

namespace reed::pairing {

struct TypeAParams {
  BigInt p;         // field prime, p ≡ 3 mod 4
  BigInt r;         // prime group order
  BigInt cofactor;  // h = (p+1)/r

  // Freshly generated parameters with the requested sizes.
  static TypeAParams Generate(std::size_t rbits, std::size_t pbits,
                              crypto::Rng& rng);
  // Fixed 160/512-bit parameter set (PBC a.param sizes) for reproducible
  // benchmarks and fast test startup.
  static TypeAParams Default();
};

class TypeAPairing {
 public:
  explicit TypeAPairing(TypeAParams params);

  const TypeAParams& params() const { return params_; }
  const FpField* field() const { return field_.get(); }
  const BigInt& group_order() const { return params_.r; }
  // Kept context for arithmetic mod r (CP-ABE secret shares and Lagrange
  // coefficients).
  const bigint::MontContext& mod_r() const { return mod_r_; }

  // A deterministic generator of G1 (hash of a fixed tag).
  const G1Point& generator() const { return generator_; }

  // Hash arbitrary data onto G1 (order-r subgroup).
  G1Point HashToGroup(ByteSpan data) const;

  // Uniform scalar in [1, r).
  BigInt RandomScalar(crypto::Rng& rng) const;

  // The pairing ê(P, Q); both inputs must lie in the order-r subgroup.
  Fp2 Pair(const G1Point& p, const G1Point& q) const;

  // The two halves of Pair: ê(P, Q) = FinalExponentiation(MillerLoop(P, Q)).
  // The final exponentiation is a homomorphism, so a product of pairings
  // multiplies Miller values (and powers of them) and exponentiates once;
  // ê(P, Q)⁻¹ = ê(−P, Q). A Miller value alone is defined only up to an
  // F_p factor: compare results only after FinalExponentiation.
  Fp2 MillerLoop(const G1Point& p, const G1Point& q) const;
  Fp2 FinalExponentiation(const Fp2& f) const;

 private:
  TypeAParams params_;
  std::unique_ptr<FpField> field_;
  bigint::MontContext mod_r_;
  G1Point generator_;
};

}  // namespace reed::pairing
