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
//
// A first argument that recurs (a CP-ABE private key) can have its lines
// recorded once (Prepare) and evaluated later for any Q; MillerProduct then
// runs the loops of several (lines, Q) pairs in one walk with one shared
// squaring per step (Granger–Smart, "On computing products of pairings",
// ePrint 2006/172; Costello–Stebila, "Fixed Argument Pairings",
// LATINCRYPT 2010). Both consumers share the one walk, and with it every
// vertical and infinity case, so a prepared loop equals MillerLoop exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pairing/curve.h"

namespace reed::pairing {

// The Miller loop's lines for one fixed first argument P. Each tangent or
// chord line, scaled by MillerLoop's F_p factor, is stored as (a, b, c) with
// value a·xq + b + (c·yq)·i at φ(Q) = (−xq, i·yq). The default group order
// gives 237 lines (159 tangents, 78 chords), ~50 KiB. Lines derived from a
// secret point are secret too: the destructor wipes them.
class MillerLines {
 public:
  MillerLines() = default;
  // A move leaves the source empty; assignment would have to wipe the
  // target first, and nothing needs it.
  MillerLines(MillerLines&&) noexcept = default;
  MillerLines& operator=(MillerLines&&) = delete;
  ~MillerLines();

  // The P the lines were recorded from.
  const G1Point& point() const { return point_; }
  std::size_t size() const { return lines_.size(); }

 private:
  friend class TypeAPairing;
  struct Line {
    Fp a, b, c;
  };

  G1Point point_;
  std::vector<Line> lines_;
  // Loop step k owns lines_[step_start_[k], step_start_[k + 1]): zero lines
  // once V is at infinity, else the tangent, then the chord if r's bit is
  // set. Empty when P is infinity.
  std::vector<std::uint16_t> step_start_;
};

// One pair of a MillerProduct: prepared lines of P, and the point Q.
struct MillerTerm {
  const MillerLines* lines;
  const G1Point* q;
};

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

  // The lines of MillerLoop(p, ·), recorded for later evaluation.
  MillerLines Prepare(const G1Point& p) const;
  // Π MillerLoop(term.lines->point(), *term.q), exactly, in one walk that
  // squares once per step for all terms. Allocates nothing. Throws Error on
  // lines recorded under another group order.
  Fp2 MillerProduct(std::span<const MillerTerm> terms) const;

 private:
  TypeAParams params_;
  std::unique_ptr<FpField> field_;
  bigint::MontContext mod_r_;
  G1Point generator_;
};

}  // namespace reed::pairing
