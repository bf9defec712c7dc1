// The supersingular curve E: y² = x³ + x over F_p and its order-r subgroup
// G1, plus hash-to-point. With p ≡ 3 mod 4, #E(F_p) = p + 1 = cofactor · r.
#pragma once

#include <optional>
#include <vector>

#include "pairing/field.h"

namespace reed::pairing {

struct G1Jacobian;

// Affine point on E (with a distinguished point at infinity).
class G1Point {
 public:
  G1Point() : infinity_(true) {}  // point at infinity
  G1Point(Fp x, Fp y) : x_(std::move(x)), y_(std::move(y)), infinity_(false) {}

  static G1Point Infinity() { return G1Point(); }

  bool is_infinity() const { return infinity_; }
  const Fp& x() const { return x_; }
  const Fp& y() const { return y_; }

  bool operator==(const G1Point& o) const;

  bool IsOnCurve() const;

  G1Point Neg() const;
  G1Point Add(const G1Point& o) const;
  G1Point Double() const;
  G1Point ScalarMul(const BigInt& k) const;
  // k·P by the same double-and-add, left in Jacobian coordinates.
  G1Jacobian ScalarMulJacobian(const BigInt& k) const;

  // Fixed-width serialization: flag byte || x || y (flag 0 = infinity).
  Bytes ToBytes(const FpField* f) const;
  static G1Point FromBytes(const FpField* f, ByteSpan bytes);
  static std::size_t SerializedSize(const FpField* f) {
    return 1 + 2 * f->element_bytes();
  }

 private:
  Fp x_, y_;
  bool infinity_;
};

// Jacobian point (X/Z², Y/Z³; Z ≠ 0 unless infinity): what the multiplies
// return before BatchToAffine brings a whole vector of them back to affine.
struct G1Jacobian {
  Fp x, y, z;
  bool infinity = true;

  static G1Jacobian FromAffine(const G1Point& p);
};

// Affine forms of `points` (infinity entries allowed) for one Fp::Inverse
// in total: Montgomery's trick over the finite entries' Z.
std::vector<G1Point> BatchToAffine(const std::vector<G1Jacobian>& points);

// A table of multiples of one base P for scalars up to `scalar_bits` bits.
// Mul recodes k into signed 4-bit digits d_i ∈ [−8, 8] (k = Σ d_i·16^i) and
// adds one entry ±|d_i|·16^i·P per window: ~scalar_bits/4 mixed additions
// and no doublings, against ScalarMul's scalar_bits doublings plus ~half as
// many additions. Window i holds j·16^i·P for j = 1..8 as affine Montgomery
// limbs: 1 + scalar_bits/4 windows, ~41 KiB for a 160-bit group order.
class G1FixedBase {
 public:
  // nullopt when P is infinity or of small order (some table entry would be
  // infinity, which the affine table cannot hold): such a base keeps
  // ScalarMul. Costs about two ScalarMuls: one doubling chain, three mixed
  // additions and one doubling per window, and two batched inversions.
  static std::optional<G1FixedBase> Build(const G1Point& base,
                                          std::size_t scalar_bits);

  // k·P, equal to base().ScalarMul(k) once converted to affine. A scalar
  // wider than the table takes ScalarMulJacobian instead.
  G1Jacobian Mul(const BigInt& k) const;

  const G1Point& base() const { return base_; }
  // Bytes of table limbs: what a table costs against a memory budget.
  std::size_t bytes() const { return BytesFor(scalar_bits_); }
  static constexpr std::size_t BytesFor(std::size_t scalar_bits) {
    return 2 * kEntries * Windows(scalar_bits) * sizeof(FpField::Limbs);
  }

 private:
  static constexpr std::size_t kDigitBits = 4;
  static constexpr std::size_t kEntries = 8;  // |d| = 1..8 per window
  // A signed recoding carries out of the top digit: one window more.
  static constexpr std::size_t Windows(std::size_t scalar_bits) {
    return (scalar_bits + kDigitBits - 1) / kDigitBits + 1;
  }

  G1FixedBase(G1Point base, std::size_t scalar_bits)
      : base_(std::move(base)), scalar_bits_(scalar_bits) {}

  G1Point base_;
  std::size_t scalar_bits_;
  // Entry j·16^i·P at index kEntries·i + (j − 1).
  std::vector<FpField::Limbs> x_, y_;
};

// Deterministically hashes arbitrary bytes onto the order-r subgroup:
// try-and-increment x candidates, then clear the cofactor.
G1Point HashToG1(const FpField* field, const BigInt& cofactor,
                 ByteSpan data);

}  // namespace reed::pairing
