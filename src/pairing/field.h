// Finite-field tower for the Type-A pairing: F_p and F_p² = F_p[i]/(i²+1).
//
// The CP-ABE layer (paper §IV-C) needs a symmetric bilinear pairing; we
// build the same construction the cpabe toolkit's PBC "type A" parameters
// use: a supersingular curve y² = x³ + x over F_p with p ≡ 3 mod 4, whose
// pairing lands in F_p². Elements are kept in Montgomery form internally;
// a field context, which owns the Montgomery kernel (bigint/mont.h), is
// shared by all elements of the same field.
#pragma once

#include <memory>

#include "bigint/bigint.h"
#include "bigint/mont.h"

namespace reed::pairing {

using bigint::BigInt;

// Shared context for arithmetic mod a fixed prime p (p ≡ 3 mod 4).
class FpField {
 public:
  // Elements hold their value inline in this many limbs: 512-bit p, the
  // default Type-A field, is the widest supported.
  static constexpr std::size_t kLimbs = 8;
  using Kernel = bigint::FixedMont<kLimbs>;
  using Limbs = Kernel::Limbs;

  // Throws Error if p is wider than kLimbs limbs or not 3 mod 4.
  explicit FpField(BigInt p);

  const BigInt& p() const { return kernel_.modulus(); }
  const Kernel& kernel() const { return kernel_; }
  std::size_t element_bytes() const { return ebytes_; }
  // (p+1)/4 — the square-root exponent for p ≡ 3 mod 4.
  const BigInt& sqrt_exp() const { return sqrt_exp_; }

 private:
  Kernel kernel_;
  BigInt sqrt_exp_;
  std::size_t ebytes_;
};

// An element of F_p: Montgomery-form limbs held inline, so arithmetic
// never allocates.
class Fp {
 public:
  Fp() = default;

  static Fp Zero(const FpField* f) { return Fp(f, FpField::Limbs{}); }
  static Fp One(const FpField* f) { return Fp(f, f->kernel().one()); }
  static Fp FromBigInt(const FpField* f, const BigInt& plain);
  static Fp FromU64(const FpField* f, std::uint64_t v);
  static Fp Random(const FpField* f, crypto::Rng& rng);

  BigInt ToBigInt() const;             // plain (non-Montgomery) value
  Bytes ToBytes() const;               // fixed-width big-endian
  static Fp FromBytes(const FpField* f, ByteSpan b);

  bool IsZero() const { return FpField::Kernel::IsZero(v_); }
  bool operator==(const Fp& o) const { return v_ == o.v_; }

  Fp operator+(const Fp& o) const;
  Fp operator-(const Fp& o) const;
  Fp operator*(const Fp& o) const;
  Fp Neg() const;
  Fp Square() const;
  Fp Inverse() const;
  Fp Pow(const BigInt& e) const;

  // Square root for p ≡ 3 mod 4; returns false if not a QR.
  bool Sqrt(Fp* out) const;

  const FpField* field() const { return field_; }

  // The Montgomery-form limbs themselves, for code that stores elements in
  // bulk and selects among them with masks (G1FixedBase's tables).
  static Fp FromMont(const FpField* f, const FpField::Limbs& mont_value) {
    return Fp(f, mont_value);
  }
  const FpField::Limbs& mont() const { return v_; }

 private:
  Fp(const FpField* field, const FpField::Limbs& mont_value)
      : field_(field), v_(mont_value) {}

  const FpField* field_ = nullptr;
  FpField::Limbs v_{};  // Montgomery form, < p
};
// An element a + b·i of F_p², i² = -1 (valid because p ≡ 3 mod 4).
class Fp2 {
 public:
  Fp2() = default;
  Fp2(Fp a, Fp b) : a_(std::move(a)), b_(std::move(b)) {}

  static Fp2 One(const FpField* f) { return Fp2(Fp::One(f), Fp::Zero(f)); }

  const Fp& a() const { return a_; }
  const Fp& b() const { return b_; }

  bool IsOne() const;
  bool operator==(const Fp2& o) const { return a_ == o.a_ && b_ == o.b_; }

  Fp2 operator+(const Fp2& o) const { return Fp2(a_ + o.a_, b_ + o.b_); }
  Fp2 operator-(const Fp2& o) const { return Fp2(a_ - o.a_, b_ - o.b_); }
  Fp2 operator*(const Fp2& o) const;
  Fp2 Square() const;
  Fp2 Conjugate() const { return Fp2(a_, b_.Neg()); }
  Fp2 Inverse() const;
  Fp2 Pow(const BigInt& e) const;

  Bytes ToBytes() const;
  static Fp2 FromBytes(const FpField* f, ByteSpan bytes);

 private:
  Fp a_, b_;
};

}  // namespace reed::pairing
