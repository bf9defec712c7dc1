// The scalar Montgomery kernel: every modular multiplication in REED runs
// here, except the OPRF signer's lane groups (bigint/mont_lanes.h), for
// which it is the oracle and the fallback.
//
// FixedMont<N> works modulo an odd n of at most N 64-bit limbs with
// R = 2^(64N). Values live in std::array limbs on the stack, so once a
// context exists no operation allocates: Montgomery multiplication by
// product scanning with the reduction interleaved (FIPS), a dedicated
// squaring that computes each cross product once, modular add/sub/neg, and
// fixed-window exponentiation that runs the same squarings and multiplies
// whatever the exponent's bits are. The final subtraction is a masked
// select, not a branch, and Pow reads its window table by a masked scan
// over every entry, so no load address depends on the exponent's bits
// either. (The exponent's bit length still sets the window count.)
//
// Users: the F_p field of the Type-A pairing keeps a FixedMont<8>
// (pairing/field.h); everything working modulo an RSA value (N, p, q), the
// CP-ABE scalar field and Miller–Rabin goes through MontContext, which picks
// the narrowest instance that fits the modulus.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <variant>

#include "bigint/bigint.h"

namespace reed::bigint {

template <std::size_t N>
class FixedMont {
  static_assert(N >= 2 && (N & (N - 1)) == 0, "limb count must be a power of two");

 public:
  using Limbs = std::array<std::uint64_t, N>;

  // Throws Error unless the modulus is odd, > 1 and at most N limbs wide.
  explicit FixedMont(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }
  // R mod n: 1 in Montgomery form.
  const Limbs& one() const { return one_; }

  // out = a·b·R⁻¹ mod n, fully reduced. One operand may be any N-limb value;
  // the other must be < n. out may alias a or b.
  void Mul(Limbs& out, const Limbs& a, const Limbs& b) const;
  // out = a²·R⁻¹ mod n for a < n.
  void Square(Limbs& out, const Limbs& a) const;
  // Modular add / subtract / negate of reduced values.
  void Add(Limbs& out, const Limbs& a, const Limbs& b) const;
  void Sub(Limbs& out, const Limbs& a, const Limbs& b) const;
  void Neg(Limbs& out, const Limbs& a) const;
  // out = base^exp, base and out in Montgomery form (base < n).
  void Pow(Limbs& out, const Limbs& base, const BigInt& exp) const;

  // x·R mod n for x of up to 2N limbs: two multiplies, no division (an
  // RSA value x < pq enters the mod-p context directly). Wider x is first
  // reduced by BigInt division.
  Limbs ToMont(const BigInt& x) const;
  // a·R⁻¹ mod n: the plain value of a Montgomery-form a.
  Limbs FromMont(const Limbs& a) const;

  // Limb conversion; ToLimbs throws Error if x is wider than N limbs.
  static Limbs ToLimbs(const BigInt& x);
  static BigInt ToBigInt(const Limbs& a);
  static bool IsZero(const Limbs& a);

 private:
  // out = t − n if (hi:t) ≥ n, else t (hi is the limb above t, 0 or 1).
  void ReduceOnce(Limbs& out, const std::uint64_t* t, std::uint64_t hi) const;

  Limbs n_{};
  std::uint64_t n0inv_ = 0;  // −n⁻¹ mod 2⁶⁴
  Limbs one_{};              // R mod n
  Limbs r2_{};               // R² mod n
  Limbs r3_{};               // R³ mod n
  BigInt modulus_;
};

extern template class FixedMont<4>;
extern template class FixedMont<8>;
extern template class FixedMont<16>;
extern template class FixedMont<32>;

// A kept context for one odd modulus of up to 2048 bits, backed by the
// narrowest FixedMont that holds it, with plain (non-Montgomery) BigInt
// values in and out. Inputs need not be reduced. Building one costs a few
// hundred limb doublings and a handful of multiplies, no division.
class MontContext {
 public:
  static constexpr std::size_t kMaxLimbs = 32;

  // Throws Error unless the modulus is odd, > 1 and at most kMaxLimbs wide.
  explicit MontContext(const BigInt& modulus);

  const BigInt& modulus() const;

  // a·b mod n.
  [[nodiscard]] BigInt Mul(const BigInt& a, const BigInt& b) const;
  // base^exp mod n.
  [[nodiscard]] BigInt Pow(const BigInt& base, const BigInt& exp) const;
  // x mod n without division for x of up to twice the kernel's width
  // (ToMont, then FromMont).
  [[nodiscard]] BigInt Reduce(const BigInt& x) const;
  // out[i] = a[i]⁻¹ mod n for every a[i] < n, by Montgomery's trick on the
  // kernel's limbs: one BigInt inversion for the whole batch and three
  // kernel multiplies per value, with no conversion in or out of Montgomery
  // form. Returns false, with out unspecified, when the product of the
  // values is not invertible (one of them shares a factor with n). Throws
  // Error unless out holds a.size() values and every a[i] < n.
  [[nodiscard]] bool TryInvertAll(std::span<const BigInt> a,
                                  std::span<BigInt> out) const;

 private:
  std::variant<FixedMont<4>, FixedMont<8>, FixedMont<16>, FixedMont<32>> kernel_;
};

}  // namespace reed::bigint
