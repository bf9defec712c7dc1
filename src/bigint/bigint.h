// Arbitrary-precision unsigned integer arithmetic, from scratch.
//
// This is the numeric substrate under REED's public-key layer: the RSA
// blind-signature OPRF (DupLESS-style MLE key generation), RSA key
// regression, and the F_p / F_p² towers of the Type-A pairing that powers
// CP-ABE. Little-endian 64-bit limbs, normalized (no trailing zero limbs);
// values are non-negative — the few places needing signed intermediate
// results (extended gcd) handle the sign locally.
//
// BigInt is the general-purpose layer: parsing, key generation, prime
// search, division and inversion. It does no modular multiplication of its
// own beyond the MulMod reference; PowMod and every kept context run on
// the allocation-free Montgomery kernel in bigint/mont.h.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/random.h"
#include "util/bytes.h"

namespace reed::bigint {

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t v) { if (v) limbs_.push_back(v); }  // NOLINT: implicit by design

  // Hex parsing/printing (no 0x prefix); bytes are big-endian.
  static BigInt FromHex(std::string_view hex);
  static BigInt FromBytes(ByteSpan be_bytes);
  // Little-endian 64-bit limbs (the Montgomery kernel's representation).
  static BigInt FromLimbs(std::span<const std::uint64_t> limbs);
  std::string ToHex() const;
  Bytes ToBytes() const;                  // minimal big-endian encoding
  Bytes ToBytesPadded(std::size_t n) const;  // left-padded to n bytes

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }

  // Number of significant bits (0 for zero).
  std::size_t BitLength() const;
  bool Bit(std::size_t i) const;
  std::size_t LimbCount() const { return limbs_.size(); }
  std::uint64_t Limb(std::size_t i) const {
    return i < limbs_.size() ? limbs_[i] : 0;
  }
  // Low 64 bits.
  std::uint64_t ToU64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  std::strong_ordering operator<=>(const BigInt& other) const;
  bool operator==(const BigInt& other) const = default;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;  // throws if other > *this
  BigInt operator*(const BigInt& other) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  // True in-place arithmetic (no allocation when capacity suffices) — the
  // binary-GCD inversion inner loop lives on these.
  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);  // throws if other > *this
  void ShiftRight1InPlace();

  // Quotient and remainder; throws on division by zero.
  struct DivMod;
  DivMod Divide(const BigInt& divisor) const;
  BigInt operator/(const BigInt& d) const;
  BigInt operator%(const BigInt& d) const;

  // Single-limb fast paths.
  BigInt MulLimb(std::uint64_t m) const;
  std::uint64_t ModLimb(std::uint64_t m) const;

  // (a + b) mod m, (a - b) mod m, (a * b) mod m — inputs need not be reduced.
  // MulMod is schoolbook multiply then division: the reference the
  // Montgomery kernel is tested against. Code that multiplies modulo one
  // value repeatedly keeps a MontContext (bigint/mont.h) instead.
  static BigInt AddMod(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt SubMod(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt MulMod(const BigInt& a, const BigInt& b, const BigInt& m);

  // a^e mod m on the Montgomery kernel (MontContext): m must be odd and at
  // most 2048 bits, or m = 1; anything else throws Error.
  static BigInt PowMod(const BigInt& a, const BigInt& e, const BigInt& m);

  static BigInt Gcd(BigInt a, BigInt b);

  // Modular inverse via extended Euclid; throws Error if gcd(a, m) != 1.
  static BigInt InverseMod(const BigInt& a, const BigInt& m);
  // As InverseMod, but nullopt when gcd(a, m) != 1, for callers that draw
  // again instead of failing.
  static std::optional<BigInt> TryInverseMod(const BigInt& a, const BigInt& m);

  // Uniform random value in [0, bound) / exact bit length.
  static BigInt Random(crypto::Rng& rng, const BigInt& bound);
  static BigInt RandomBits(crypto::Rng& rng, std::size_t bits);

 private:
  void Normalize();
  std::vector<std::uint64_t> limbs_;
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

inline BigInt BigInt::operator/(const BigInt& d) const {
  return Divide(d).quotient;
}
inline BigInt BigInt::operator%(const BigInt& d) const {
  return Divide(d).remainder;
}

}  // namespace reed::bigint
