#include "bigint/bigint.h"

#include <algorithm>

#include "bigint/mont.h"

namespace reed::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::FromHex(std::string_view hex) {
  BigInt out;
  // Left-pad to a whole number of limbs (16 hex digits each).
  std::string padded(hex);
  if (padded.empty()) return out;
  std::size_t rem = padded.size() % 16;
  if (rem) padded.insert(0, 16 - rem, '0');
  std::size_t nlimbs = padded.size() / 16;
  out.limbs_.resize(nlimbs);
  for (std::size_t i = 0; i < nlimbs; ++i) {
    std::string_view part(padded.data() + 16 * (nlimbs - 1 - i), 16);
    u64 v = 0;
    for (char c : part) {
      int d;
      if (c >= '0' && c <= '9') d = c - '0';
      else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
      else throw Error("BigInt::FromHex: bad digit");
      v = (v << 4) | static_cast<u64>(d);
    }
    out.limbs_[i] = v;
  }
  out.Normalize();
  return out;
}

BigInt BigInt::FromLimbs(std::span<const u64> limbs) {
  BigInt out;
  out.limbs_.assign(limbs.begin(), limbs.end());
  out.Normalize();
  return out;
}

BigInt BigInt::FromBytes(ByteSpan be) {
  BigInt out;
  out.limbs_.assign((be.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    // byte be[i] has weight 256^(size-1-i)
    std::size_t pos = be.size() - 1 - i;
    out.limbs_[pos / 8] |= static_cast<u64>(be[i]) << (8 * (pos % 8));
  }
  out.Normalize();
  return out;
}

std::string BigInt::ToHex() const {
  if (limbs_.empty()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(digits[(limbs_[i] >> shift) & 0xF]);
    }
  }
  std::size_t first = out.find_first_not_of('0');
  return first == std::string::npos ? "0" : out.substr(first);
}

Bytes BigInt::ToBytes() const {
  std::size_t bits = BitLength();
  std::size_t nbytes = (bits + 7) / 8;
  return ToBytesPadded(nbytes);
}

Bytes BigInt::ToBytesPadded(std::size_t n) const {
  Bytes out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t pos = n - 1 - i;  // weight of out[i]
    u64 limb = Limb(pos / 8);
    out[i] = static_cast<std::uint8_t>(limb >> (8 * (pos % 8)));
  }
  // Verify nothing was truncated.
  if (BitLength() > n * 8) throw Error("BigInt::ToBytesPadded: value too large");
  return out;
}

std::size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  u64 top = limbs_.back();
  std::size_t bits = 64 * (limbs_.size() - 1);
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::Bit(std::size_t i) const {
  std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::strong_ordering BigInt::operator<=>(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt out;
  std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(Limb(i)) + other.Limb(i) + carry;
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.Normalize();
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (*this < other) throw Error("BigInt: negative subtraction result");
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 lhs = limbs_[i];
    u128 rhs = static_cast<u128>(other.Limb(i)) + borrow;
    if (lhs >= rhs) {
      out.limbs_[i] = static_cast<u64>(lhs - rhs);
      borrow = 0;
    } else {
      out.limbs_[i] = static_cast<u64>((u128(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (IsZero() || other.IsZero()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    u64 a = limbs_[i];
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(a) * other.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + other.limbs_.size()] += carry;
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (IsZero()) return BigInt();
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift ? (limbs_[i] << bit_shift) : limbs_[i];
    if (bit_shift) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    u64 lo = limbs_[i + limb_shift] >> bit_shift;
    u64 hi = 0;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      hi = limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
    out.limbs_[i] = lo | hi;
  }
  out.Normalize();
  return out;
}

BigInt& BigInt::operator+=(const BigInt& other) {
  std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  limbs_.resize(n, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(limbs_[i]) + other.Limb(i) + carry;
    limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  if (carry) limbs_.push_back(carry);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  if (*this < other) throw Error("BigInt: negative subtraction result");
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 lhs = limbs_[i];
    u128 rhs = static_cast<u128>(other.Limb(i)) + borrow;
    if (lhs >= rhs) {
      limbs_[i] = static_cast<u64>(lhs - rhs);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<u64>((u128(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  Normalize();
  return *this;
}

void BigInt::ShiftRight1InPlace() {
  if (limbs_.empty()) return;
  for (std::size_t i = 0; i + 1 < limbs_.size(); ++i) {
    limbs_[i] = (limbs_[i] >> 1) | (limbs_[i + 1] << 63);
  }
  limbs_.back() >>= 1;
  Normalize();
}

BigInt::DivMod BigInt::Divide(const BigInt& divisor) const {
  if (divisor.IsZero()) throw Error("BigInt: division by zero");
  if (*this < divisor) return {BigInt(), *this};

  // Shift-subtract long division, one bit per step, starting from the
  // aligned position. Division is off the hot paths (the Montgomery
  // kernel handles modexp), so clarity wins over Knuth D.
  std::size_t shift = BitLength() - divisor.BitLength();
  BigInt rem = *this;
  BigInt d = divisor << shift;
  BigInt quot;
  quot.limbs_.assign(shift / 64 + 1, 0);
  for (std::size_t i = shift + 1; i-- > 0;) {
    if (rem >= d) {
      rem -= d;
      quot.limbs_[i / 64] |= u64(1) << (i % 64);
    }
    d = d >> 1;
  }
  quot.Normalize();
  return {std::move(quot), std::move(rem)};
}

BigInt BigInt::MulLimb(u64 m) const {
  if (m == 0 || IsZero()) return BigInt();
  BigInt out;
  out.limbs_.resize(limbs_.size() + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 cur = static_cast<u128>(limbs_[i]) * m + carry;
    out.limbs_[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  out.limbs_[limbs_.size()] = carry;
  out.Normalize();
  return out;
}

std::uint64_t BigInt::ModLimb(u64 m) const {
  if (m == 0) throw Error("BigInt::ModLimb: division by zero");
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs_[i]) % m;
  }
  return static_cast<u64>(rem);
}

BigInt BigInt::AddMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a + b) % m;
}

BigInt BigInt::SubMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt ar = a % m;
  BigInt br = b % m;
  if (ar >= br) return ar - br;
  return ar + m - br;
}

BigInt BigInt::MulMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b) % m;
}

BigInt BigInt::PowMod(const BigInt& a, const BigInt& e, const BigInt& m) {
  if (m.IsZero()) throw Error("BigInt::PowMod: zero modulus");
  if (m.IsOne()) return BigInt();
  return MontContext(m).Pow(a, e);
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  while (!b.IsZero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

namespace {

// Binary extended GCD (HAC 14.61 style) — no divisions, so much faster
// than Euclid for the odd moduli that dominate REED (field primes, RSA
// moduli). Requires m odd and > 1; nullopt when gcd(a, m) != 1.
std::optional<BigInt> BinaryInverseOdd(const BigInt& a, const BigInt& m) {
  BigInt u = a % m;
  if (u.IsZero()) return std::nullopt;
  BigInt v = m;
  BigInt x1(1), x2;  // invariants: x1*a ≡ u, x2*a ≡ v (mod m)

  auto half_mod = [&m](BigInt& x) {
    if (x.IsOdd()) x += m;
    x.ShiftRight1InPlace();
  };
  auto sub_mod = [&m](BigInt& x, const BigInt& y) {
    if (x >= y) {
      x -= y;
    } else {
      x += m;
      x -= y;
    }
  };

  while (!u.IsOne() && !v.IsOne()) {
    while (!u.IsOdd()) {
      u.ShiftRight1InPlace();
      half_mod(x1);
    }
    while (!v.IsOdd()) {
      v.ShiftRight1InPlace();
      half_mod(x2);
    }
    if (u >= v) {
      u -= v;
      sub_mod(x1, x2);
      if (u.IsZero()) return std::nullopt;
    } else {
      v -= u;
      sub_mod(x2, x1);
      if (v.IsZero()) return std::nullopt;
    }
  }
  return u.IsOne() ? x1 % m : x2 % m;
}

}  // namespace

BigInt BigInt::InverseMod(const BigInt& a, const BigInt& m) {
  std::optional<BigInt> inv = TryInverseMod(a, m);
  if (!inv) throw Error("BigInt::InverseMod: not invertible");
  return std::move(*inv);
}

std::optional<BigInt> BigInt::TryInverseMod(const BigInt& a, const BigInt& m) {
  // Extended Euclid tracking only the coefficient of `a`, with signs
  // handled by parity bookkeeping: invariants r0 = s0*a (mod m), r1 = s1*a.
  if (m.IsZero()) throw Error("BigInt::InverseMod: zero modulus");
  if (m.IsOdd() && !m.IsOne()) return BinaryInverseOdd(a, m);
  BigInt r0 = m, r1 = a % m;
  BigInt s0, s1(1);       // |s| values
  bool neg0 = false, neg1 = false;
  while (!r1.IsZero()) {
    DivMod qr = r0.Divide(r1);
    // s2 = s0 - q*s1 with sign tracking.
    BigInt qs1 = qr.quotient * s1;
    BigInt s2;
    bool neg2;
    if (neg0 == neg1) {
      if (s0 >= qs1) {
        s2 = s0 - qs1;
        neg2 = neg0;
      } else {
        s2 = qs1 - s0;
        neg2 = !neg0;
      }
    } else {
      s2 = s0 + qs1;
      neg2 = neg0;
    }
    r0 = std::move(r1);
    r1 = std::move(qr.remainder);
    s0 = std::move(s1);
    neg0 = neg1;
    s1 = std::move(s2);
    neg1 = neg2;
  }
  if (!r0.IsOne()) return std::nullopt;
  BigInt inv = s0 % m;
  if (neg0 && !inv.IsZero()) inv = m - inv;
  return inv;
}

BigInt BigInt::Random(crypto::Rng& rng, const BigInt& bound) {
  if (bound.IsZero()) throw Error("BigInt::Random: zero bound");
  std::size_t bits = bound.BitLength();
  // Rejection sampling at the bound's bit length: expected < 2 draws.
  for (;;) {
    BigInt candidate = RandomBits(rng, bits);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::RandomBits(crypto::Rng& rng, std::size_t bits) {
  if (bits == 0) return BigInt();
  std::size_t nbytes = (bits + 7) / 8;
  Bytes buf = rng.Generate(nbytes);
  // Mask excess high bits.
  std::size_t excess = nbytes * 8 - bits;
  buf[0] &= static_cast<std::uint8_t>(0xFF >> excess);
  return FromBytes(buf);
}

}  // namespace reed::bigint
