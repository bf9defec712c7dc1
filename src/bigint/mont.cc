#include "bigint/mont.h"

#include <type_traits>
#include <vector>

namespace reed::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {

// A three-limb column accumulator for product scanning.
struct Accumulator {
  u128 lo = 0;  // limbs 0 and 1
  u64 hi = 0;   // limb 2

  void MulAdd(u64 x, u64 y) {
    hi += static_cast<u64>(__builtin_add_overflow(lo, static_cast<u128>(x) * y, &lo));
  }
  void Add(const Accumulator& o) {
    hi += o.hi + static_cast<u64>(__builtin_add_overflow(lo, o.lo, &lo));
  }
  void Double() {
    hi = (hi << 1) | static_cast<u64>(lo >> 127);
    lo <<= 1;
  }
  u64 Low() const { return static_cast<u64>(lo); }
  // Drops limb 0: the accumulator moves on to the next column.
  void Shift() {
    lo = (lo >> 64) | (static_cast<u128>(hi) << 64);
    hi = 0;
  }
};

// Bits [pos, pos + w) of e, w <= 5.
u64 WindowAt(const BigInt& e, std::size_t pos, std::size_t w) {
  std::size_t limb = pos / 64;
  std::size_t shift = pos % 64;
  u64 bits = e.Limb(limb) >> shift;
  if (shift + w > 64) bits |= e.Limb(limb + 1) << (64 - shift);
  return bits & ((u64{1} << w) - 1);
}

}  // namespace

template <std::size_t N>
FixedMont<N>::FixedMont(const BigInt& modulus) : modulus_(modulus) {
  if (!modulus.IsOdd() || modulus.IsOne()) {
    throw Error("FixedMont: modulus must be odd and > 1");
  }
  if (modulus.LimbCount() > N) {
    throw Error("FixedMont: modulus wider than the kernel");
  }
  n_ = ToLimbs(modulus);
  // n' = −n⁻¹ mod 2⁶⁴ by Newton–Hensel lifting (each step doubles the
  // correct low bits: 1 → 64).
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n_[0] * inv;
  n0inv_ = u64{0} - inv;

  // R mod n: double 2^(b−1) < n up to 2^(64N), reducing as we go.
  auto double_mod = [this](Limbs& x) {
    u64 carry = x[N - 1] >> 63;
    for (std::size_t i = N; i-- > 1;) x[i] = (x[i] << 1) | (x[i - 1] >> 63);
    x[0] <<= 1;
    ReduceOnce(x, x.data(), carry);
  };
  std::size_t b = modulus.BitLength();
  Limbs x{};
  x[(b - 1) / 64] = u64{1} << ((b - 1) % 64);
  for (std::size_t i = b - 1; i < 64 * N; ++i) double_mod(x);
  one_ = x;
  // R² mod n is the Montgomery form of 2^(64N): double R mod n to the form
  // of 2^64, then square log2(N) times.
  for (int i = 0; i < 64; ++i) double_mod(x);
  for (std::size_t s = 64; s < 64 * N; s *= 2) Square(x, x);
  r2_ = x;
  Mul(r3_, r2_, r2_);
}

template <std::size_t N>
void FixedMont<N>::ReduceOnce(Limbs& out, const u64* t, u64 hi) const {
  Limbs d;
  u64 borrow = 0;
  for (std::size_t i = 0; i < N; ++i) {
    u128 s = static_cast<u128>(t[i]) - n_[i] - borrow;
    d[i] = static_cast<u64>(s);
    borrow = static_cast<u64>(s >> 64) & 1;
  }
  // Keep t − n when it did not underflow, or when the limb above t absorbs
  // the borrow.
  u64 mask = u64{0} - (hi | (borrow ^ 1));
  for (std::size_t i = 0; i < N; ++i) out[i] = (d[i] & mask) | (t[i] & ~mask);
}

template <std::size_t N>
void FixedMont<N>::Mul(Limbs& out, const Limbs& a, const Limbs& b) const {
  // Product scanning with the reduction interleaved column by column
  // (FIPS, Koç et al.): column k sums every a_j·b_(k−j) and m_j·n_(k−j) in a
  // three-limb accumulator, so the running sum stays in registers. Column
  // i < N also picks m_i to clear its low limb. With a < R and b < n the
  // result is below 2n.
  u64 m[N];
  u64 r[N];
  Accumulator acc;
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      acc.MulAdd(a[j], b[i - j]);
      acc.MulAdd(m[j], n_[i - j]);
    }
    acc.MulAdd(a[i], b[0]);
    m[i] = acc.Low() * n0inv_;
    acc.MulAdd(m[i], n_[0]);
    acc.Shift();
  }
  for (std::size_t i = N; i < 2 * N; ++i) {
    for (std::size_t j = i - N + 1; j < N; ++j) {
      acc.MulAdd(a[j], b[i - j]);
      acc.MulAdd(m[j], n_[i - j]);
    }
    r[i - N] = acc.Low();
    acc.Shift();
  }
  ReduceOnce(out, r, acc.Low());
}

template <std::size_t N>
void FixedMont<N>::Square(Limbs& out, const Limbs& a) const {
  // Mul's column schedule, with each cross product a_j·a_(k−j), j < k−j,
  // computed once and doubled: about 3/4 of a multiply's limb products.
  // For a < n the result is below 2n.
  u64 m[N];
  u64 r[N];
  Accumulator acc;
  auto square_terms = [&](std::size_t k) {
    Accumulator cross;
    std::size_t lo = k < N ? 0 : k - N + 1;
    for (std::size_t j = lo; 2 * j < k; ++j) cross.MulAdd(a[j], a[k - j]);
    cross.Double();
    acc.Add(cross);
    if (k % 2 == 0) acc.MulAdd(a[k / 2], a[k / 2]);
  };
  for (std::size_t i = 0; i < N; ++i) {
    square_terms(i);
    for (std::size_t j = 0; j < i; ++j) acc.MulAdd(m[j], n_[i - j]);
    m[i] = acc.Low() * n0inv_;
    acc.MulAdd(m[i], n_[0]);
    acc.Shift();
  }
  for (std::size_t i = N; i < 2 * N; ++i) {
    square_terms(i);
    for (std::size_t j = i - N + 1; j < N; ++j) acc.MulAdd(m[j], n_[i - j]);
    r[i - N] = acc.Low();
    acc.Shift();
  }
  ReduceOnce(out, r, acc.Low());
}

template <std::size_t N>
void FixedMont<N>::Add(Limbs& out, const Limbs& a, const Limbs& b) const {
  u64 t[N];
  u64 carry = 0;
  for (std::size_t i = 0; i < N; ++i) {
    u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    t[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  ReduceOnce(out, t, carry);
}

template <std::size_t N>
void FixedMont<N>::Sub(Limbs& out, const Limbs& a, const Limbs& b) const {
  u64 t[N];
  u64 borrow = 0;
  for (std::size_t i = 0; i < N; ++i) {
    u128 s = static_cast<u128>(a[i]) - b[i] - borrow;
    t[i] = static_cast<u64>(s);
    borrow = static_cast<u64>(s >> 64) & 1;
  }
  // Add n back when a < b.
  u64 mask = u64{0} - borrow;
  u64 carry = 0;
  for (std::size_t i = 0; i < N; ++i) {
    u128 s = static_cast<u128>(t[i]) + (n_[i] & mask) + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
}

template <std::size_t N>
void FixedMont<N>::Neg(Limbs& out, const Limbs& a) const {
  Sub(out, Limbs{}, a);
}

template <std::size_t N>
void FixedMont<N>::Pow(Limbs& out, const Limbs& base, const BigInt& exp) const {
  std::size_t bits = exp.BitLength();
  if (bits == 0) {
    out = one_;
    return;
  }
  // Window width by exponent length (fewest multiplies for table + loop):
  // 2 for a 17-bit public exponent, 4 for 512-bit CRT exponents. A 5-bit
  // window would save ~1% of a 512-bit Pow's multiplies but double the
  // masked scan below, which costs more.
  const std::size_t w = bits > 80 ? 4 : bits > 24 ? 3 : 2;
  std::array<Limbs, 16> table;  // table[i] = base^i
  table[0] = one_;
  table[1] = base;
  for (std::size_t i = 2; i < (std::size_t{1} << w); ++i) {
    Mul(table[i], table[i - 1], base);
  }
  // table[index], reading every entry: each is ANDed with a mask that is
  // all ones only for the wanted one, so no load or branch depends on the
  // exponent's bits (the lane kernel's Select does the same).
  const std::size_t entries = std::size_t{1} << w;
  auto select = [&](Limbs& dst, u64 index) {
    dst = Limbs{};
    for (std::size_t e = 0; e < entries; ++e) {
      // (e ^ index) − 1 has its top bit set only when e == index.
      const u64 hit = u64{0} - (((e ^ index) - 1) >> 63);
      for (std::size_t i = 0; i < N; ++i) dst[i] |= table[e][i] & hit;
    }
  };
  // Every window costs w squarings and one multiply, zero windows included.
  std::size_t windows = (bits + w - 1) / w;
  Limbs acc{};
  Limbs entry{};
  select(acc, WindowAt(exp, (windows - 1) * w, w));
  for (std::size_t k = windows - 1; k-- > 0;) {
    for (std::size_t s = 0; s < w; ++s) Square(acc, acc);
    select(entry, WindowAt(exp, k * w, w));
    Mul(acc, acc, entry);
  }
  out = acc;
}

template <std::size_t N>
typename FixedMont<N>::Limbs FixedMont<N>::ToMont(const BigInt& x) const {
  if (x.LimbCount() > 2 * N) return ToMont(x % modulus_);
  // x = hi·R + lo, so x·R ≡ lo·R² + hi·R³ (mod n).
  Limbs lo, out;
  for (std::size_t i = 0; i < N; ++i) lo[i] = x.Limb(i);
  Mul(out, lo, r2_);
  if (x.LimbCount() > N) {
    Limbs hi;
    for (std::size_t i = 0; i < N; ++i) hi[i] = x.Limb(N + i);
    Mul(hi, hi, r3_);
    Add(out, out, hi);
  }
  return out;
}

template <std::size_t N>
typename FixedMont<N>::Limbs FixedMont<N>::FromMont(const Limbs& a) const {
  Limbs unit{};
  unit[0] = 1;
  Limbs out;
  Mul(out, a, unit);
  return out;
}

template <std::size_t N>
typename FixedMont<N>::Limbs FixedMont<N>::ToLimbs(const BigInt& x) {
  if (x.LimbCount() > N) throw Error("FixedMont: value wider than the kernel");
  Limbs out;
  for (std::size_t i = 0; i < N; ++i) out[i] = x.Limb(i);
  return out;
}

template <std::size_t N>
BigInt FixedMont<N>::ToBigInt(const Limbs& a) {
  return BigInt::FromLimbs(a);
}

template <std::size_t N>
bool FixedMont<N>::IsZero(const Limbs& a) {
  u64 acc = 0;
  for (u64 limb : a) acc |= limb;
  return acc == 0;
}

template class FixedMont<4>;
template class FixedMont<8>;
template class FixedMont<16>;
template class FixedMont<32>;

// ---------------------------------------------------------------------------
// MontContext
// ---------------------------------------------------------------------------

namespace {

using Kernel = std::variant<FixedMont<4>, FixedMont<8>, FixedMont<16>, FixedMont<32>>;

Kernel NarrowestKernel(const BigInt& m) {
  std::size_t k = m.LimbCount();
  if (k <= 4) return FixedMont<4>(m);
  if (k <= 8) return FixedMont<8>(m);
  if (k <= 16) return FixedMont<16>(m);
  if (k <= MontContext::kMaxLimbs) return FixedMont<32>(m);
  throw Error("MontContext: modulus wider than 2048 bits");
}

}  // namespace

MontContext::MontContext(const BigInt& modulus)
    : kernel_(NarrowestKernel(modulus)) {}

const BigInt& MontContext::modulus() const {
  return std::visit([](const auto& k) -> const BigInt& { return k.modulus(); },
                    kernel_);
}

BigInt MontContext::Mul(const BigInt& a, const BigInt& b) const {
  return std::visit(
      [&](const auto& k) {
        using K = std::decay_t<decltype(k)>;
        // (a·R)·b·R⁻¹ = a·b: b only has to fit in the limbs, not be reduced.
        typename K::Limbs x = k.ToMont(a);
        typename K::Limbs y = b.LimbCount() <= x.size()
                                  ? K::ToLimbs(b)
                                  : k.FromMont(k.ToMont(b));
        k.Mul(x, x, y);
        return K::ToBigInt(x);
      },
      kernel_);
}

BigInt MontContext::Pow(const BigInt& base, const BigInt& exp) const {
  return std::visit(
      [&](const auto& k) {
        using K = std::decay_t<decltype(k)>;
        typename K::Limbs x = k.ToMont(base);
        k.Pow(x, x, exp);
        return K::ToBigInt(k.FromMont(x));
      },
      kernel_);
}

BigInt MontContext::Reduce(const BigInt& x) const {
  return std::visit(
      [&](const auto& k) {
        using K = std::decay_t<decltype(k)>;
        return K::ToBigInt(k.FromMont(k.ToMont(x)));
      },
      kernel_);
}

bool MontContext::TryInvertAll(std::span<const BigInt> a,
                               std::span<BigInt> out) const {
  if (out.size() != a.size()) {
    throw Error("MontContext::TryInvertAll: input and output sizes differ");
  }
  for (const BigInt& v : a) {
    if (v >= modulus()) throw Error("MontContext::TryInvertAll: value not reduced");
  }
  if (a.empty()) return true;
  return std::visit(
      [&](const auto& k) {
        using K = std::decay_t<decltype(k)>;
        using Limbs = typename K::Limbs;
        // Mul(x, y) = x·y·R⁻¹, so on plain values the prefix products carry
        // powers of R⁻¹: prefix[i] = a_0 ··· a_i · R^−i.
        const std::size_t n = a.size();
        std::vector<Limbs> prefix(n);
        prefix[0] = K::ToLimbs(a[0]);
        for (std::size_t i = 1; i < n; ++i) {
          k.Mul(prefix[i], prefix[i - 1], K::ToLimbs(a[i]));
        }
        std::optional<BigInt> total =
            BigInt::TryInverseMod(K::ToBigInt(prefix[n - 1]), modulus());
        if (!total) return false;
        // inv = (a_0 ··· a_i)⁻¹ · R^i, starting at i = n − 1. Then
        // Mul(inv, prefix[i − 1]) = a_i⁻¹ exactly, and Mul(inv, a_i) steps
        // to i − 1; at i = 0 no power of R is left.
        Limbs inv = K::ToLimbs(*total);
        Limbs t;
        for (std::size_t i = n; i-- > 1;) {
          k.Mul(t, inv, prefix[i - 1]);
          out[i] = K::ToBigInt(t);
          k.Mul(inv, inv, K::ToLimbs(a[i]));
        }
        out[0] = K::ToBigInt(inv);
        return true;
      },
      kernel_);
}

}  // namespace reed::bigint
