// BigInt / Montgomery kernel / primality tests: fixed vectors, randomized
// algebraic-identity property suites, differential tests of the kernel
// (bigint/mont.h) against schoolbook BigInt arithmetic, and of the lane
// kernel (bigint/mont_lanes.h) against the scalar one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "bigint/bigint.h"
#include "bigint/mont.h"
#include "bigint/mont_lanes.h"
#include "bigint/prime.h"
#include "crypto/random.h"

namespace reed::bigint {
namespace {

using crypto::DeterministicRng;

TEST(BigIntTest, HexRoundTrip) {
  EXPECT_EQ(BigInt::FromHex("0").ToHex(), "0");
  EXPECT_EQ(BigInt::FromHex("ff").ToHex(), "ff");
  EXPECT_EQ(BigInt::FromHex("1234567890abcdef1234567890abcdef").ToHex(),
            "1234567890abcdef1234567890abcdef");
  EXPECT_EQ(BigInt::FromHex("000123").ToHex(), "123");
  EXPECT_THROW(BigInt::FromHex("xyz"), Error);
}

TEST(BigIntTest, BytesRoundTrip) {
  Bytes be = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  BigInt v = BigInt::FromBytes(be);
  EXPECT_EQ(v.ToBytes(), be);
  EXPECT_EQ(v.ToBytesPadded(12), (Bytes{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_THROW(v.ToBytesPadded(4), Error);
  EXPECT_EQ(BigInt().ToBytes(), Bytes{});
}

TEST(BigIntTest, ComparisonAndBitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ((BigInt(1) << 100).BitLength(), 101u);
  EXPECT_LT(BigInt(5), BigInt(6));
  EXPECT_GT(BigInt(1) << 64, BigInt(~std::uint64_t{0}));
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt max64(~std::uint64_t{0});
  BigInt sum = max64 + BigInt(1);
  EXPECT_EQ(sum.ToHex(), "10000000000000000");
  EXPECT_EQ((sum - BigInt(1)).ToHex(), "ffffffffffffffff");
}

TEST(BigIntTest, SubtractionThrowsOnNegative) {
  EXPECT_THROW(BigInt(1) - BigInt(2), Error);
}

TEST(BigIntTest, MultiplicationKnownValue) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  BigInt max64(~std::uint64_t{0});
  EXPECT_EQ((max64 * max64).ToHex(), "fffffffffffffffe0000000000000001");
  EXPECT_EQ((BigInt(0) * max64).ToHex(), "0");
}

TEST(BigIntTest, ShiftsRoundTrip) {
  BigInt v = BigInt::FromHex("deadbeefcafebabe1234");
  EXPECT_EQ(((v << 67) >> 67), v);
  EXPECT_EQ((v >> 1000).ToHex(), "0");
  EXPECT_EQ((BigInt(1) << 64).ToHex(), "10000000000000000");
}

TEST(BigIntTest, InPlaceAddSubMatchOutOfPlace) {
  DeterministicRng rng(50);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::RandomBits(rng, 300);
    BigInt b = BigInt::RandomBits(rng, 280);
    BigInt sum = a;
    sum += b;
    EXPECT_EQ(sum, a + b);
    BigInt diff = sum;
    diff -= b;
    EXPECT_EQ(diff, a);
  }
  BigInt small(1);
  EXPECT_THROW(small -= BigInt(2), Error);
}

TEST(BigIntTest, InPlaceAddCarryPropagation) {
  // All-ones value + 1 must grow a limb in place.
  BigInt v = (BigInt(1) << 192) - BigInt(1);
  v += BigInt(1);
  EXPECT_EQ(v, BigInt(1) << 192);
}

TEST(BigIntTest, ShiftRight1InPlaceMatchesShift) {
  DeterministicRng rng(51);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::RandomBits(rng, 200);
    BigInt b = a;
    b.ShiftRight1InPlace();
    EXPECT_EQ(b, a >> 1);
  }
  BigInt zero;
  zero.ShiftRight1InPlace();
  EXPECT_TRUE(zero.IsZero());
  BigInt one(1);
  one.ShiftRight1InPlace();
  EXPECT_TRUE(one.IsZero());
}

TEST(BigIntTest, InverseModOddAndEvenModuliAgree) {
  // The odd-modulus binary fast path and the Euclid fallback must agree
  // on values where both apply (compare against multiplying back).
  DeterministicRng rng(52);
  BigInt odd_m = BigInt::RandomBits(rng, 256);
  if (!odd_m.IsOdd()) odd_m += BigInt(1);
  BigInt even_m = odd_m + BigInt(1);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::Random(rng, odd_m);
    if (BigInt::Gcd(a, odd_m).IsOne()) {
      EXPECT_TRUE(
          BigInt::MulMod(a, BigInt::InverseMod(a, odd_m), odd_m).IsOne());
    }
    if (BigInt::Gcd(a, even_m).IsOne() && !a.IsZero()) {
      EXPECT_TRUE(
          BigInt::MulMod(a, BigInt::InverseMod(a, even_m), even_m).IsOne());
    }
  }
  EXPECT_THROW(BigInt::InverseMod(BigInt(0), odd_m), Error);
}

TEST(BigIntTest, DivisionKnownValues) {
  auto dm = BigInt(100).Divide(BigInt(7));
  EXPECT_EQ(dm.quotient.ToU64(), 14u);
  EXPECT_EQ(dm.remainder.ToU64(), 2u);
  EXPECT_THROW(BigInt(1).Divide(BigInt(0)), Error);
  // Dividend smaller than divisor.
  auto dm2 = BigInt(3).Divide(BigInt(10));
  EXPECT_TRUE(dm2.quotient.IsZero());
  EXPECT_EQ(dm2.remainder.ToU64(), 3u);
}

TEST(BigIntTest, DivisionIdentityRandomized) {
  DeterministicRng rng(1);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomBits(rng, 512);
    BigInt b = BigInt::RandomBits(rng, 200) + BigInt(1);
    auto dm = a.Divide(b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
    EXPECT_LT(dm.remainder, b);
  }
}

TEST(BigIntTest, ModLimbMatchesGeneralMod) {
  DeterministicRng rng(2);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::RandomBits(rng, 300);
    std::uint64_t m = rng.NextU64() | 1;
    EXPECT_EQ(a.ModLimb(m), (a % BigInt(m)).ToU64());
  }
}

TEST(BigIntTest, ModularHelpers) {
  BigInt m(1000000007);
  EXPECT_EQ(BigInt::AddMod(BigInt(1000000006), BigInt(5), m).ToU64(), 4u);
  EXPECT_EQ(BigInt::SubMod(BigInt(3), BigInt(5), m).ToU64(), 1000000005u);
  EXPECT_EQ(BigInt::MulMod(BigInt(123456789), BigInt(987654321), m),
            (BigInt(123456789) * BigInt(987654321)) % m);
}

TEST(BigIntTest, PowModSmallKnownValues) {
  EXPECT_EQ(BigInt::PowMod(BigInt(2), BigInt(10), BigInt(1001)).ToU64(), 23u);
  EXPECT_EQ(BigInt::PowMod(BigInt(3), BigInt(0), BigInt(7)).ToU64(), 1u);
  EXPECT_EQ(BigInt::PowMod(BigInt(5), BigInt(117), BigInt(19)).ToU64(), 1u);
  EXPECT_EQ(BigInt::PowMod(BigInt(3), BigInt(4), BigInt(101)).ToU64(), 81u);
  EXPECT_TRUE(BigInt::PowMod(BigInt(3), BigInt(4), BigInt(1)).IsZero());
  // Only odd moduli run: the Montgomery kernel has no even case.
  EXPECT_THROW((void)BigInt::PowMod(BigInt(2), BigInt(10), BigInt(1000)), Error);
  EXPECT_THROW((void)BigInt::PowMod(BigInt(2), BigInt(10), BigInt(0)), Error);
}

TEST(BigIntTest, FermatLittleTheorem) {
  // p prime, a^(p-1) = 1 mod p.
  BigInt p = BigInt::FromHex("ffffffffffffffc5");  // largest 64-bit prime
  DeterministicRng rng(3);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::Random(rng, p - BigInt(1)) + BigInt(1);
    EXPECT_TRUE(BigInt::PowMod(a, p - BigInt(1), p).IsOne());
  }
}

TEST(BigIntTest, GcdKnownValues) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(18)).ToU64(), 6u);
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToU64(), 1u);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToU64(), 5u);
}

TEST(BigIntTest, InverseModCorrectness) {
  DeterministicRng rng(4);
  BigInt m = BigInt::FromHex("fffffffffffffffffffffffffffffffeffffffffffffffff");
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::Random(rng, m);
    if (!BigInt::Gcd(a, m).IsOne()) continue;
    BigInt inv = BigInt::InverseMod(a, m);
    EXPECT_TRUE(BigInt::MulMod(a, inv, m).IsOne());
  }
  EXPECT_THROW(BigInt::InverseMod(BigInt(4), BigInt(8)), Error);
  EXPECT_FALSE(BigInt::TryInverseMod(BigInt(4), BigInt(8)).has_value());
  // Odd (binary-inverse) path: 21 shares the factor 3 with 15 * 7.
  EXPECT_FALSE(BigInt::TryInverseMod(BigInt(21), BigInt(105)).has_value());
  EXPECT_EQ(BigInt::TryInverseMod(BigInt(2), BigInt(105)), BigInt(53));
}

TEST(MontgomeryTest, MatchesNaiveModMul) {
  DeterministicRng rng(5);
  BigInt m = BigInt::RandomBits(rng, 512);
  if (!m.IsOdd()) m += BigInt(1);
  MontContext mont(m);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::Random(rng, m);
    BigInt b = BigInt::Random(rng, m);
    EXPECT_EQ(mont.Mul(a, b), BigInt::MulMod(a, b, m));
  }
}

TEST(MontgomeryTest, ToFromMontRoundTrip) {
  DeterministicRng rng(6);
  BigInt m = BigInt::RandomBits(rng, 256);
  if (!m.IsOdd()) m += BigInt(1);
  FixedMont<4> mont(m);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::Random(rng, m);
    EXPECT_EQ(FixedMont<4>::ToBigInt(mont.FromMont(mont.ToMont(a))), a);
  }
}

TEST(MontgomeryTest, PowMatchesSquareAndMultiply) {
  DeterministicRng rng(7);
  BigInt m = BigInt::RandomBits(rng, 128);
  if (!m.IsOdd()) m += BigInt(1);
  MontContext mont(m);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::Random(rng, m);
    BigInt e = BigInt::RandomBits(rng, 64);
    // Naive reference.
    BigInt ref(1);
    for (std::size_t bit = e.BitLength(); bit-- > 0;) {
      ref = BigInt::MulMod(ref, ref, m);
      if (e.Bit(bit)) ref = BigInt::MulMod(ref, a, m);
    }
    EXPECT_EQ(mont.Pow(a, e), ref);
  }
}

// The OPRF keeps contexts for p, q (CRT-sized) and N, and feeds them values
// that are not reduced: a blinded x < N goes into the mod-p and mod-q
// contexts, and a signature off the wire may be >= N.
TEST(MontgomeryTest, KeptContextsMatchPowModAndMulModOnUnreducedInputs) {
  DeterministicRng rng(9);
  BigInt e(65537);
  BigInt p = GenerateRsaPrime(512, e, rng);
  BigInt q = GenerateRsaPrime(512, e, rng);
  BigInt n = p * q;
  ASSERT_GE(n.BitLength(), 1023u);  // p, q of exactly 512 bits each
  for (const BigInt& m : {p, q, n}) {
    MontContext mont(m);
    for (int i = 0; i < 8; ++i) {
      // Up to twice the modulus width, so most inputs exceed m.
      BigInt a = BigInt::RandomBits(rng, 2 * m.BitLength() - i);
      BigInt b = BigInt::RandomBits(rng, m.BitLength() + 1 + i);
      BigInt exp = BigInt::RandomBits(rng, m.BitLength());
      EXPECT_EQ(mont.Pow(a, exp), BigInt::PowMod(a, exp, m));
      EXPECT_EQ(mont.Mul(a, b), BigInt::MulMod(a, b, m));
      // Independent of Montgomery: square-and-multiply over MulMod.
      BigInt ref(1);
      for (std::size_t bit = e.BitLength(); bit-- > 0;) {
        ref = BigInt::MulMod(ref, ref, m);
        if (e.Bit(bit)) ref = BigInt::MulMod(ref, a, m);
      }
      EXPECT_EQ(mont.Pow(a, e), ref);
    }
  }
}

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_THROW(MontContext mont(BigInt(100)), Error);
  EXPECT_THROW(MontContext mont2(BigInt(1)), Error);
  EXPECT_THROW(FixedMont<4> mont3(BigInt(0)), Error);
}

TEST(MontgomeryTest, RejectsModulusWiderThanTheKernel) {
  BigInt five_limbs = (BigInt(1) << 300) + BigInt(1);
  EXPECT_THROW(FixedMont<4> narrow(five_limbs), Error);
  EXPECT_NO_THROW(FixedMont<8> wide(five_limbs));
  EXPECT_THROW(MontContext too_wide((BigInt(1) << 2048) + BigInt(1)), Error);
  EXPECT_NO_THROW(MontContext widest((BigInt(1) << 2047) + BigInt(1)));
}

// --- Differential tests: the kernel against BigInt (a*b)%m ---------------

BigInt Reference(const BigInt& a, const BigInt& e, const BigInt& m) {
  BigInt ref = BigInt(1) % m;
  for (std::size_t bit = e.BitLength(); bit-- > 0;) {
    ref = BigInt::MulMod(ref, ref, m);
    if (e.Bit(bit)) ref = BigInt::MulMod(ref, a, m);
  }
  return ref;
}

// Runs every kernel operation on random and edge inputs mod m and checks
// each against schoolbook arithmetic.
template <std::size_t N>
void CheckKernelAgainstBigInt(const BigInt& m, DeterministicRng& rng) {
  using K = FixedMont<N>;
  SCOPED_TRACE("limbs=" + std::to_string(N) + " bits=" + std::to_string(m.BitLength()));
  K k(m);
  const BigInt r = BigInt(1) << (64 * N);
  BigInt all_ones = r - BigInt(1);  // every limb ~0: unreduced, < R
  std::vector<BigInt> values = {BigInt(0), BigInt(1), m - BigInt(1), m - BigInt(2),
                                all_ones, m, m + BigInt(1)};
  for (int i = 0; i < 6; ++i) values.push_back(BigInt::Random(rng, m));
  for (int i = 0; i < 3; ++i) values.push_back(BigInt::RandomBits(rng, 64 * N));
  auto plain = [&](const typename K::Limbs& x) { return K::ToBigInt(x); };

  for (const BigInt& a : values) {
    BigInt ar = a % m;
    typename K::Limbs am = k.ToMont(a);
    ASSERT_LT(plain(am), m);
    EXPECT_EQ(plain(am), BigInt::MulMod(a, r, m));
    EXPECT_EQ(plain(k.FromMont(am)), ar);

    typename K::Limbs sq;
    k.Square(sq, am);
    EXPECT_EQ(plain(k.FromMont(sq)), BigInt::MulMod(a, a, m));

    for (const BigInt& b : values) {
      BigInt br = b % m;
      typename K::Limbs bm = k.ToMont(b);
      typename K::Limbs out;
      k.Mul(out, am, bm);
      ASSERT_LT(plain(out), m);
      EXPECT_EQ(plain(k.FromMont(out)), BigInt::MulMod(a, b, m));
      // One operand unreduced (any N-limb value), the other < m: the raw
      // Montgomery product a·(b·R)·R⁻¹ = a·b.
      if (a.LimbCount() > N) continue;  // m + 1 = R for an all-ones m
      k.Mul(out, K::ToLimbs(a), bm);
      ASSERT_LT(plain(out), m);
      EXPECT_EQ(plain(out), BigInt::MulMod(a, b, m));
      k.Mul(out, bm, K::ToLimbs(a));
      EXPECT_EQ(plain(out), BigInt::MulMod(a, b, m));

      k.Add(out, am, bm);
      EXPECT_EQ(plain(k.FromMont(out)), BigInt::AddMod(ar, br, m));
      k.Sub(out, am, bm);
      EXPECT_EQ(plain(k.FromMont(out)), BigInt::SubMod(ar, br, m));
    }
    typename K::Limbs neg;
    k.Neg(neg, am);
    EXPECT_EQ(plain(k.FromMont(neg)), BigInt::SubMod(BigInt(0), ar, m));
  }

  // The 2N-limb reduction: values up to R² enter ToMont with no division.
  for (int i = 0; i < 6; ++i) {
    BigInt wide = BigInt::RandomBits(rng, 128 * N - i);
    EXPECT_EQ(plain(k.FromMont(k.ToMont(wide))), wide % m);
  }
  EXPECT_EQ(plain(k.FromMont(k.ToMont(r * r - BigInt(1)))), (r * r - BigInt(1)) % m);

  // Pow across window widths (exponent lengths 0, 1, 17, 64, 100, full).
  for (std::size_t bits : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                           std::size_t{64}, std::size_t{100}, 64 * N}) {
    BigInt e = BigInt::RandomBits(rng, bits);
    for (const BigInt& a : {values[1], values[2], values[4], values[7]}) {
      typename K::Limbs out;
      k.Pow(out, k.ToMont(a), e);
      EXPECT_EQ(plain(k.FromMont(out)), Reference(a % m, e, m)) << "exp bits " << bits;
    }
  }
  typename K::Limbs one = k.one();
  EXPECT_EQ(plain(k.FromMont(one)), BigInt(1));
}

template <std::size_t N>
void CheckWidth(std::uint64_t seed) {
  DeterministicRng rng(seed);
  // A full-width modulus, one a bit short of the limbs (the top limb not
  // saturated, so R > 2m), and one of half the width.
  for (std::size_t bits : {64 * N, 64 * N - 1, 64 * N - 63, 32 * N + 5}) {
    BigInt m = BigInt::RandomBits(rng, bits);
    if (!m.Bit(bits - 1)) m += BigInt(1) << (bits - 1);
    if (!m.IsOdd()) m += BigInt(1);
    CheckKernelAgainstBigInt<N>(m, rng);
  }
  // All-ones modulus: the largest odd N-limb value.
  CheckKernelAgainstBigInt<N>((BigInt(1) << (64 * N)) - BigInt(1), rng);
}

TEST(MontgomeryTest, DifferentialFourLimbs) { CheckWidth<4>(41); }
TEST(MontgomeryTest, DifferentialEightLimbs) { CheckWidth<8>(42); }
TEST(MontgomeryTest, DifferentialSixteenLimbs) { CheckWidth<16>(43); }

TEST(MontgomeryTest, SmallModuliInWideKernels) {
  // Miller–Rabin and PowMod send one-limb moduli through the narrowest
  // kernel, whose R is far above the modulus.
  DeterministicRng rng(44);
  for (std::uint64_t m : {std::uint64_t{3}, std::uint64_t{19}, std::uint64_t{65537},
                          std::uint64_t{0xffffffffffffffc5}}) {
    CheckKernelAgainstBigInt<4>(BigInt(m), rng);
  }
}

// --- The lane kernel, on every path and width, against MontContext --------

class MontLanesTest : public ::testing::TestWithParam<LaneKernel> {
 protected:
  void SetUp() override {
    if (!SupportsLaneKernel(GetParam())) {
      GTEST_SKIP() << "this CPU has no " << LaneKernelName(GetParam())
                   << " lane kernel; that path was not run";
    }
  }
};

// An odd modulus of exactly `bits` bits.
BigInt OddModulus(DeterministicRng& rng, std::size_t bits) {
  BigInt m = BigInt::RandomBits(rng, bits);
  if (!m.Bit(bits - 1)) m += BigInt(1) << (bits - 1);
  if (!m.IsOdd()) m += BigInt(1);
  return m;
}

// Moduli for the L-limb kernel: the widths REED gives it (the RSA-512 and
// RSA-1024 halves for ten limbs; a whole RSA-512 and RSA-1024 N for
// twenty), a random one at the 4n < R bound and the largest odd one below
// it.
template <std::size_t L>
std::vector<BigInt> LaneModuli(DeterministicRng& rng) {
  constexpr std::size_t kMax = MontLanes<L>::kMaxBits;
  return {OddModulus(rng, 256 * (L / 10)), OddModulus(rng, 512 * (L / 10)),
          OddModulus(rng, kMax), (BigInt(1) << kMax) - BigInt(1)};
}

// Eight values below m: 0, 1, m − 1 and 2, then random ones.
std::vector<BigInt> LaneValues(DeterministicRng& rng, const BigInt& m) {
  std::vector<BigInt> v = {BigInt(0), BigInt(1), m - BigInt(1), BigInt(2)};
  while (v.size() < kLanes) v.push_back(BigInt::Random(rng, m));
  return v;
}

template <std::size_t L>
void CheckPowInEveryLane(LaneKernel kernel, std::uint64_t seed) {
  DeterministicRng rng(seed);
  for (const BigInt& m : LaneModuli<L>(rng)) {
    SCOPED_TRACE("modulus bits=" + std::to_string(m.BitLength()));
    MontLanes<L> lanes(m, kernel);
    const MontContext& oracle = lanes.context();  // FixedMont::Pow
    // Zero, one, window edges (a full window, one past it, the next one)
    // and full width, random or all ones.
    std::vector<BigInt> exponents = {BigInt(0), BigInt(1), BigInt(31), BigInt(32),
                                     BigInt(33), BigInt::RandomBits(rng, m.BitLength()),
                                     (BigInt(1) << m.BitLength()) - BigInt(1)};
    // Each lane holds a different base, edges among them.
    std::vector<BigInt> bases = LaneValues(rng, m);
    for (const BigInt& e : exponents) {
      SCOPED_TRACE("exponent bits=" + std::to_string(e.BitLength()));
      // Every group size: a short group pads the lanes past it.
      for (std::size_t count = 1; count <= kLanes; ++count) {
        std::vector<BigInt> got(count);
        lanes.Pow(std::span(bases).first(count), e, got);
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(got[i], oracle.Pow(bases[i], e)) << "lane " << i << " of " << count;
        }
      }
    }
    // One lane against schoolbook arithmetic too.
    BigInt e = BigInt::RandomBits(rng, m.BitLength());
    std::vector<BigInt> got(1);
    lanes.Pow(std::span(bases).subspan(5, 1), e, got);
    EXPECT_EQ(got[0], Reference(bases[5], e, m));
  }
}

TEST_P(MontLanesTest, PowMatchesFixedMontInEveryLane) {
  CheckPowInEveryLane<10>(GetParam(), 45);
  CheckPowInEveryLane<20>(GetParam(), 46);
}

// PowPublic's square-and-multiply chain and fused factor, and Mul, against
// MontContext::Pow and Mul in every lane of every group size.
template <std::size_t L>
void CheckPublicChainInEveryLane(LaneKernel kernel, std::uint64_t seed) {
  DeterministicRng rng(seed);
  for (const BigInt& m : LaneModuli<L>(rng)) {
    SCOPED_TRACE("modulus bits=" + std::to_string(m.BitLength()));
    MontLanes<L> lanes(m, kernel);
    const MontContext& oracle = lanes.context();
    std::vector<BigInt> bases = LaneValues(rng, m);
    // The same edges, in another lane order, as factors.
    std::vector<BigInt> factors = LaneValues(rng, m);
    std::rotate(factors.begin(), factors.begin() + 3, factors.end());
    for (const BigInt& e : {BigInt(0), BigInt(1), BigInt(2), BigInt(3),
                            BigInt(65537), BigInt::RandomBits(rng, 64)}) {
      SCOPED_TRACE("exponent=" + e.ToHex());
      for (std::size_t count = 1; count <= kLanes; ++count) {
        auto b = std::span<const BigInt>(bases).first(count);
        auto f = std::span<const BigInt>(factors).first(count);
        std::vector<BigInt> got(count), got_times(count), product(count);
        lanes.PowPublic(b, e, {}, got);
        lanes.PowPublic(b, e, f, got_times);
        lanes.Mul(b, f, product);
        for (std::size_t i = 0; i < count; ++i) {
          BigInt want = oracle.Pow(bases[i], e);
          EXPECT_EQ(got[i], want) << "lane " << i << " of " << count;
          EXPECT_EQ(got_times[i], oracle.Mul(want, factors[i]))
              << "lane " << i << " of " << count;
          EXPECT_EQ(product[i], oracle.Mul(bases[i], factors[i]))
              << "lane " << i << " of " << count;
        }
      }
    }
  }
}

TEST_P(MontLanesTest, PowPublicAndMulMatchScalarInEveryLane) {
  CheckPublicChainInEveryLane<10>(GetParam(), 47);
  CheckPublicChainInEveryLane<20>(GetParam(), 48);
}

template <std::size_t L>
void CheckRejections(LaneKernel kernel) {
  BigInt m = (BigInt(1) << 255) + BigInt(1);
  MontLanes<L> lanes(m, kernel);
  std::vector<BigInt> out(kLanes + 1);
  std::vector<BigInt> unreduced = {BigInt(3), m};
  std::vector<BigInt> two(2, BigInt(2));
  EXPECT_THROW(lanes.Pow(unreduced, BigInt(3), out), Error);
  EXPECT_THROW(lanes.PowPublic(unreduced, BigInt(3), {}, out), Error);
  EXPECT_THROW(lanes.PowPublic(two, BigInt(3), unreduced, out), Error);
  EXPECT_THROW(lanes.Mul(two, unreduced, out), Error);
  std::vector<BigInt> nine(kLanes + 1, BigInt(2));
  EXPECT_THROW(lanes.Pow(nine, BigInt(3), out), Error);
  EXPECT_THROW(lanes.PowPublic(nine, BigInt(3), {}, out), Error);
  EXPECT_THROW(lanes.Mul(nine, nine, out), Error);
  // Short outputs, and factors or multipliers that do not match the bases.
  EXPECT_THROW(lanes.Pow(two, BigInt(3), std::span(out).first(1)), Error);
  EXPECT_THROW(lanes.PowPublic(two, BigInt(3), {}, std::span(out).first(1)), Error);
  EXPECT_THROW(lanes.PowPublic(two, BigInt(3), std::span(two).first(1), out), Error);
  EXPECT_THROW(lanes.Mul(two, std::span(two).first(1), out), Error);
}

TEST_P(MontLanesTest, RejectsUnreducedBasesAndTooManyLanes) {
  CheckRejections<10>(GetParam());
  CheckRejections<20>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(EveryPath, MontLanesTest,
                         ::testing::Values(LaneKernel::kScalar, LaneKernel::kIfma8),
                         [](const auto& param_info) {
                           return std::string(LaneKernelName(param_info.param));
                         });

template <std::size_t L>
void CheckWideModulusFallsBack() {
  SCOPED_TRACE("limbs=" + std::to_string(L));
  constexpr std::size_t kMax = MontLanes<L>::kMaxBits;
  BigInt widest = (BigInt(1) << kMax) - BigInt(1);
  EXPECT_EQ(MontLanes<L>(widest).kernel(), DetectedLaneKernel());
  BigInt too_wide = (BigInt(1) << (kMax + 1)) - BigInt(1);
  MontLanes<L> scalar(too_wide);
  EXPECT_EQ(scalar.kernel(), LaneKernel::kScalar);
  EXPECT_EQ(scalar.width(), 1u);
  std::vector<BigInt> got(2);
  std::vector<BigInt> bases = {BigInt(2), too_wide - BigInt(2)};
  scalar.Pow(bases, BigInt(65537), got);
  EXPECT_EQ(got[0], BigInt::PowMod(bases[0], BigInt(65537), too_wide));
  EXPECT_EQ(got[1], BigInt::PowMod(bases[1], BigInt(65537), too_wide));
  scalar.PowPublic(bases, BigInt(65537), {}, got);
  EXPECT_EQ(got[0], BigInt::PowMod(bases[0], BigInt(65537), too_wide));
  EXPECT_EQ(got[1], BigInt::PowMod(bases[1], BigInt(65537), too_wide));
  if (SupportsLaneKernel(LaneKernel::kIfma8)) {
    EXPECT_THROW(MontLanes<L>(too_wide, LaneKernel::kIfma8), Error);
  }
}

TEST(MontLanesKernelTest, WideModuliTakeTheScalarPath) {
  EXPECT_TRUE(SupportsLaneKernel(DetectedLaneKernel()));
  EXPECT_TRUE(SupportsLaneKernel(LaneKernel::kScalar));
  std::printf("lane kernel on this host: %s\n",
              LaneKernelName(DetectedLaneKernel()));
  CheckWideModulusFallsBack<10>();
  CheckWideModulusFallsBack<20>();
}

// Montgomery's trick on plain values (MontContext::TryInvertAll) against
// one BigInt inversion per value, at every kernel width.
TEST(MontgomeryTest, BatchInversionMatchesInverseModAtEveryWidth) {
  DeterministicRng rng(49);
  for (std::size_t bits : {61u, 255u, 512u, 1024u, 2047u}) {
    SCOPED_TRACE("modulus bits=" + std::to_string(bits));
    BigInt m = OddModulus(rng, bits);
    MontContext ctx(m);
    for (std::size_t n : {0u, 1u, 2u, 9u, 64u, 256u}) {
      std::vector<BigInt> values;
      values.push_back(BigInt(1));
      if (n > 1) values.push_back(m - BigInt(1));
      while (values.size() < n) {
        BigInt v = BigInt::Random(rng, m);
        if (BigInt::TryInverseMod(v, m)) values.push_back(std::move(v));
      }
      values.resize(n);
      std::vector<BigInt> got(n);
      ASSERT_TRUE(ctx.TryInvertAll(values, got)) << "n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], BigInt::InverseMod(values[i], m)) << "n=" << n << " i=" << i;
      }
      // A zero first, in the middle or last fails the whole batch.
      for (std::size_t bad : {std::size_t{0}, n / 2, n - 1}) {
        if (n == 0) break;
        std::vector<BigInt> with_zero = values;
        with_zero[bad] = BigInt(0);
        EXPECT_FALSE(ctx.TryInvertAll(with_zero, got)) << "n=" << n << " zero at " << bad;
      }
    }
  }
  // A value sharing a factor with m fails the whole batch; zero too.
  BigInt m = BigInt(3) * BigInt(1000003);
  MontContext ctx(m);
  std::vector<BigInt> got(3);
  std::vector<BigInt> shares = {BigInt(2), BigInt(6), BigInt(5)};
  EXPECT_FALSE(ctx.TryInvertAll(shares, got));
  std::vector<BigInt> zero = {BigInt(2), BigInt(0), BigInt(5)};
  EXPECT_FALSE(ctx.TryInvertAll(zero, got));
  std::vector<BigInt> unreduced = {BigInt(2), m, BigInt(5)};
  EXPECT_THROW((void)ctx.TryInvertAll(unreduced, got), Error);
  EXPECT_THROW((void)ctx.TryInvertAll(shares, std::span(got).first(2)), Error);
}

TEST(BigIntTest, RandomRespectsBound) {
  DeterministicRng rng(8);
  BigInt bound = BigInt::FromHex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::Random(rng, bound), bound);
  }
  EXPECT_THROW(BigInt::Random(rng, BigInt(0)), Error);
}

TEST(BigIntTest, RandomBitsMasksHighBits) {
  DeterministicRng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(BigInt::RandomBits(rng, 100).BitLength(), 100u);
  }
}

// --------------------------- primality ---------------------------

TEST(PrimeTest, KnownPrimesAccepted) {
  DeterministicRng rng(10);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 65537ull, 4294967291ull}) {
    EXPECT_TRUE(IsProbablePrime(BigInt(p), rng)) << p;
  }
  // 2^127 - 1 is a Mersenne prime.
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(IsProbablePrime(m127, rng));
}

TEST(PrimeTest, KnownCompositesRejected) {
  DeterministicRng rng(11);
  // Carmichael numbers fool Fermat but not Miller–Rabin.
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 41041ull, 825265ull}) {
    EXPECT_FALSE(IsProbablePrime(BigInt(c), rng)) << c;
  }
  EXPECT_FALSE(IsProbablePrime(BigInt(0), rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(1), rng));
  BigInt sq = BigInt::FromHex("ffffffffffffffc5") * BigInt::FromHex("ffffffffffffffc5");
  EXPECT_FALSE(IsProbablePrime(sq, rng));
}

TEST(PrimeTest, GeneratedPrimeHasExactBitLength) {
  DeterministicRng rng(12);
  BigInt p = GeneratePrime(128, rng);
  EXPECT_EQ(p.BitLength(), 128u);
  EXPECT_TRUE(IsProbablePrime(p, rng));
}

TEST(PrimeTest, RsaPrimeCoprimality) {
  DeterministicRng rng(13);
  BigInt e(65537);
  BigInt p = GenerateRsaPrime(128, e, rng);
  EXPECT_TRUE(BigInt::Gcd(p - BigInt(1), e).IsOne());
}

}  // namespace
}  // namespace reed::bigint
