// The Montgomery kernel's no-allocation contract (bigint/mont.h): once a
// context exists, FixedMont multiply, square and Pow, F_p / F_p² arithmetic
// and the Miller loop, direct or over prepared lines, perform no heap
// allocation, counted through a replaced global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bigint/mont.h"
#include "crypto/random.h"
#include "pairing/pairing.h"

namespace {
// The default operator new[] forwards to operator new, so replacing the
// single-object form counts array allocations too.
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace reed {
namespace {

using bigint::BigInt;
using bigint::FixedMont;
using crypto::DeterministicRng;

std::uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

template <std::size_t N>
void ExpectKernelDoesNotAllocate(std::uint64_t seed) {
  SCOPED_TRACE("limbs=" + std::to_string(N));
  DeterministicRng rng(seed);
  BigInt m = BigInt::RandomBits(rng, 64 * N);
  if (!m.IsOdd()) m += BigInt(1);
  FixedMont<N> k(m);
  typename FixedMont<N>::Limbs a = k.ToMont(BigInt::Random(rng, m));
  typename FixedMont<N>::Limbs b = k.ToMont(BigInt::Random(rng, m));
  BigInt exp = BigInt::RandomBits(rng, 64 * N);
  BigInt small_exp(65537);

  std::uint64_t before = Allocations();
  for (int i = 0; i < 10; ++i) {
    k.Mul(a, a, b);
    k.Square(b, b);
    k.Add(a, a, b);
    k.Sub(b, b, a);
    k.Neg(b, b);
  }
  k.Pow(a, a, exp);
  k.Pow(b, b, small_exp);
  EXPECT_EQ(Allocations(), before);
}

TEST(MontAllocTest, KernelOperationsDoNotAllocate) {
  ExpectKernelDoesNotAllocate<4>(1);
  ExpectKernelDoesNotAllocate<8>(2);
  ExpectKernelDoesNotAllocate<16>(3);
  ExpectKernelDoesNotAllocate<32>(4);
}

TEST(MontAllocTest, FieldArithmeticDoesNotAllocate) {
  pairing::TypeAPairing pairing(pairing::TypeAParams::Default());
  const pairing::FpField* f = pairing.field();
  DeterministicRng rng(5);
  pairing::Fp a = pairing::Fp::Random(f, rng);
  pairing::Fp b = pairing::Fp::Random(f, rng);
  pairing::Fp2 x(pairing::Fp::Random(f, rng), pairing::Fp::Random(f, rng));
  pairing::Fp2 y(pairing::Fp::Random(f, rng), pairing::Fp::Random(f, rng));
  BigInt exp = BigInt::Random(rng, f->p());

  std::uint64_t before = Allocations();
  for (int i = 0; i < 10; ++i) {
    a = a * b + a;
    b = b.Square() - a;
    a = a.Neg();
    x = x * y + x;
    y = y.Square() - x;
  }
  a = a.Pow(exp);
  pairing::Fp one = pairing::Fp::One(f);
  pairing::Fp2 one2 = pairing::Fp2::One(f);
  EXPECT_EQ(Allocations(), before);
  EXPECT_FALSE(one.IsZero());
  EXPECT_TRUE(one2.IsOne());
}

TEST(MontAllocTest, MillerLoopDoesNotAllocate) {
  pairing::TypeAPairing pairing(pairing::TypeAParams::Default());
  pairing::G1Point p = pairing.HashToGroup(ToBytes("P"));
  pairing::G1Point q = pairing.HashToGroup(ToBytes("Q"));

  std::uint64_t before = Allocations();
  pairing::Fp2 f = pairing.MillerLoop(p, q);
  EXPECT_EQ(Allocations(), before);
  EXPECT_FALSE(f.IsOne());
}

TEST(MontAllocTest, PreparedMillerProductDoesNotAllocate) {
  pairing::TypeAPairing pairing(pairing::TypeAParams::Default());
  pairing::G1Point p = pairing.HashToGroup(ToBytes("P"));
  pairing::G1Point q = pairing.HashToGroup(ToBytes("Q"));
  pairing::MillerLines p_lines = pairing.Prepare(p);
  pairing::MillerLines q_lines = pairing.Prepare(q);
  pairing::MillerLines g_lines = pairing.Prepare(pairing.generator());
  const pairing::MillerTerm terms[] = {
      {&p_lines, &q}, {&q_lines, &p}, {&g_lines, &pairing.generator()}};

  std::uint64_t before = Allocations();
  pairing::Fp2 f = pairing.MillerProduct(terms);
  EXPECT_EQ(Allocations(), before);
  EXPECT_FALSE(f.IsOne());
}

}  // namespace
}  // namespace reed
