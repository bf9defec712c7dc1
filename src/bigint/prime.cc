#include "bigint/prime.h"

#include <array>

#include "bigint/mont.h"

namespace reed::bigint {

namespace {

// Small primes for trial division — rejects ~90% of random candidates
// before the expensive Miller–Rabin rounds.
constexpr std::array<std::uint64_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

bool MillerRabinRound(const MontContext& mont, const BigInt& n_minus_1,
                      const BigInt& d, std::size_t r, const BigInt& base) {
  BigInt x = mont.Pow(base, d);
  if (x.IsOne() || x == n_minus_1) return true;
  for (std::size_t i = 1; i < r; ++i) {
    x = mont.Mul(x, x);
    if (x == n_minus_1) return true;
    if (x.IsOne()) return false;  // nontrivial sqrt of 1 -> composite
  }
  return false;
}

}  // namespace

bool IsProbablePrime(const BigInt& n, crypto::Rng& rng, int rounds) {
  if (n < BigInt(2)) return false;
  for (std::uint64_t p : kSmallPrimes) {
    if (n == BigInt(p)) return true;
    if (n.ModLimb(p) == 0) return false;
  }
  // n is odd and > 251 here.
  BigInt n_minus_1 = n - BigInt(1);
  // n - 1 = d * 2^r with d odd.
  std::size_t r = 0;
  BigInt d = n_minus_1;
  while (!d.IsOdd()) {
    d = d >> 1;
    ++r;
  }
  MontContext mont(n);
  BigInt two(2);
  BigInt n_minus_3 = n - BigInt(3);
  for (int i = 0; i < rounds; ++i) {
    // base uniform in [2, n-2]
    BigInt base = BigInt::Random(rng, n_minus_3) + two;
    if (!MillerRabinRound(mont, n_minus_1, d, r, base)) return false;
  }
  return true;
}

BigInt GeneratePrime(std::size_t bits, crypto::Rng& rng) {
  if (bits < 8) throw Error("GeneratePrime: need at least 8 bits");
  for (;;) {
    BigInt candidate = BigInt::RandomBits(rng, bits);
    // Force exact bit length and oddness.
    BigInt top = BigInt(1) << (bits - 1);
    if (candidate < top) candidate += top;
    if (!candidate.IsOdd()) candidate -= BigInt(1);
    if (IsProbablePrime(candidate, rng)) return candidate;
  }
}

BigInt GenerateRsaPrime(std::size_t bits, const BigInt& e, crypto::Rng& rng) {
  for (;;) {
    BigInt p = GeneratePrime(bits, rng);
    if (BigInt::Gcd(p - BigInt(1), e).IsOne()) return p;
  }
}

}  // namespace reed::bigint
