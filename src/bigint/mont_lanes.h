// Eight Montgomery computations at once: the lane kernel under both halves
// of the OPRF.
//
// MontLanes<L> works on up to eight values modulo one odd n. On a CPU with
// AVX-512 IFMA (read once from CPUID) the eight values sit one per 64-bit
// lane of L zmm registers, a 52-bit limb per register (radix 2^52,
// R = 2^(52L)), and every limb product is a vpmadd52{l,h}uq. Two widths
// are built: L = 10 (R = 2^520) for the signer's CRT halves of a 1024-bit
// key, and L = 20 (R = 2^1040) for a whole 1024-bit N on the client.
// Multiplication is almost-Montgomery: for inputs below 2n with 4n < R the
// product stays below 2n, so nothing reduces between multiplies and one
// masked subtract at the end gives the canonical value.
//
// Pow, for secret exponents, is a fixed 5-bit window whose table is read by
// a masked scan over all 32 entries; no load is indexed by exponent bits.
// PowPublic, for public exponents such as e = 65537, is a plain
// square-and-multiply chain with no table: 16 squarings and one multiply
// for that e. Either way the shared exponent runs every lane through the
// same instructions. Without IFMA, or for a modulus wider than kMaxBits,
// the scalar path runs MontContext once per lane: both paths return the
// same values on every host. DESIGN.md §16 has the layout and the bounds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "bigint/bigint.h"
#include "bigint/mont.h"

namespace reed::bigint {

enum class LaneKernel { kScalar, kIfma8 };

// "scalar" or "ifma8", for bench labels and test messages.
[[nodiscard]] const char* LaneKernelName(LaneKernel kernel);

// Values per IFMA lane group.
inline constexpr std::size_t kLanes = 8;

// The widest kernel this CPU runs: kIfma8 when CPUID reports AVX-512F and
// IFMA (with OS support for their state), else kScalar.
[[nodiscard]] LaneKernel DetectedLaneKernel();
[[nodiscard]] bool SupportsLaneKernel(LaneKernel kernel);

template <std::size_t L>
class MontLanes {
 public:
  static constexpr std::size_t kLimbs = L;  // 52-bit limbs: R = 2^(52L)
  // The almost-Montgomery bound 4n < R.
  static constexpr std::size_t kMaxBits = 52 * kLimbs - 2;

  // Runs on the detected kernel, or on the scalar path when the modulus is
  // wider than kMaxBits. Throws Error unless the modulus is odd, > 1 and at
  // most MontContext's 2048 bits.
  explicit MontLanes(const BigInt& modulus);
  // Runs on `kernel`, so tests can compare the paths; throws Error if this
  // CPU lacks it or the modulus is too wide for it.
  MontLanes(const BigInt& modulus, LaneKernel kernel);

  LaneKernel kernel() const { return kernel_; }
  // Values one call computes at the cost of one: kLanes on the IFMA kernel,
  // 1 on the scalar path.
  std::size_t width() const {
    return kernel_ == LaneKernel::kIfma8 ? kLanes : 1;
  }
  // The scalar context for the same modulus: the oracle, and the path for
  // lone values.
  const MontContext& context() const { return scalar_; }
  const BigInt& modulus() const { return scalar_.modulus(); }

  // Each call takes at most kLanes values, every one below n, and out must
  // hold as many; it throws Error otherwise. Lanes past the input run on
  // padding. All are thread-safe.

  // out[i] = base[i]^exp mod n, for any exponent (secret ones included).
  void Pow(std::span<const BigInt> base, const BigInt& exp,
           std::span<BigInt> out) const;
  // out[i] = base[i]^exp · factor[i] mod n for a public exponent: the chain
  // follows exp's bits, so it must not be secret. An empty factor means 1.
  // The multiply by factor[i] is also the step that leaves Montgomery form.
  void PowPublic(std::span<const BigInt> base, const BigInt& exp,
                 std::span<const BigInt> factor, std::span<BigInt> out) const;
  // out[i] = a[i]·b[i] mod n.
  void Mul(std::span<const BigInt> a, std::span<const BigInt> b,
           std::span<BigInt> out) const;

  // The IFMA kernel's constants, in 52-bit limbs.
  struct Constants {
    std::array<std::uint64_t, kLimbs> n{};    // the modulus
    std::array<std::uint64_t, kLimbs> one{};  // R mod n
    std::array<std::uint64_t, kLimbs> rr{};   // R² mod n
    std::uint64_t k0 = 0;                     // −n⁻¹ mod 2^52
  };

 private:
  // Throws Error unless `values` holds `count` <= kLanes values, all below
  // n.
  void CheckInputs(std::span<const BigInt> values, std::size_t count) const;

  MontContext scalar_;
  LaneKernel kernel_;
  Constants constants_;
};

extern template class MontLanes<10>;
extern template class MontLanes<20>;

}  // namespace reed::bigint
