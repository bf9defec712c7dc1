// Eight Montgomery exponentiations at once: the lane kernel under the OPRF
// signer.
//
// MontLanes raises up to eight bases to one shared exponent modulo one odd
// n. On a CPU with AVX-512 IFMA (read once from CPUID) the eight values sit
// one per 64-bit lane of ten zmm registers, a 52-bit limb per register
// (radix 2^52, R = 2^520), and every limb product is a vpmadd52{l,h}uq.
// Multiplication is almost-Montgomery: for inputs below 2n with 4n < R the
// product stays below 2n, so nothing reduces between multiplies and one
// masked subtract after leaving Montgomery form gives the canonical value.
// Pow is a fixed 5-bit window whose table is read by a masked scan over all
// 32 entries; no load is indexed by exponent bits, and the shared exponent
// runs every lane through the same instructions. Without IFMA, or for a
// modulus wider than kMaxBits, the scalar path runs FixedMont::Pow once per
// lane (through MontContext): both paths return the same values on every
// host. DESIGN.md §16 has the layout and the bounds.
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

class MontLanes {
 public:
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kLimbs = 10;  // 52-bit limbs: R = 2^520
  // The almost-Montgomery bound 4n < R.
  static constexpr std::size_t kMaxBits = 52 * kLimbs - 2;

  // The widest kernel this CPU runs: kIfma8 when CPUID reports AVX-512F and
  // IFMA (with OS support for their state), else kScalar.
  [[nodiscard]] static LaneKernel Detected();
  [[nodiscard]] static bool Supports(LaneKernel kernel);

  // Runs on the detected kernel, or on the scalar path when the modulus is
  // wider than kMaxBits. Throws Error unless the modulus is odd, > 1 and at
  // most MontContext's 2048 bits.
  explicit MontLanes(const BigInt& modulus);
  // Runs on `kernel`, so tests can compare the paths; throws Error if this
  // CPU lacks it or the modulus is too wide for it.
  MontLanes(const BigInt& modulus, LaneKernel kernel);

  LaneKernel kernel() const { return kernel_; }
  // Values one Pow computes at the cost of one: kLanes on the IFMA kernel,
  // 1 on the scalar path.
  std::size_t width() const {
    return kernel_ == LaneKernel::kIfma8 ? kLanes : 1;
  }
  // The scalar context for the same modulus: the oracle, and the path for
  // lone values.
  const MontContext& context() const { return scalar_; }
  const BigInt& modulus() const { return scalar_.modulus(); }

  // out[i] = base[i]^exp mod n for i < base.size() <= kLanes; out must hold
  // base.size() values. Throws Error unless every base is below n. Lanes
  // past base.size() run on padding. Thread-safe.
  void Pow(std::span<const BigInt> base, const BigInt& exp,
           std::span<BigInt> out) const;

  // The IFMA kernel's constants, in 52-bit limbs.
  struct Constants {
    std::array<std::uint64_t, kLimbs> n{};    // the modulus
    std::array<std::uint64_t, kLimbs> one{};  // R mod n
    std::array<std::uint64_t, kLimbs> rr{};   // R² mod n
    std::uint64_t k0 = 0;                     // −n⁻¹ mod 2^52
  };

 private:
  MontContext scalar_;
  LaneKernel kernel_;
  Constants constants_;
};

}  // namespace reed::bigint
