#include "bigint/mont_lanes.h"

#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#define REED_X86 1
#endif

namespace reed::bigint {

using u64 = std::uint64_t;

namespace {

constexpr std::size_t kLimbs = MontLanes::kLimbs;
constexpr std::size_t kLanes = MontLanes::kLanes;
constexpr unsigned kLimbBits = 52;
constexpr u64 kLimbMask = (u64{1} << kLimbBits) - 1;
constexpr std::size_t kWindow = 5;
constexpr std::size_t kTableSize = std::size_t{1} << kWindow;

// Limb j of x in radix 2^52.
u64 Limb52(const BigInt& x, std::size_t j) {
  std::size_t pos = kLimbBits * j;
  std::size_t limb = pos / 64;
  std::size_t shift = pos % 64;
  u64 bits = x.Limb(limb) >> shift;
  if (shift + kLimbBits > 64) bits |= x.Limb(limb + 1) << (64 - shift);
  return bits & kLimbMask;
}

std::array<u64, kLimbs> ToLimbs52(const BigInt& x) {
  std::array<u64, kLimbs> out{};
  for (std::size_t j = 0; j < kLimbs; ++j) out[j] = Limb52(x, j);
  return out;
}

// Lane `lane` of a limb-major block of 52-bit limbs, as a BigInt.
BigInt FromLimbs52(const u64 (&limbs)[kLimbs][kLanes], std::size_t lane) {
  std::array<u64, (kLimbBits * kLimbs + 63) / 64> out{};
  for (std::size_t j = 0; j < kLimbs; ++j) {
    std::size_t pos = kLimbBits * j;
    u64 v = limbs[j][lane];
    out[pos / 64] |= v << (pos % 64);
    if (pos % 64 + kLimbBits > 64) out[pos / 64 + 1] |= v >> (64 - pos % 64);
  }
  return BigInt::FromLimbs(out);
}

// Exponent bits [pos, pos + kWindow).
u64 WindowAt(const BigInt& e, std::size_t pos) {
  u64 bits = 0;
  for (std::size_t b = 0; b < kWindow; ++b) {
    bits |= static_cast<u64>(e.Bit(pos + b)) << b;
  }
  return bits;
}

#if defined(REED_X86)

// CPUID, read once; libgcc's check for avx512f includes the OS's support
// for the zmm and mask state.
struct CpuIfma {
  bool ifma = false;
  CpuIfma() {
    __builtin_cpu_init();
    ifma = __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512ifma") != 0;
  }
};

const CpuIfma kCpu;

#define REED_IFMA __attribute__((target("avx512f,avx512ifma")))

// A value per lane: limb j of all eight lanes in v[j].
using Lanes = __m512i[kLimbs];

// out = a·b·R⁻¹ (mod n) in every lane, almost-Montgomery: a, b < 2n with
// normalized 52-bit limbs give out < 2n, normalized. Operand scanning: each
// b limb adds a_j·b_i into the columns, picks m to clear column 0, adds
// m·n, and shifts one column down. A column gains less than 2^54 per round
// (two low and two high 52-bit halves), so ten rounds stay below 2^58 and
// carries wait for the one normalizing pass at the end. out may alias a or
// b.
REED_IFMA void Amm(Lanes& out, const Lanes& a, const Lanes& b,
                   const MontLanes::Constants& c) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i k0 = _mm512_set1_epi64(static_cast<long long>(c.k0));
  __m512i n[kLimbs];
  for (std::size_t j = 0; j < kLimbs; ++j) {
    n[j] = _mm512_set1_epi64(static_cast<long long>(c.n[j]));
  }
  __m512i acc[kLimbs];
  for (std::size_t j = 0; j < kLimbs; ++j) acc[j] = zero;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const __m512i bi = b[i];
    for (std::size_t j = 0; j < kLimbs; ++j) {
      acc[j] = _mm512_madd52lo_epu64(acc[j], a[j], bi);
    }
    // m = acc_0·k0 mod 2^52: the instruction reads only acc_0's low 52 bits.
    const __m512i m = _mm512_madd52lo_epu64(zero, acc[0], k0);
    for (std::size_t j = 0; j < kLimbs; ++j) {
      acc[j] = _mm512_madd52lo_epu64(acc[j], m, n[j]);
    }
    // Column 0 is now a multiple of 2^52: carry it and shift down, adding
    // each high half into the column below its low half's.
    const __m512i carry = _mm512_maskz_srli_epi64(0xFF, acc[0], kLimbBits);
    for (std::size_t j = 0; j + 1 < kLimbs; ++j) {
      acc[j] = _mm512_madd52hi_epu64(acc[j + 1], a[j], bi);
      acc[j] = _mm512_madd52hi_epu64(acc[j], m, n[j]);
    }
    acc[kLimbs - 1] = _mm512_madd52hi_epu64(zero, a[kLimbs - 1], bi);
    acc[kLimbs - 1] = _mm512_madd52hi_epu64(acc[kLimbs - 1], m, n[kLimbs - 1]);
    acc[0] = _mm512_add_epi64(acc[0], carry);
  }
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kLimbMask));
  for (std::size_t j = 0; j + 1 < kLimbs; ++j) {
    acc[j + 1] = _mm512_add_epi64(acc[j + 1], _mm512_maskz_srli_epi64(0xFF, acc[j], kLimbBits));
    out[j] = _mm512_and_si512(acc[j], mask);
  }
  // Below 2n < 2^519, so the top limb holds the rest without a carry out.
  out[kLimbs - 1] = acc[kLimbs - 1];
}

// out = table[index] in every lane, reading all entries: each is ANDed with
// a mask that is all ones only for the wanted one, so neither the loads nor
// the branches depend on the index.
REED_IFMA void Select(Lanes& out, const Lanes (&table)[kTableSize], u64 index) {
  for (std::size_t j = 0; j < kLimbs; ++j) out[j] = _mm512_setzero_si512();
  for (std::size_t e = 0; e < kTableSize; ++e) {
    // (e ^ index) − 1 has its top bit set only when e == index.
    const u64 hit = u64{0} - (((e ^ index) - 1) >> 63);
    const __m512i mask = _mm512_set1_epi64(static_cast<long long>(hit));
    for (std::size_t j = 0; j < kLimbs; ++j) {
      out[j] = _mm512_or_si512(out[j], _mm512_and_si512(table[e][j], mask));
    }
  }
}

REED_IFMA void Broadcast(Lanes& out, const std::array<u64, kLimbs>& limbs) {
  for (std::size_t j = 0; j < kLimbs; ++j) {
    out[j] = _mm512_set1_epi64(static_cast<long long>(limbs[j]));
  }
}

// io = io^exp mod n in every lane, io in plain form (limb-major, each lane
// below n) in and out, exp > 0.
REED_IFMA void PowIfma(u64 (&io)[kLimbs][kLanes], const BigInt& exp,
                       const MontLanes::Constants& c) {
  alignas(64) Lanes table[kTableSize];  // every entry is written below
  Lanes x{};
  for (std::size_t j = 0; j < kLimbs; ++j) x[j] = _mm512_load_si512(io[j]);
  Lanes rr{};
  Broadcast(rr, c.rr);
  Broadcast(table[0], c.one);
  Amm(table[1], x, rr, c);  // x·R mod n
  for (std::size_t e = 2; e < kTableSize; ++e) {
    Amm(table[e], table[e - 1], table[1], c);
  }
  // Every window costs kWindow squarings and one multiply, zero windows
  // included.
  std::size_t windows = (exp.BitLength() + kWindow - 1) / kWindow;
  Lanes acc{};
  Lanes entry{};
  Select(acc, table, WindowAt(exp, (windows - 1) * kWindow));
  for (std::size_t k = windows - 1; k-- > 0;) {
    for (std::size_t s = 0; s < kWindow; ++s) Amm(acc, acc, acc, c);
    Select(entry, table, WindowAt(exp, k * kWindow));
    Amm(acc, acc, entry, c);
  }
  // Leave Montgomery form: a·1·R⁻¹ for a < 2n is at most n, and n itself
  // only for a value ≡ 0. One masked subtract of n makes it canonical.
  Lanes unit{};
  unit[0] = _mm512_set1_epi64(1);
  Amm(acc, acc, unit, c);
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kLimbMask));
  __m512i borrow = _mm512_setzero_si512();
  Lanes diff{};
  for (std::size_t j = 0; j < kLimbs; ++j) {
    __m512i d = _mm512_sub_epi64(
        _mm512_sub_epi64(acc[j], _mm512_set1_epi64(static_cast<long long>(c.n[j]))),
        borrow);
    borrow = _mm512_maskz_srli_epi64(0xFF, d, 63);
    diff[j] = _mm512_and_si512(d, mask);
  }
  // Lanes whose subtraction did not borrow were ≥ n.
  const __mmask8 keep_diff = _mm512_cmpeq_epi64_mask(borrow, _mm512_setzero_si512());
  for (std::size_t j = 0; j < kLimbs; ++j) {
    _mm512_store_si512(io[j], _mm512_mask_mov_epi64(acc[j], keep_diff, diff[j]));
  }
}

#undef REED_IFMA

#endif  // REED_X86

}  // namespace

const char* LaneKernelName(LaneKernel kernel) {
  return kernel == LaneKernel::kIfma8 ? "ifma8" : "scalar";
}

bool MontLanes::Supports(LaneKernel kernel) {
#if defined(REED_X86)
  if (kernel == LaneKernel::kIfma8) return kCpu.ifma;
#endif
  return kernel == LaneKernel::kScalar;
}

LaneKernel MontLanes::Detected() {
  return Supports(LaneKernel::kIfma8) ? LaneKernel::kIfma8 : LaneKernel::kScalar;
}

MontLanes::MontLanes(const BigInt& modulus)
    : MontLanes(modulus, modulus.BitLength() <= kMaxBits ? Detected()
                                                         : LaneKernel::kScalar) {}

MontLanes::MontLanes(const BigInt& modulus, LaneKernel kernel)
    : scalar_(modulus), kernel_(kernel) {
  if (!Supports(kernel)) {
    throw Error(std::string("MontLanes: this CPU has no ") +
                LaneKernelName(kernel) + " kernel");
  }
  if (kernel != LaneKernel::kIfma8) return;
  if (modulus.BitLength() > kMaxBits) {
    throw Error("MontLanes: modulus wider than the lane kernel");
  }
  constexpr std::size_t kRBits = kLimbBits * kLimbs;
  constants_.n = ToLimbs52(modulus);
  constants_.one = ToLimbs52((BigInt(1) << kRBits) % modulus);
  constants_.rr = ToLimbs52((BigInt(1) << (2 * kRBits)) % modulus);
  // −n⁻¹ mod 2^52 by Newton–Hensel lifting (1 → 64 correct low bits).
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - constants_.n[0] * inv;
  constants_.k0 = (u64{0} - inv) & kLimbMask;
}

void MontLanes::Pow(std::span<const BigInt> base, const BigInt& exp,
                    std::span<BigInt> out) const {
  if (base.size() > kLanes || out.size() < base.size()) {
    throw Error("MontLanes: at most eight bases, and room for each result");
  }
  for (const BigInt& b : base) {
    if (b >= modulus()) throw Error("MontLanes: base not reduced");
  }
  if (kernel_ == LaneKernel::kScalar || exp.IsZero()) {
    for (std::size_t i = 0; i < base.size(); ++i) out[i] = scalar_.Pow(base[i], exp);
    return;
  }
#if defined(REED_X86)
  // Padding lanes hold 0.
  alignas(64) u64 io[kLimbs][kLanes] = {};
  for (std::size_t lane = 0; lane < base.size(); ++lane) {
    for (std::size_t j = 0; j < kLimbs; ++j) io[j][lane] = Limb52(base[lane], j);
  }
  PowIfma(io, exp, constants_);
  for (std::size_t lane = 0; lane < base.size(); ++lane) {
    out[lane] = FromLimbs52(io, lane);
  }
#endif
}

}  // namespace reed::bigint
