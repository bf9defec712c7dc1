#include "bigint/mont_lanes.h"

#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#define REED_X86 1
#endif

namespace reed::bigint {

using u64 = std::uint64_t;

namespace {

constexpr unsigned kLimbBits = 52;
constexpr u64 kLimbMask = (u64{1} << kLimbBits) - 1;
constexpr std::size_t kWindow = 5;
constexpr std::size_t kTableSize = std::size_t{1} << kWindow;

// Eight values in 52-bit limbs, limb-major: limb j of every lane in
// limb[j], one zmm load per limb.
template <std::size_t L>
struct alignas(64) Block {
  u64 limb[L][kLanes];
};

// Limb j of x in radix 2^52.
u64 Limb52(const BigInt& x, std::size_t j) {
  std::size_t pos = kLimbBits * j;
  std::size_t limb = pos / 64;
  std::size_t shift = pos % 64;
  u64 bits = x.Limb(limb) >> shift;
  if (shift + kLimbBits > 64) bits |= x.Limb(limb + 1) << (64 - shift);
  return bits & kLimbMask;
}

template <std::size_t L>
std::array<u64, L> ToLimbs52(const BigInt& x) {
  std::array<u64, L> out{};
  for (std::size_t j = 0; j < L; ++j) out[j] = Limb52(x, j);
  return out;
}

// values[i] into lane i; lanes past values.size() hold `pad`.
template <std::size_t L>
void Pack(Block<L>& out, std::span<const BigInt> values, u64 pad = 0) {
  for (std::size_t j = 0; j < L; ++j) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      out.limb[j][lane] = lane < values.size() ? Limb52(values[lane], j)
                                               : (j == 0 ? pad : 0);
    }
  }
}

// Lane `lane` of a block, as a BigInt.
template <std::size_t L>
BigInt Unpack(const Block<L>& limbs, std::size_t lane) {
  std::array<u64, (kLimbBits * L + 63) / 64> out{};
  for (std::size_t j = 0; j < L; ++j) {
    std::size_t pos = kLimbBits * j;
    u64 v = limbs.limb[j][lane];
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
template <std::size_t L>
using Lanes = __m512i[L];

template <std::size_t L>
using Constants = typename MontLanes<L>::Constants;

// out = a·b·R⁻¹ (mod n) in every lane, almost-Montgomery: a, b < 2n with
// normalized 52-bit limbs give out < 2n, normalized. Operand scanning: each
// b limb adds a_j·b_i into the columns, picks m to clear column 0, adds
// m·n, and shifts one column down. A column gains less than 2^54 per round
// (two low and two high 52-bit halves), so L rounds stay below L·2^54 —
// 2^58 for ten limbs, 2^59 for twenty — and carries wait for the one
// normalizing pass at the end. out may alias a or b.
template <std::size_t L>
REED_IFMA void Amm(Lanes<L>& out, const Lanes<L>& a, const Lanes<L>& b,
                   const Constants<L>& c) {
  static_assert(L <= 32, "a column must not overflow 64 bits");
  const __m512i zero = _mm512_setzero_si512();
  const __m512i k0 = _mm512_set1_epi64(static_cast<long long>(c.k0));
  // The column loops are unrolled so that acc stays in registers (L of the
  // 32); a and n are read as memory operands.
  __m512i acc[L];
#pragma GCC unroll 32
  for (std::size_t j = 0; j < L; ++j) acc[j] = zero;
  for (std::size_t i = 0; i < L; ++i) {
    const __m512i bi = b[i];
#pragma GCC unroll 32
    for (std::size_t j = 0; j < L; ++j) {
      acc[j] = _mm512_madd52lo_epu64(acc[j], a[j], bi);
    }
    // m = acc_0·k0 mod 2^52: the instruction reads only acc_0's low 52 bits.
    const __m512i m = _mm512_madd52lo_epu64(zero, acc[0], k0);
#pragma GCC unroll 32
    for (std::size_t j = 0; j < L; ++j) {
      acc[j] = _mm512_madd52lo_epu64(acc[j], m, _mm512_set1_epi64(static_cast<long long>(c.n[j])));
    }
    // Column 0 is now a multiple of 2^52: carry it and shift down, adding
    // each high half into the column below its low half's.
    const __m512i carry = _mm512_maskz_srli_epi64(0xFF, acc[0], kLimbBits);
#pragma GCC unroll 32
    for (std::size_t j = 0; j + 1 < L; ++j) {
      acc[j] = _mm512_madd52hi_epu64(acc[j + 1], a[j], bi);
      acc[j] = _mm512_madd52hi_epu64(acc[j], m, _mm512_set1_epi64(static_cast<long long>(c.n[j])));
    }
    acc[L - 1] = _mm512_madd52hi_epu64(zero, a[L - 1], bi);
    acc[L - 1] = _mm512_madd52hi_epu64(
        acc[L - 1], m, _mm512_set1_epi64(static_cast<long long>(c.n[L - 1])));
    acc[0] = _mm512_add_epi64(acc[0], carry);
  }
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kLimbMask));
#pragma GCC unroll 32
  for (std::size_t j = 0; j + 1 < L; ++j) {
    acc[j + 1] = _mm512_add_epi64(acc[j + 1], _mm512_maskz_srli_epi64(0xFF, acc[j], kLimbBits));
    out[j] = _mm512_and_si512(acc[j], mask);
  }
  // Below 2n < 2^(52L − 1), so the top limb holds the rest without a carry
  // out.
  out[L - 1] = acc[L - 1];
}

template <std::size_t L>
REED_IFMA void Broadcast(Lanes<L>& out, const std::array<u64, L>& limbs) {
  for (std::size_t j = 0; j < L; ++j) {
    out[j] = _mm512_set1_epi64(static_cast<long long>(limbs[j]));
  }
}

template <std::size_t L>
REED_IFMA void Load(Lanes<L>& out, const Block<L>& in) {
  for (std::size_t j = 0; j < L; ++j) out[j] = _mm512_load_si512(in.limb[j]);
}

// out = x mod n for x < 2n in every lane: one masked subtract of n, and the
// lanes whose subtraction did not borrow keep the difference.
template <std::size_t L>
REED_IFMA void StoreCanonical(Block<L>& out, const Lanes<L>& x, const Constants<L>& c) {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kLimbMask));
  __m512i borrow = _mm512_setzero_si512();
  Lanes<L> diff;
  for (std::size_t j = 0; j < L; ++j) {
    __m512i d = _mm512_sub_epi64(
        _mm512_sub_epi64(x[j], _mm512_set1_epi64(static_cast<long long>(c.n[j]))),
        borrow);
    borrow = _mm512_maskz_srli_epi64(0xFF, d, 63);
    diff[j] = _mm512_and_si512(d, mask);
  }
  const __mmask8 keep_diff = _mm512_cmpeq_epi64_mask(borrow, _mm512_setzero_si512());
  for (std::size_t j = 0; j < L; ++j) {
    _mm512_store_si512(out.limb[j], _mm512_mask_mov_epi64(x[j], keep_diff, diff[j]));
  }
}

// out = table[index] in every lane, reading all entries: each is ANDed with
// a mask that is all ones only for the wanted one, so neither the loads nor
// the branches depend on the index.
template <std::size_t L>
REED_IFMA void Select(Lanes<L>& out, const Lanes<L> (&table)[kTableSize], u64 index) {
  for (std::size_t j = 0; j < L; ++j) out[j] = _mm512_setzero_si512();
  for (std::size_t e = 0; e < kTableSize; ++e) {
    // (e ^ index) − 1 has its top bit set only when e == index.
    const u64 hit = u64{0} - (((e ^ index) - 1) >> 63);
    const __m512i mask = _mm512_set1_epi64(static_cast<long long>(hit));
    for (std::size_t j = 0; j < L; ++j) {
      out[j] = _mm512_or_si512(out[j], _mm512_and_si512(table[e][j], mask));
    }
  }
}

// io = io^exp mod n in every lane, io in plain form (each lane below n) in
// and out, exp > 0.
template <std::size_t L>
REED_IFMA void PowIfma(Block<L>& io, const BigInt& exp, const Constants<L>& c) {
  alignas(64) Lanes<L> table[kTableSize];  // every entry is written below
  Lanes<L> x;
  Load<L>(x, io);
  Lanes<L> rr;
  Broadcast<L>(rr, c.rr);
  Broadcast<L>(table[0], c.one);
  Amm<L>(table[1], x, rr, c);  // x·R mod n
  for (std::size_t e = 2; e < kTableSize; ++e) {
    Amm<L>(table[e], table[e - 1], table[1], c);
  }
  // Every window costs kWindow squarings and one multiply, zero windows
  // included.
  std::size_t windows = (exp.BitLength() + kWindow - 1) / kWindow;
  Lanes<L> acc;
  Lanes<L> entry;
  Select<L>(acc, table, WindowAt(exp, (windows - 1) * kWindow));
  for (std::size_t k = windows - 1; k-- > 0;) {
    for (std::size_t s = 0; s < kWindow; ++s) Amm<L>(acc, acc, acc, c);
    Select<L>(entry, table, WindowAt(exp, k * kWindow));
    Amm<L>(acc, acc, entry, c);
  }
  // Leave Montgomery form: a·1·R⁻¹ for a < 2n is at most n.
  Lanes<L> unit;
  for (std::size_t j = 0; j < L; ++j) unit[j] = _mm512_setzero_si512();
  unit[0] = _mm512_set1_epi64(1);
  Amm<L>(acc, acc, unit, c);
  StoreCanonical<L>(io, acc, c);
}

// io = io^exp · factor mod n in every lane, plain form in and out, exp > 0
// and public: square-and-multiply over exp's bits from the top, then one
// multiply by the plain factor, which both applies it and leaves
// Montgomery form.
template <std::size_t L>
REED_IFMA void PowPublicIfma(Block<L>& io, const BigInt& exp, const Block<L>& factor,
                             const Constants<L>& c) {
  Lanes<L> x;
  Load<L>(x, io);
  Lanes<L> y;
  Broadcast<L>(y, c.rr);
  Amm<L>(x, x, y, c);  // x·R mod n
  Lanes<L> acc;
  for (std::size_t j = 0; j < L; ++j) acc[j] = x[j];
  for (std::size_t bit = exp.BitLength() - 1; bit-- > 0;) {
    Amm<L>(acc, acc, acc, c);
    if (exp.Bit(bit)) Amm<L>(acc, acc, x, c);
  }
  Load<L>(y, factor);
  Amm<L>(acc, acc, y, c);
  StoreCanonical<L>(io, acc, c);
}

// io = io·b mod n in every lane, plain form in and out: io·R², then ·b.
template <std::size_t L>
REED_IFMA void MulIfma(Block<L>& io, const Block<L>& b, const Constants<L>& c) {
  Lanes<L> x;
  Load<L>(x, io);
  Lanes<L> y;
  Broadcast<L>(y, c.rr);
  Amm<L>(x, x, y, c);  // x·R mod n
  Load<L>(y, b);
  Amm<L>(x, x, y, c);
  StoreCanonical<L>(io, x, c);
}

#undef REED_IFMA

#endif  // REED_X86

}  // namespace

const char* LaneKernelName(LaneKernel kernel) {
  return kernel == LaneKernel::kIfma8 ? "ifma8" : "scalar";
}

bool SupportsLaneKernel(LaneKernel kernel) {
#if defined(REED_X86)
  if (kernel == LaneKernel::kIfma8) return kCpu.ifma;
#endif
  return kernel == LaneKernel::kScalar;
}

LaneKernel DetectedLaneKernel() {
  return SupportsLaneKernel(LaneKernel::kIfma8) ? LaneKernel::kIfma8
                                                : LaneKernel::kScalar;
}

template <std::size_t L>
MontLanes<L>::MontLanes(const BigInt& modulus)
    : MontLanes(modulus, modulus.BitLength() <= kMaxBits ? DetectedLaneKernel()
                                                         : LaneKernel::kScalar) {}

template <std::size_t L>
MontLanes<L>::MontLanes(const BigInt& modulus, LaneKernel kernel)
    : scalar_(modulus), kernel_(kernel) {
  if (!SupportsLaneKernel(kernel)) {
    throw Error(std::string("MontLanes: this CPU has no ") +
                LaneKernelName(kernel) + " kernel");
  }
  if (kernel != LaneKernel::kIfma8) return;
  if (modulus.BitLength() > kMaxBits) {
    throw Error("MontLanes: modulus wider than the lane kernel");
  }
  constexpr std::size_t kRBits = kLimbBits * L;
  constants_.n = ToLimbs52<L>(modulus);
  constants_.one = ToLimbs52<L>((BigInt(1) << kRBits) % modulus);
  constants_.rr = ToLimbs52<L>((BigInt(1) << (2 * kRBits)) % modulus);
  // −n⁻¹ mod 2^52 by Newton–Hensel lifting (1 → 64 correct low bits).
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - constants_.n[0] * inv;
  constants_.k0 = (u64{0} - inv) & kLimbMask;
}

template <std::size_t L>
void MontLanes<L>::CheckInputs(std::span<const BigInt> values,
                               std::size_t count) const {
  if (values.size() != count || count > kLanes) {
    throw Error("MontLanes: at most eight values, as many in each input");
  }
  for (const BigInt& v : values) {
    if (v >= modulus()) throw Error("MontLanes: value not reduced");
  }
}

template <std::size_t L>
void MontLanes<L>::Pow(std::span<const BigInt> base, const BigInt& exp,
                       std::span<BigInt> out) const {
  CheckInputs(base, base.size());
  if (out.size() < base.size()) throw Error("MontLanes: no room for each result");
  if (kernel_ == LaneKernel::kScalar || exp.IsZero()) {
    for (std::size_t i = 0; i < base.size(); ++i) out[i] = scalar_.Pow(base[i], exp);
    return;
  }
#if defined(REED_X86)
  Block<L> io;
  Pack<L>(io, base);
  PowIfma<L>(io, exp, constants_);
  for (std::size_t lane = 0; lane < base.size(); ++lane) out[lane] = Unpack<L>(io, lane);
#endif
}

template <std::size_t L>
void MontLanes<L>::PowPublic(std::span<const BigInt> base, const BigInt& exp,
                             std::span<const BigInt> factor,
                             std::span<BigInt> out) const {
  CheckInputs(base, base.size());
  if (!factor.empty()) CheckInputs(factor, base.size());
  if (out.size() < base.size()) throw Error("MontLanes: no room for each result");
  if (kernel_ == LaneKernel::kScalar || exp.IsZero()) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      out[i] = scalar_.Pow(base[i], exp);
      if (!factor.empty()) out[i] = scalar_.Mul(out[i], factor[i]);
    }
    return;
  }
#if defined(REED_X86)
  Block<L> io;
  Block<L> f;
  Pack<L>(io, base);
  Pack<L>(f, factor, 1);  // no factor: 1 in every lane
  PowPublicIfma<L>(io, exp, f, constants_);
  for (std::size_t lane = 0; lane < base.size(); ++lane) out[lane] = Unpack<L>(io, lane);
#endif
}

template <std::size_t L>
void MontLanes<L>::Mul(std::span<const BigInt> a, std::span<const BigInt> b,
                       std::span<BigInt> out) const {
  CheckInputs(a, a.size());
  CheckInputs(b, a.size());
  if (out.size() < a.size()) throw Error("MontLanes: no room for each result");
  if (kernel_ == LaneKernel::kScalar) {
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = scalar_.Mul(a[i], b[i]);
    return;
  }
#if defined(REED_X86)
  Block<L> io;
  Block<L> y;
  Pack<L>(io, a);
  Pack<L>(y, b);
  MulIfma<L>(io, y, constants_);
  for (std::size_t lane = 0; lane < a.size(); ++lane) out[lane] = Unpack<L>(io, lane);
#endif
}

template class MontLanes<10>;
template class MontLanes<20>;

}  // namespace reed::bigint
