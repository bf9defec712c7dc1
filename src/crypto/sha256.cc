#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/crypto_error.h"
#include "util/secure.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define REED_X86 1
#endif

namespace reed::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t Rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void ProcessPortable(std::array<std::uint32_t, 8>& state,
                     const std::uint8_t* data, std::size_t num_blocks) {
  std::uint32_t w[64];
  for (std::size_t blk = 0; blk < num_blocks; ++blk, data += 64) {
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(REED_X86)

bool DetectShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 29)) != 0;  // SHA extensions
}

// One 4-round step of the SHA-NI schedule for rounds 16-51: consumes ma,
// extends mb via msg2, pre-mixes md via msg1.
__attribute__((target("sha,sse4.1")))
inline void ShaNiQuad(__m128i& state0, __m128i& state1, __m128i& ma,
                      __m128i& mb, __m128i& md, const std::uint32_t* k) {
  __m128i m = _mm_add_epi32(ma, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  state1 = _mm_sha256rnds2_epu32(state1, state0, m);
  __m128i t = _mm_alignr_epi8(ma, md, 4);
  mb = _mm_add_epi32(mb, t);
  mb = _mm_sha256msg2_epu32(mb, ma);
  m = _mm_shuffle_epi32(m, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, m);
  md = _mm_sha256msg1_epu32(md, ma);
}

// Intel SHA-NI block processing; layout follows the canonical sample code
// published by Intel (state held as ABEF/CDGH 128-bit lanes).
__attribute__((target("sha,sse4.1")))
void ProcessShaNi(std::array<std::uint32_t, 8>& state_in,
                  const std::uint8_t* data, std::size_t num_blocks) {
  const __m128i kShuf =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state_in[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state_in[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  while (num_blocks-- > 0) {
    __m128i abef_save = state0;
    __m128i cdgh_save = state1;
    __m128i msg, msg0, msg1, msg2, msg3;

    // Rounds 0-3
    msg0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    msg0 = _mm_shuffle_epi8(msg0, kShuf);
    msg = _mm_add_epi32(msg0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[0])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 4-7
    msg1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    msg1 = _mm_shuffle_epi8(msg1, kShuf);
    msg = _mm_add_epi32(msg1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11
    msg2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    msg2 = _mm_shuffle_epi8(msg2, kShuf);
    msg = _mm_add_epi32(msg2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[8])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15
    msg3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg3 = _mm_shuffle_epi8(msg3, kShuf);
    msg = _mm_add_epi32(msg3, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[12])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-51: identical 4-round pattern over rotating message regs.
    ShaNiQuad(state0, state1, msg0, msg1, msg3, &kK[16]);
    ShaNiQuad(state0, state1, msg1, msg2, msg0, &kK[20]);
    ShaNiQuad(state0, state1, msg2, msg3, msg1, &kK[24]);
    ShaNiQuad(state0, state1, msg3, msg0, msg2, &kK[28]);
    ShaNiQuad(state0, state1, msg0, msg1, msg3, &kK[32]);
    ShaNiQuad(state0, state1, msg1, msg2, msg0, &kK[36]);
    ShaNiQuad(state0, state1, msg2, msg3, msg1, &kK[40]);
    ShaNiQuad(state0, state1, msg3, msg0, msg2, &kK[44]);
    ShaNiQuad(state0, state1, msg0, msg1, msg3, &kK[48]);

    // Rounds 52-55
    msg = _mm_add_epi32(msg1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[52])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 56-59
    msg = _mm_add_epi32(msg2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[56])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 60-63
    msg = _mm_add_epi32(msg3, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[60])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);      // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);   // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE

  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state_in[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state_in[4]), state1);
}

const bool kHaveShaNi = DetectShaNi();

#else
const bool kHaveShaNi = false;
#endif  // REED_X86

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// One message's blocks, on whichever one-message backend this CPU has.
void ProcessOne(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                std::size_t num_blocks) {
#if defined(REED_X86)
  if (kHaveShaNi) {
    ProcessShaNi(state, data, num_blocks);
    return;
  }
#endif
  ProcessPortable(state, data, num_blocks);
}

void PutDigest(const std::array<std::uint32_t, 8>& state, Sha256Digest& out) {
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

#if defined(REED_X86)

// CPUID, read once; libgcc's check for avx512f includes the OS's support
// for the zmm and mask state (XCR0).
struct CpuX16 {
  bool avx512 = false;
  CpuX16() {
    __builtin_cpu_init();
    avx512 = __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
  }
};

const CpuX16 kCpuX16;

#define REED_X16 __attribute__((target("avx512f,avx512bw")))

// GCC 12's _mm512_undefined_epi32 (under _mm512_ror_epi32 and
// _mm512_srli_epi32) self-initializes a local, which -Wuninitialized
// reports at every use (GCC bug 105593, fixed in GCC 13).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

constexpr std::size_t kLanes = 16;

REED_X16 inline __m512i Add(__m512i a, __m512i b) {
  return _mm512_add_epi32(a, b);
}
// Three-way XOR, Ch and Maj are each one ternary-logic instruction.
REED_X16 inline __m512i Xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}
REED_X16 inline __m512i BigSigma0(__m512i a) {
  return Xor3(_mm512_ror_epi32(a, 2), _mm512_ror_epi32(a, 13),
              _mm512_ror_epi32(a, 22));
}
REED_X16 inline __m512i BigSigma1(__m512i e) {
  return Xor3(_mm512_ror_epi32(e, 6), _mm512_ror_epi32(e, 11),
              _mm512_ror_epi32(e, 25));
}
REED_X16 inline __m512i SmallSigma0(__m512i w) {
  return Xor3(_mm512_ror_epi32(w, 7), _mm512_ror_epi32(w, 18),
              _mm512_srli_epi32(w, 3));
}
REED_X16 inline __m512i SmallSigma1(__m512i w) {
  return Xor3(_mm512_ror_epi32(w, 17), _mm512_ror_epi32(w, 19),
              _mm512_srli_epi32(w, 10));
}

// Round i of all sixteen lanes, on state words named in rotated order.
#define REED_X16_ROUND(a, b, c, d, e, f, g, h, i, wi)                        \
  do {                                                                      \
    const __m512i t1 = Add(                                                 \
        Add(h, BigSigma1(e)),                                               \
        Add(_mm512_ternarylogic_epi32(e, f, g, 0xCA),                       \
            Add(_mm512_set1_epi32(static_cast<int>(kK[i])), wi)));          \
    d = Add(d, t1);                                                         \
    h = Add(t1, Add(BigSigma0(a), _mm512_ternarylogic_epi32(a, b, c, 0xE8))); \
  } while (0)

// Rounds kI0..kI0+15 over the rolling schedule w (w[j] holds W[kI0 + j]
// mod 16). With kExtend, each w[j] is first extended from the sixteen words
// before it. Inlined whole, so every index is a constant and w and the
// state stay in registers.
template <bool kExtend, int kI0>
REED_X16 __attribute__((always_inline)) inline void Rounds16(
    __m512i& a, __m512i& b, __m512i& c, __m512i& d, __m512i& e, __m512i& f,
    __m512i& g, __m512i& h, __m512i (&w)[16]) {
#define REED_X16_W(k)                                                       \
  (kExtend ? (w[(k) & 15] = Add(Add(SmallSigma1(w[((k) + 14) & 15]),        \
                                    w[((k) + 9) & 15]),                     \
                                Add(SmallSigma0(w[((k) + 1) & 15]),         \
                                    w[(k) & 15])))                          \
           : w[(k) & 15])
#define REED_X16_EIGHT(j)                                                   \
  REED_X16_ROUND(a, b, c, d, e, f, g, h, kI0 + (j) + 0, REED_X16_W((j) + 0)); \
  REED_X16_ROUND(h, a, b, c, d, e, f, g, kI0 + (j) + 1, REED_X16_W((j) + 1)); \
  REED_X16_ROUND(g, h, a, b, c, d, e, f, kI0 + (j) + 2, REED_X16_W((j) + 2)); \
  REED_X16_ROUND(f, g, h, a, b, c, d, e, kI0 + (j) + 3, REED_X16_W((j) + 3)); \
  REED_X16_ROUND(e, f, g, h, a, b, c, d, kI0 + (j) + 4, REED_X16_W((j) + 4)); \
  REED_X16_ROUND(d, e, f, g, h, a, b, c, kI0 + (j) + 5, REED_X16_W((j) + 5)); \
  REED_X16_ROUND(c, d, e, f, g, h, a, b, kI0 + (j) + 6, REED_X16_W((j) + 6)); \
  REED_X16_ROUND(b, c, d, e, f, g, h, a, kI0 + (j) + 7, REED_X16_W((j) + 7))
  REED_X16_EIGHT(0);
  REED_X16_EIGHT(8);
#undef REED_X16_EIGHT
#undef REED_X16_W
}

#undef REED_X16_ROUND

// Loads one 64-byte block per lane and transposes them, so w[j] holds
// message word j of all sixteen lanes, byte-swapped to big-endian words.
REED_X16 __attribute__((always_inline)) inline void LoadTransposed(
    const std::uint8_t* const (&p)[kLanes], __m512i (&w)[16]) {
  const __m512i bswap = _mm512_set4_epi32(0x0c0d0e0f, 0x08090a0b,
                                          0x04050607, 0x00010203);
  __m512i r[16], t[16];
  for (std::size_t l = 0; l < kLanes; ++l) {
    r[l] = _mm512_shuffle_epi8(_mm512_loadu_si512(p[l]), bswap);
  }
  // Within each 128-bit quarter q: interleave rows pairwise, then by pairs
  // of pairs, so that r[4i + j] holds word 4q + j of rows 4i..4i+3.
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
  }
  for (int i = 0; i < 16; i += 4) {
    r[i] = _mm512_unpacklo_epi64(t[i], t[i + 2]);
    r[i + 1] = _mm512_unpackhi_epi64(t[i], t[i + 2]);
    r[i + 2] = _mm512_unpacklo_epi64(t[i + 1], t[i + 3]);
    r[i + 3] = _mm512_unpackhi_epi64(t[i + 1], t[i + 3]);
  }
  // Then gather quarter q of the four row groups into word 4q + j.
  for (int j = 0; j < 4; ++j) {
    const __m512i even0 = _mm512_shuffle_i32x4(r[j], r[4 + j], 0x88);
    const __m512i odd0 = _mm512_shuffle_i32x4(r[j], r[4 + j], 0xDD);
    const __m512i even1 = _mm512_shuffle_i32x4(r[8 + j], r[12 + j], 0x88);
    const __m512i odd1 = _mm512_shuffle_i32x4(r[8 + j], r[12 + j], 0xDD);
    w[j] = _mm512_shuffle_i32x4(even0, even1, 0x88);
    w[8 + j] = _mm512_shuffle_i32x4(even0, even1, 0xDD);
    w[4 + j] = _mm512_shuffle_i32x4(odd0, odd1, 0x88);
    w[12 + j] = _mm512_shuffle_i32x4(odd0, odd1, 0xDD);
  }
}

// Runs `blocks` blocks in every lane: lane l reads from p[l] and moves on
// by step[l] bytes a block (0 for an idle lane). `state` holds the
// chaining values, word j of lane l at state[j][l].
REED_X16 void X16Blocks(std::uint32_t (&state)[8][kLanes],
                        const std::uint8_t* (&p)[kLanes],
                        const std::size_t (&step)[kLanes], std::size_t blocks) {
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    __m512i w[16];
    LoadTransposed(p, w);
    // The chaining values stay in `state` so that w and the working
    // variables have the registers.
    __m512i a = _mm512_load_si512(state[0]), b = _mm512_load_si512(state[1]);
    __m512i c = _mm512_load_si512(state[2]), d = _mm512_load_si512(state[3]);
    __m512i e = _mm512_load_si512(state[4]), f = _mm512_load_si512(state[5]);
    __m512i g = _mm512_load_si512(state[6]), h = _mm512_load_si512(state[7]);
    Rounds16<false, 0>(a, b, c, d, e, f, g, h, w);
    Rounds16<true, 16>(a, b, c, d, e, f, g, h, w);
    Rounds16<true, 32>(a, b, c, d, e, f, g, h, w);
    Rounds16<true, 48>(a, b, c, d, e, f, g, h, w);
    const __m512i out[8] = {a, b, c, d, e, f, g, h};
    for (int j = 0; j < 8; ++j) {
      _mm512_store_si512(state[j], Add(out[j], _mm512_load_si512(state[j])));
    }
    for (std::size_t l = 0; l < kLanes; ++l) p[l] += step[l];
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void WipeWords(std::span<std::uint32_t> words) {
  SecureZero(std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(words.data()), words.size_bytes()));
}

// The lanes of one HashMany call. Each lane works through its message's
// whole blocks in place, then through one or two tail blocks built here:
// the message's last partial block, the 0x80 byte, zeros and the bit
// length. A lane whose tail ends takes the next message in the same pass.
// Messages start longest first, so the pass ends on short ones. The tail
// may hold secret bytes (K_M ends CAONT's Y), so it and the chaining values
// are wiped when the call ends.
class X16Lanes {
 public:
  static constexpr std::size_t kIdle = ~std::size_t{0};

  X16Lanes(std::span<const ByteSpan> messages, std::span<Sha256Digest> digests)
      : messages_(messages), digests_(digests), order_(messages.size()) {
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t x, std::size_t y) {
                       return messages[x].size() > messages[y].size();
                     });
    for (std::size_t l = 0; l < kLanes; ++l) Refill(l);
  }

  ~X16Lanes() {
    SecureZero(std::span<std::uint8_t>(&tail_[0][0], sizeof(tail_)));
    WipeWords(std::span<std::uint32_t>(&state_[0][0], 8 * kLanes));
  }

  X16Lanes(const X16Lanes&) = delete;
  X16Lanes& operator=(const X16Lanes&) = delete;

  void Run() {
    while (active_ > 0) {
      // Once nothing is left to refill, a few busy lanes finish faster one
      // message at a time than as a mostly idle vector.
      if (next_ == messages_.size() && active_ <= HandOffLanes()) {
        FinishOneByOne();
        return;
      }
      std::size_t run = ~std::size_t{0};
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (msg_[l] != kIdle) run = std::min(run, left_[l]);
      }
      X16Blocks(state_, ptr_, step_, run);
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (msg_[l] == kIdle) continue;
        left_[l] -= run;
        if (left_[l] > 0) continue;
        if (!in_tail_[l]) {
          EnterTail(l);
        } else {
          digests_[msg_[l]] = LaneDigest(l);
          Refill(l);
        }
      }
    }
  }

 private:
  // With SHA-NI one block costs about a seventh of a sixteen-lane pass.
  static std::size_t HandOffLanes() { return kHaveShaNi ? 6 : 1; }

  // Starts the next message in lane l, or idles the lane.
  void Refill(std::size_t l) {
    for (int j = 0; j < 8; ++j) state_[j][l] = kInitialState[j];
    if (next_ == messages_.size()) {
      if (msg_[l] != kIdle) --active_;
      msg_[l] = kIdle;
      ptr_[l] = kZeroBlock;
      step_[l] = 0;
      return;
    }
    if (msg_[l] == kIdle) ++active_;
    msg_[l] = order_[next_++];
    const ByteSpan m = messages_[msg_[l]];
    const std::size_t whole = m.size() / kSha256BlockSize;
    const std::size_t rest = m.size() % kSha256BlockSize;
    std::uint8_t* tail = tail_[l];
    if (rest > 0) std::memcpy(tail, m.data() + whole * kSha256BlockSize, rest);
    tail_blocks_[l] = rest < 56 ? 1 : 2;
    const std::size_t tail_size = tail_blocks_[l] * kSha256BlockSize;
    tail[rest] = 0x80;
    std::memset(tail + rest + 1, 0, tail_size - rest - 1 - 8);
    PutU64(MutableByteSpan(tail + tail_size - 8, 8), std::uint64_t{m.size()} * 8);
    step_[l] = kSha256BlockSize;
    if (whole > 0) {
      ptr_[l] = m.data();
      left_[l] = whole;
      in_tail_[l] = false;
    } else {
      EnterTail(l);
    }
  }

  void EnterTail(std::size_t l) {
    ptr_[l] = tail_[l];
    left_[l] = tail_blocks_[l];
    in_tail_[l] = true;
  }

  std::array<std::uint32_t, 8> LaneState(std::size_t l) const {
    std::array<std::uint32_t, 8> out;
    for (int j = 0; j < 8; ++j) out[j] = state_[j][l];
    return out;
  }

  Sha256Digest LaneDigest(std::size_t l) const {
    std::array<std::uint32_t, 8> st = LaneState(l);
    Sha256Digest d;
    PutDigest(st, d);
    WipeWords(st);
    return d;
  }

  // Finishes every busy lane on the one-message backend, from where the
  // lane stands in its message.
  void FinishOneByOne() {
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (msg_[l] == kIdle) continue;
      std::array<std::uint32_t, 8> st = LaneState(l);
      ProcessOne(st, ptr_[l], left_[l]);
      if (!in_tail_[l]) ProcessOne(st, tail_[l], tail_blocks_[l]);
      PutDigest(st, digests_[msg_[l]]);
      WipeWords(st);
    }
    active_ = 0;
  }

  static constexpr std::uint8_t kZeroBlock[kSha256BlockSize] = {};

  std::span<const ByteSpan> messages_;
  std::span<Sha256Digest> digests_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  std::size_t active_ = 0;
  alignas(64) std::uint32_t state_[8][kLanes] = {};
  const std::uint8_t* ptr_[kLanes] = {};
  std::size_t step_[kLanes] = {};
  std::size_t left_[kLanes] = {};
  std::size_t msg_[kLanes] = {kIdle, kIdle, kIdle, kIdle, kIdle, kIdle,
                              kIdle, kIdle, kIdle, kIdle, kIdle, kIdle,
                              kIdle, kIdle, kIdle, kIdle};
  bool in_tail_[kLanes] = {};
  std::size_t tail_blocks_[kLanes] = {};
  alignas(64) std::uint8_t tail_[kLanes][2 * kSha256BlockSize] = {};
};

#endif  // REED_X86

}  // namespace

const char* Sha256ManyBackendName(Sha256ManyBackend backend) {
  return backend == Sha256ManyBackend::kX16 ? "x16" : "per-message";
}

void Sha256::Reset() {
  state_ = kInitialState;
  total_len_ = 0;
  buffer_len_ = 0;
}

Sha256::~Sha256() {
  SecureZero(std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(state_.data()), sizeof(state_)));
  SecureZero(buffer_);
}

bool Sha256::UsingHardware() { return kHaveShaNi; }

void Sha256::Update(ByteSpan data) {
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // An empty span may carry a null pointer, which memcpy must not get.
  if (buffer_len_ > 0 && n > 0) {
    std::size_t take = std::min(n, kSha256BlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == kSha256BlockSize) {
      ProcessOne(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  std::size_t full = n / kSha256BlockSize;
  if (full > 0) {
    ProcessOne(state_, p, full);
    p += full * kSha256BlockSize;
    n -= full * kSha256BlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
}

Sha256Digest Sha256::Finish() {
  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[kSha256BlockSize * 2] = {0};
  std::size_t pad_len = (buffer_len_ < 56)
                            ? (56 - buffer_len_)
                            : (120 - buffer_len_);
  pad[0] = 0x80;
  std::uint8_t len_be[8];
  PutU64(len_be, bit_len);
  Update(ByteSpan(pad, pad_len));
  Update(ByteSpan(len_be, 8));

  Sha256Digest digest;
  PutDigest(state_, digest);
  Reset();
  return digest;
}

Sha256Digest Sha256::Hash(ByteSpan data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::HashToBytes(ByteSpan data) {
  Sha256Digest d = Hash(data);
  return Bytes(d.begin(), d.end());
}

bool Sha256::Supports(Sha256ManyBackend backend) {
#if defined(REED_X86)
  if (backend == Sha256ManyBackend::kX16) return kCpuX16.avx512;
#endif
  return backend == Sha256ManyBackend::kPerMessage;
}

Sha256ManyBackend Sha256::ManyBackend() {
  return Supports(Sha256ManyBackend::kX16) ? Sha256ManyBackend::kX16
                                           : Sha256ManyBackend::kPerMessage;
}

void Sha256::HashMany(std::span<const ByteSpan> messages,
                      std::span<Sha256Digest> digests) {
  HashMany(messages, digests, ManyBackend());
}

void Sha256::HashMany(std::span<const ByteSpan> messages,
                      std::span<Sha256Digest> digests,
                      Sha256ManyBackend backend) {
  if (!Supports(backend)) {
    throw CryptoError(std::string("Sha256::HashMany: this CPU has no ") +
                      Sha256ManyBackendName(backend) + " kernel");
  }
  if (messages.size() != digests.size()) {
    throw CryptoError("Sha256::HashMany: one digest per message");
  }
#if defined(REED_X86)
  if (backend == Sha256ManyBackend::kX16) {
    X16Lanes(messages, digests).Run();
    return;
  }
#endif
  for (std::size_t i = 0; i < messages.size(); ++i) {
    digests[i] = Hash(messages[i]);
  }
}

}  // namespace reed::crypto
