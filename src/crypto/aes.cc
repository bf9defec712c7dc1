#include "crypto/aes.h"

#include "crypto/crypto_error.h"

#include <algorithm>
#include <cstring>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#define REED_X86 1
#endif

namespace reed::crypto {

namespace {

// ---------------------------------------------------------------------------
// GF(2^8) arithmetic and generated tables. The S-box is derived at startup
// from the field inverse + affine transform rather than transcribed, so a
// typo cannot silently corrupt the cipher (FIPS test vectors then pin it).
// ---------------------------------------------------------------------------

std::uint8_t GfMul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  while (b) {
    if (b & 1) p ^= a;
    bool hi = a & 0x80;
    a <<= 1;
    if (hi) a ^= 0x1b;  // x^8 + x^4 + x^3 + x + 1
    b >>= 1;
  }
  return p;
}

struct AesTables {
  std::uint8_t sbox[256];
  std::uint8_t inv_sbox[256];

  AesTables() {
    // Multiplicative inverses by brute force (done once).
    std::uint8_t inv[256] = {0};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (GfMul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)) == 1) {
          inv[a] = static_cast<std::uint8_t>(b);
          break;
        }
      }
    }
    auto rotl8 = [](std::uint8_t x, int n) {
      return static_cast<std::uint8_t>((x << n) | (x >> (8 - n)));
    };
    for (int i = 0; i < 256; ++i) {
      std::uint8_t b = inv[i];
      std::uint8_t s = static_cast<std::uint8_t>(
          b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63);
      sbox[i] = s;
      inv_sbox[s] = static_cast<std::uint8_t>(i);
    }
  }
};

const AesTables kTables;

inline std::uint8_t XTime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

constexpr int kRounds = 14;  // AES-256

void ExpandKeyPortable(ByteSpan key, std::uint8_t ek[240]) {
  // w[i] packed big-endian so consecutive ek bytes match FIPS-197 order.
  std::uint32_t w[60];
  for (int i = 0; i < 8; ++i) {
    w[i] = (static_cast<std::uint32_t>(key[4 * i]) << 24) |
           (static_cast<std::uint32_t>(key[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(key[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(key[4 * i + 3]);
  }
  auto sub_word = [](std::uint32_t v) {
    return (static_cast<std::uint32_t>(kTables.sbox[(v >> 24) & 0xFF]) << 24) |
           (static_cast<std::uint32_t>(kTables.sbox[(v >> 16) & 0xFF]) << 16) |
           (static_cast<std::uint32_t>(kTables.sbox[(v >> 8) & 0xFF]) << 8) |
           static_cast<std::uint32_t>(kTables.sbox[v & 0xFF]);
  };
  std::uint32_t rcon = 0x01;
  for (int i = 8; i < 60; ++i) {
    std::uint32_t temp = w[i - 1];
    if (i % 8 == 0) {
      temp = sub_word((temp << 8) | (temp >> 24)) ^ (rcon << 24);
      rcon = GfMul(static_cast<std::uint8_t>(rcon), 2);
    } else if (i % 8 == 4) {
      temp = sub_word(temp);
    }
    w[i] = w[i - 8] ^ temp;
  }
  for (int i = 0; i < 60; ++i) {
    ek[4 * i] = static_cast<std::uint8_t>(w[i] >> 24);
    ek[4 * i + 1] = static_cast<std::uint8_t>(w[i] >> 16);
    ek[4 * i + 2] = static_cast<std::uint8_t>(w[i] >> 8);
    ek[4 * i + 3] = static_cast<std::uint8_t>(w[i]);
  }
}

// State layout: column-major FIPS order, state[4c + r] = s[r][c].
inline void AddRoundKey(std::uint8_t s[16], const std::uint8_t* rk) {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

inline void SubBytes(std::uint8_t s[16]) {
  for (int i = 0; i < 16; ++i) s[i] = kTables.sbox[s[i]];
}

inline void InvSubBytes(std::uint8_t s[16]) {
  for (int i = 0; i < 16; ++i) s[i] = kTables.inv_sbox[s[i]];
}

inline void ShiftRows(std::uint8_t s[16]) {
  std::uint8_t t[16];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      t[4 * c + r] = s[4 * ((c + r) % 4) + r];
    }
  }
  std::memcpy(s, t, 16);
}

inline void InvShiftRows(std::uint8_t s[16]) {
  std::uint8_t t[16];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      t[4 * ((c + r) % 4) + r] = s[4 * c + r];
    }
  }
  std::memcpy(s, t, 16);
}

inline void MixColumns(std::uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* a = s + 4 * c;
    std::uint8_t t = static_cast<std::uint8_t>(a[0] ^ a[1] ^ a[2] ^ a[3]);
    std::uint8_t a0 = a[0];
    a[0] = static_cast<std::uint8_t>(
        a[0] ^ t ^ XTime(static_cast<std::uint8_t>(a[0] ^ a[1])));
    a[1] = static_cast<std::uint8_t>(
        a[1] ^ t ^ XTime(static_cast<std::uint8_t>(a[1] ^ a[2])));
    a[2] = static_cast<std::uint8_t>(
        a[2] ^ t ^ XTime(static_cast<std::uint8_t>(a[2] ^ a[3])));
    a[3] = static_cast<std::uint8_t>(
        a[3] ^ t ^ XTime(static_cast<std::uint8_t>(a[3] ^ a0)));
  }
}

inline void InvMixColumns(std::uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* a = s + 4 * c;
    std::uint8_t b0 = GfMul(a[0], 14) ^ GfMul(a[1], 11) ^ GfMul(a[2], 13) ^ GfMul(a[3], 9);
    std::uint8_t b1 = GfMul(a[0], 9) ^ GfMul(a[1], 14) ^ GfMul(a[2], 11) ^ GfMul(a[3], 13);
    std::uint8_t b2 = GfMul(a[0], 13) ^ GfMul(a[1], 9) ^ GfMul(a[2], 14) ^ GfMul(a[3], 11);
    std::uint8_t b3 = GfMul(a[0], 11) ^ GfMul(a[1], 13) ^ GfMul(a[2], 9) ^ GfMul(a[3], 14);
    a[0] = b0; a[1] = b1; a[2] = b2; a[3] = b3;
  }
}

void EncryptBlockPortable(const std::uint8_t ek[240], const std::uint8_t in[16],
                          std::uint8_t out[16]) {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  AddRoundKey(s, ek);
  for (int r = 1; r < kRounds; ++r) {
    SubBytes(s);
    ShiftRows(s);
    MixColumns(s);
    AddRoundKey(s, ek + 16 * r);
  }
  SubBytes(s);
  ShiftRows(s);
  AddRoundKey(s, ek + 16 * kRounds);
  std::memcpy(out, s, 16);
}

void DecryptBlockPortable(const std::uint8_t ek[240], const std::uint8_t in[16],
                          std::uint8_t out[16]) {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  AddRoundKey(s, ek + 16 * kRounds);
  for (int r = kRounds - 1; r >= 1; --r) {
    InvShiftRows(s);
    InvSubBytes(s);
    AddRoundKey(s, ek + 16 * r);
    InvMixColumns(s);
  }
  InvShiftRows(s);
  InvSubBytes(s);
  AddRoundKey(s, ek);
  std::memcpy(out, s, 16);
}

inline void IncrementCounter(std::uint8_t ctr[16]) {
  for (int i = 15; i >= 0; --i) {
    if (++ctr[i] != 0) break;  // full-width big-endian increment
  }
}

using BlockFn = void (*)(const std::uint8_t*, const std::uint8_t*,
                         std::uint8_t*);

// CTR one block at a time with the full 128-bit carry: the portable
// backend's loop, and the wide loops' path for a group whose low counter
// word wraps.
void CtrXorPerBlock(BlockFn encrypt, const std::uint8_t ek[240],
                    std::uint8_t ctr[16], const std::uint8_t* in,
                    std::uint8_t* out, std::size_t nblocks) {
  std::uint8_t ks[kAesBlockSize] = {};
  for (; nblocks > 0; --nblocks) {
    encrypt(ek, ctr, ks);
    for (std::size_t i = 0; i < kAesBlockSize; ++i) {
      out[i] = static_cast<std::uint8_t>(in[i] ^ ks[i]);
    }
    IncrementCounter(ctr);
    in += kAesBlockSize;
    out += kAesBlockSize;
  }
  SecureZero(ks);
}

#if defined(REED_X86)

// CPUID, read once. __builtin_cpu_init must run first because this may
// execute during static initialisation.
struct CpuAes {
  bool aes_ni = false;
  bool vaes = false;
  CpuAes() {
    __builtin_cpu_init();
    aes_ni = __builtin_cpu_supports("aes") != 0;
    // The VAES loop works on ymm registers, which need AVX2 (and the OS
    // support for their state that the avx2 check includes).
    vaes = aes_ni && __builtin_cpu_supports("vaes") != 0 &&
           __builtin_cpu_supports("avx2") != 0;
  }
};

const CpuAes kCpu;
const bool kHaveAesNi = kCpu.aes_ni;

inline std::uint64_t LoadBe64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return __builtin_bswap64(v);
}

inline void StoreBe64(std::uint8_t* p, std::uint64_t v) {
  v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof(v));
}

// FIPS-197 AES-256 key expansion on AES-NI: aeskeygenassist computes
// SubWord(RotWord(w)) ^ Rcon for the even round keys and SubWord(w) for the
// odd ones; the shifted XORs fold in the previous four words.
__attribute__((target("aes,sse2")))
inline __m128i FoldWords(__m128i k, __m128i assist) {
  __m128i t = _mm_slli_si128(k, 4);
  k = _mm_xor_si128(k, t);
  t = _mm_slli_si128(t, 4);
  k = _mm_xor_si128(k, t);
  t = _mm_slli_si128(t, 4);
  k = _mm_xor_si128(k, t);
  return _mm_xor_si128(k, assist);
}

template <int kRcon>
__attribute__((target("aes,sse2")))
inline void ExpandStepNi(__m128i& even, __m128i& odd, std::uint8_t* ek) {
  even = FoldWords(
      even, _mm_shuffle_epi32(_mm_aeskeygenassist_si128(odd, kRcon), 0xff));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(ek), even);
  if (kRcon == 0x40) return;  // round key 14 is the last one
  odd = FoldWords(
      odd, _mm_shuffle_epi32(_mm_aeskeygenassist_si128(even, 0), 0xaa));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(ek + 16), odd);
}

__attribute__((target("aes,sse2")))
void ExpandKeyNi(const std::uint8_t key[32], std::uint8_t ek[240]) {
  __m128i even = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  __m128i odd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key + 16));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(ek), even);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(ek + 16), odd);
  ExpandStepNi<0x01>(even, odd, ek + 32);
  ExpandStepNi<0x02>(even, odd, ek + 64);
  ExpandStepNi<0x04>(even, odd, ek + 96);
  ExpandStepNi<0x08>(even, odd, ek + 128);
  ExpandStepNi<0x10>(even, odd, ek + 160);
  ExpandStepNi<0x20>(even, odd, ek + 192);
  ExpandStepNi<0x40>(even, odd, ek + 224);
}

__attribute__((target("aes,sse2")))
void BuildDecKeysNi(const std::uint8_t enc[240], std::uint8_t dec[240]) {
  // Equivalent inverse cipher: dec[0] = enc[last], middle keys aesimc'd in
  // reverse order, dec[last] = enc[0].
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(enc + 16 * kRounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dec), k);
  for (int r = 1; r < kRounds; ++r) {
    k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(enc + 16 * (kRounds - r)));
    k = _mm_aesimc_si128(k);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dec + 16 * r), k);
  }
  k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(enc));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dec + 16 * kRounds), k);
}

__attribute__((target("aes,sse2")))
void EncryptBlockNi(const std::uint8_t ek[240], const std::uint8_t in[16],
                    std::uint8_t out[16]) {
  __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  x = _mm_xor_si128(x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(ek)));
  for (int r = 1; r < kRounds; ++r) {
    x = _mm_aesenc_si128(x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(ek + 16 * r)));
  }
  x = _mm_aesenclast_si128(x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(ek + 16 * kRounds)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), x);
}

__attribute__((target("aes,sse2")))
void DecryptBlockNi(const std::uint8_t dk[240], const std::uint8_t in[16],
                    std::uint8_t out[16]) {
  __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  x = _mm_xor_si128(x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dk)));
  for (int r = 1; r < kRounds; ++r) {
    x = _mm_aesdec_si128(x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dk + 16 * r)));
  }
  x = _mm_aesdeclast_si128(x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dk + 16 * kRounds)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), x);
}

// The wide CTR loops below keep each counter block in a register as its
// (low, high) 64-bit words, add to the low word, and byte-swap each 128-bit
// lane back into the big-endian block. That is the full 128-bit increment
// as long as the low word does not wrap inside a group; a group where it
// would goes through CtrXorPerBlock instead. A group shorter than the full
// width (the tail of a call) still computes the whole group in registers
// and XORs only the blocks it has.

// 8 blocks per step in xmm registers: the loop for hosts without VAES.
constexpr std::size_t kNiGroup = 8;

__attribute__((target("aes,ssse3")))
void CtrXorNi(const std::uint8_t ek[240], std::uint8_t ctr[16],
              const std::uint8_t* in, std::uint8_t* out, std::size_t nblocks) {
  __m128i keys[kRounds + 1];
  for (int r = 0; r <= kRounds; ++r) {
    keys[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ek + 16 * r));
  }
  const __m128i byte_swap =
      _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const __m128i one = _mm_set_epi64x(0, 1);
  std::uint64_t hi = LoadBe64(ctr), lo = LoadBe64(ctr + 8);
  while (nblocks > 0) {
    const std::size_t n = std::min(nblocks, kNiGroup);
    if (lo > ~std::uint64_t{0} - (kNiGroup - 1)) {
      StoreBe64(ctr, hi);
      StoreBe64(ctr + 8, lo);
      CtrXorPerBlock(EncryptBlockNi, ek, ctr, in, out, n);
      hi = LoadBe64(ctr);
      lo = LoadBe64(ctr + 8);
    } else {
      __m128i c = _mm_set_epi64x(static_cast<long long>(hi),
                                 static_cast<long long>(lo));
      __m128i x[kNiGroup];
      for (std::size_t j = 0; j < kNiGroup; ++j) {
        x[j] = _mm_xor_si128(_mm_shuffle_epi8(c, byte_swap), keys[0]);
        c = _mm_add_epi64(c, one);
      }
      for (int r = 1; r < kRounds; ++r) {
        for (std::size_t j = 0; j < kNiGroup; ++j) {
          x[j] = _mm_aesenc_si128(x[j], keys[r]);
        }
      }
      for (std::size_t j = 0; j < kNiGroup; ++j) {
        if (j < n) {
          x[j] = _mm_aesenclast_si128(x[j], keys[kRounds]);
          auto* o = reinterpret_cast<__m128i*>(out + 16 * j);
          const auto* i = reinterpret_cast<const __m128i*>(in + 16 * j);
          _mm_storeu_si128(o, _mm_xor_si128(_mm_loadu_si128(i), x[j]));
        }
      }
      lo += n;
      if (lo < n) ++hi;
    }
    in += 16 * n;
    out += 16 * n;
    nblocks -= n;
  }
  StoreBe64(ctr, hi);
  StoreBe64(ctr + 8, lo);
  SecureZero(std::span(reinterpret_cast<std::uint8_t*>(keys), sizeof(keys)));
}

// 16 blocks per step: 8 ymm registers of two blocks each. ymm rather than
// zmm, so the loop never lowers the clock of a core through AVX-512 while
// the keygen and CP-ABE threads run beside it.
constexpr std::size_t kVaesGroup = 16;

__attribute__((target("vaes,avx2,aes")))
void CtrXorVaes(const std::uint8_t ek[240], std::uint8_t ctr[16],
                const std::uint8_t* in, std::uint8_t* out,
                std::size_t nblocks) {
  __m256i keys[kRounds + 1];
  for (int r = 0; r <= kRounds; ++r) {
    keys[r] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ek + 16 * r)));
  }
  const __m256i byte_swap = _mm256_setr_epi8(
      15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0,
      15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const __m256i two = _mm256_set_epi64x(0, 2, 0, 2);
  std::uint64_t hi = LoadBe64(ctr), lo = LoadBe64(ctr + 8);
  while (nblocks > 0) {
    const std::size_t n = std::min(nblocks, kVaesGroup);
    if (lo > ~std::uint64_t{0} - (kVaesGroup - 1)) {
      StoreBe64(ctr, hi);
      StoreBe64(ctr + 8, lo);
      CtrXorPerBlock(EncryptBlockNi, ek, ctr, in, out, n);
      hi = LoadBe64(ctr);
      lo = LoadBe64(ctr + 8);
    } else {
      // Unsigned adds, then the modular (C++20) conversion to the
      // intrinsic's signed lanes.
      const auto h = static_cast<long long>(hi);
      __m256i c = _mm256_set_epi64x(h, static_cast<long long>(lo + 1), h,
                                    static_cast<long long>(lo));
      __m256i x[kVaesGroup / 2];
      for (std::size_t j = 0; j < kVaesGroup / 2; ++j) {
        x[j] = _mm256_xor_si256(_mm256_shuffle_epi8(c, byte_swap), keys[0]);
        c = _mm256_add_epi64(c, two);
      }
      for (int r = 1; r < kRounds; ++r) {
        for (std::size_t j = 0; j < kVaesGroup / 2; ++j) {
          x[j] = _mm256_aesenc_epi128(x[j], keys[r]);
        }
      }
      for (std::size_t j = 0; j < kVaesGroup / 2; ++j) {
        x[j] = _mm256_aesenclast_epi128(x[j], keys[kRounds]);
        if (2 * j + 2 <= n) {
          auto* o = reinterpret_cast<__m256i*>(out + 32 * j);
          const auto* i = reinterpret_cast<const __m256i*>(in + 32 * j);
          _mm256_storeu_si256(o, _mm256_xor_si256(_mm256_loadu_si256(i), x[j]));
        } else if (2 * j + 1 == n) {
          auto* o = reinterpret_cast<__m128i*>(out + 32 * j);
          const auto* i = reinterpret_cast<const __m128i*>(in + 32 * j);
          _mm_storeu_si128(o, _mm_xor_si128(_mm_loadu_si128(i),
                                            _mm256_castsi256_si128(x[j])));
        }
      }
      lo += n;
      if (lo < n) ++hi;
    }
    in += 16 * n;
    out += 16 * n;
    nblocks -= n;
  }
  StoreBe64(ctr, hi);
  StoreBe64(ctr + 8, lo);
  SecureZero(std::span(reinterpret_cast<std::uint8_t*>(keys), sizeof(keys)));
}

#else
const bool kHaveAesNi = false;
#endif  // REED_X86

}  // namespace

const char* AesBackendName(AesBackend backend) {
  switch (backend) {
    case AesBackend::kVaes:
      return "vaes";
    case AesBackend::kAesNi:
      return "aes-ni";
    case AesBackend::kPortable:
      break;
  }
  return "portable";
}

Aes256::Aes256(ByteSpan key, AesBackend backend) {
  if (key.size() != kAes256KeySize) {
    throw CryptoError("Aes256: key must be 32 bytes");
  }
#if defined(REED_X86)
  if (kHaveAesNi) {
    if (backend == AesBackend::kPortable) {
      ExpandKeyPortable(key, enc_round_keys_.data());
    } else {
      ExpandKeyNi(key.data(), enc_round_keys_.data());
    }
    BuildDecKeysNi(enc_round_keys_.data(), dec_round_keys_.data());
    return;
  }
#endif
  (void)backend;
  ExpandKeyPortable(key, enc_round_keys_.data());
  dec_round_keys_ = enc_round_keys_;  // portable decrypt reuses enc keys
}

bool Aes256::Supports(AesBackend backend) {
  switch (backend) {
#if defined(REED_X86)
    case AesBackend::kVaes:
      return kCpu.vaes;
    case AesBackend::kAesNi:
      return kCpu.aes_ni;
#endif
    case AesBackend::kPortable:
      return true;
    default:
      return false;
  }
}

AesBackend Aes256::Backend() {
  if (Supports(AesBackend::kVaes)) return AesBackend::kVaes;
  if (Supports(AesBackend::kAesNi)) return AesBackend::kAesNi;
  return AesBackend::kPortable;
}

void Aes256::EncryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const {
#if defined(REED_X86)
  if (kHaveAesNi) {
    EncryptBlockNi(enc_round_keys_.data(), in, out);
    return;
  }
#endif
  EncryptBlockPortable(enc_round_keys_.data(), in, out);
}

void Aes256::DecryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const {
#if defined(REED_X86)
  if (kHaveAesNi) {
    DecryptBlockNi(dec_round_keys_.data(), in, out);
    return;
  }
#endif
  DecryptBlockPortable(enc_round_keys_.data(), in, out);
}

// ---------------------------------------------------------------------------
// CTR mode
// ---------------------------------------------------------------------------

AesCtr::AesCtr(ByteSpan key, ByteSpan iv, AesBackend backend)
    : aes_(key, backend), backend_(backend) {
  if (!Aes256::Supports(backend)) {
    throw CryptoError(std::string("AesCtr: this CPU has no ") +
                      AesBackendName(backend) + " backend");
  }
  if (iv.size() != kAesBlockSize) {
    throw CryptoError("AesCtr: iv must be 16 bytes");
  }
  std::memcpy(counter_.data(), iv.data(), kAesBlockSize);
}

void AesCtr::XorBlocks(const std::uint8_t* in, std::uint8_t* out,
                       std::size_t nblocks) {
  const std::uint8_t* ek = aes_.enc_round_keys_.data();
  switch (backend_) {
#if defined(REED_X86)
    case AesBackend::kVaes:
      CtrXorVaes(ek, counter_.data(), in, out, nblocks);
      return;
    case AesBackend::kAesNi:
      CtrXorNi(ek, counter_.data(), in, out, nblocks);
      return;
#endif
    default:
      CtrXorPerBlock(EncryptBlockPortable, ek, counter_.data(), in, out,
                     nblocks);
  }
}

void AesCtr::Process(ByteSpan in, MutableByteSpan out) {
  if (in.size() != out.size()) {
    throw CryptoError("AesCtr: input and output sizes differ");
  }
  const std::uint8_t* src = in.data();
  std::uint8_t* dst = out.data();
  std::size_t n = in.size();
  // Finish the keystream block an earlier call left part-used.
  for (; n > 0 && buffer_pos_ < kAesBlockSize; --n) {
    *dst++ = static_cast<std::uint8_t>(*src++ ^ buffer_[buffer_pos_++]);
  }
  const std::size_t full = n / kAesBlockSize;
  if (full > 0) {
    XorBlocks(src, dst, full);
    src += full * kAesBlockSize;
    dst += full * kAesBlockSize;
    n -= full * kAesBlockSize;
  }
  if (n > 0) {
    // A final partial block: its keystream stays in buffer_ for the next
    // call, and the destructor wipes it.
    buffer_.fill(0);
    XorBlocks(buffer_.data(), buffer_.data(), 1);
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<std::uint8_t>(src[i] ^ buffer_[i]);
    }
    buffer_pos_ = n;
  }
}

void AesCtr::Keystream(MutableByteSpan out) {
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  Process(out);
}

Bytes AesCtrEncrypt(ByteSpan key, ByteSpan iv, ByteSpan data) {
  Bytes out(data.size());
  AesCtr ctr(key, iv);
  ctr.Process(data, out);
  return out;
}

// ---------------------------------------------------------------------------
// CBC mode with PKCS#7
// ---------------------------------------------------------------------------

Bytes AesCbcEncrypt(ByteSpan key, ByteSpan iv, ByteSpan plaintext) {
  if (iv.size() != kAesBlockSize) throw CryptoError("AesCbcEncrypt: bad iv size");
  Aes256 aes(key);
  std::size_t pad = kAesBlockSize - (plaintext.size() % kAesBlockSize);
  Bytes padded(plaintext.begin(), plaintext.end());
  padded.insert(padded.end(), pad, static_cast<std::uint8_t>(pad));

  Bytes out(padded.size());
  std::uint8_t prev[kAesBlockSize];
  std::memcpy(prev, iv.data(), kAesBlockSize);
  for (std::size_t off = 0; off < padded.size(); off += kAesBlockSize) {
    std::uint8_t blk[kAesBlockSize];
    for (std::size_t i = 0; i < kAesBlockSize; ++i) blk[i] = padded[off + i] ^ prev[i];
    aes.EncryptBlock(blk, out.data() + off);
    std::memcpy(prev, out.data() + off, kAesBlockSize);
  }
  return out;
}

Bytes AesCbcDecrypt(ByteSpan key, ByteSpan iv, ByteSpan ciphertext) {
  if (iv.size() != kAesBlockSize) throw CryptoError("AesCbcDecrypt: bad iv size");
  if (ciphertext.empty() || ciphertext.size() % kAesBlockSize != 0) {
    throw CryptoError("AesCbcDecrypt: ciphertext not block-aligned");
  }
  Aes256 aes(key);
  Bytes out(ciphertext.size());
  std::uint8_t prev[kAesBlockSize];
  std::memcpy(prev, iv.data(), kAesBlockSize);
  for (std::size_t off = 0; off < ciphertext.size(); off += kAesBlockSize) {
    std::uint8_t blk[kAesBlockSize];
    aes.DecryptBlock(ciphertext.data() + off, blk);
    for (std::size_t i = 0; i < kAesBlockSize; ++i) blk[i] ^= prev[i];
    std::memcpy(prev, ciphertext.data() + off, kAesBlockSize);
    std::memcpy(out.data() + off, blk, kAesBlockSize);
  }
  std::uint8_t pad = out.back();
  if (pad == 0 || pad > kAesBlockSize || pad > out.size()) {
    throw CryptoError("AesCbcDecrypt: bad padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) throw CryptoError("AesCbcDecrypt: bad padding");
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace reed::crypto
