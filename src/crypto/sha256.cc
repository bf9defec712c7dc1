#include "crypto/sha256.h"

#include <cstring>

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

}  // namespace

void Sha256::Reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buffer_len_ = 0;
}

Sha256::~Sha256() {
  SecureZero(std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(state_.data()), sizeof(state_)));
  SecureZero(buffer_);
}

bool Sha256::UsingHardware() { return kHaveShaNi; }

void Sha256::ProcessBlocks(const std::uint8_t* data, std::size_t num_blocks) {
#if defined(REED_X86)
  if (kHaveShaNi) {
    ProcessShaNi(state_, data, num_blocks);
    return;
  }
#endif
  ProcessPortable(state_, data, num_blocks);
}

void Sha256::Update(ByteSpan data) {
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len_ > 0) {
    std::size_t take = std::min(n, kSha256BlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == kSha256BlockSize) {
      ProcessBlocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  std::size_t full = n / kSha256BlockSize;
  if (full > 0) {
    ProcessBlocks(p, full);
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
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
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

}  // namespace reed::crypto
