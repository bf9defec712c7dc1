// Crypto substrate tests: FIPS/RFC vectors pin each primitive, then
// property-style suites exercise round-trips and streaming edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "util/bytes.h"

namespace reed::crypto {
namespace {

// --------------------------- SHA-256 ---------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::HashToBytes({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256::HashToBytes(ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      HexEncode(Sha256::HashToBytes(ToBytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  Sha256Digest d = h.Finish();
  EXPECT_EQ(HexEncode(ByteSpan(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShotAtAllSplitPoints) {
  Bytes msg(300);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 7);
  Sha256Digest want = Sha256::Hash(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 13) {
    Sha256 h;
    h.Update(ByteSpan(msg.data(), split));
    h.Update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.Finish(), want) << "split=" << split;
  }
}

TEST(Sha256Test, FinishResetsForReuse) {
  Sha256 h;
  h.Update(ToBytes("abc"));
  Sha256Digest first = h.Finish();
  h.Update(ToBytes("abc"));
  EXPECT_EQ(h.Finish(), first);
}

TEST(Sha256Test, EmptyUpdateAfterAPartialBlock) {
  // An empty Bytes has a null data(); under UBSan a memcpy from it fails.
  Sha256 h;
  h.Update(ToBytes("abc"));
  h.Update(Bytes{});
  EXPECT_EQ(h.Finish(), Sha256::Hash(ToBytes("abc")));
}

// Lengths straddling the padding boundary (55/56/57 and 63/64/65 bytes).
class Sha256PaddingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256PaddingTest, PaddingBoundaryConsistency) {
  std::size_t len = GetParam();
  Bytes msg(len, 0xAB);
  Sha256Digest one_shot = Sha256::Hash(msg);
  Sha256 h;
  for (std::size_t i = 0; i < len; ++i) h.Update(ByteSpan(&msg[i], 1));
  EXPECT_EQ(h.Finish(), one_shot);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256PaddingTest,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 121, 127, 128, 129));

// --------------------------- HMAC / HKDF ---------------------------

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Sha256Digest mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(HexEncode(ByteSpan(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Sha256Digest mac =
      HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(HexEncode(ByteSpan(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes long_key(131, 0xaa);
  // RFC 4231 test case 6.
  Sha256Digest mac = HmacSha256(
      long_key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(HexEncode(ByteSpan(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = HexDecode("000102030405060708090a0b0c");
  Bytes info = HexDecode("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = HkdfSha256(ikm, salt, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, DifferentLabelsGiveIndependentKeys) {
  Bytes ikm = ToBytes("master secret material");
  Bytes a = DeriveKey32(ikm, "reed/file-key");
  Bytes b = DeriveKey32(ikm, "reed/stub-key");
  EXPECT_EQ(a.size(), 32u);
  EXPECT_EQ(b.size(), 32u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, DeriveKey32(ikm, "reed/file-key"));  // deterministic
}

TEST(HkdfTest, RejectsOversizedRequest) {
  EXPECT_THROW(HkdfSha256(ToBytes("x"), {}, {}, 255 * 32 + 1), Error);
}

// --------------------------- AES-256 ---------------------------

TEST(Aes256Test, Fips197AppendixC3) {
  Bytes key = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes pt = HexDecode("00112233445566778899aabbccddeeff");
  Aes256 aes(key);
  std::uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ct), "8ea2b7ca516745bfeafc49904b496089");
  std::uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(HexEncode(back), HexEncode(pt));
}

TEST(Aes256Test, Sp800_38aEcbVector) {
  Bytes key = HexDecode(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes pt = HexDecode("6bc1bee22e409f96e93d7e117393172a");
  Aes256 aes(key);
  std::uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ct), "f3eed1bdb5d2a03c064b5a7e3db181f8");
}

TEST(Aes256Test, RejectsWrongKeySize) {
  Bytes short_key(16, 0);
  EXPECT_THROW(Aes256 aes(short_key), Error);
}

TEST(AesCtrTest, Sp800_38aCtrVectors) {
  Bytes key = HexDecode(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes iv = HexDecode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = HexDecode(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  Bytes ct = AesCtrEncrypt(key, iv, pt);
  EXPECT_EQ(HexEncode(ct),
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5");
}

TEST(AesCtrTest, RoundTripArbitraryLengths) {
  DeterministicRng rng(42);
  Bytes key = rng.Generate(32);
  Bytes iv = rng.Generate(16);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u, 10000u}) {
    Bytes pt = rng.Generate(len);
    Bytes ct = AesCtrEncrypt(key, iv, pt);
    EXPECT_EQ(ct.size(), len);
    EXPECT_EQ(AesCtrDecrypt(key, iv, ct), pt);
    if (len >= 16) {
      EXPECT_NE(ct, pt);
    }
  }
}

TEST(AesCtrTest, StreamingMatchesOneShot) {
  DeterministicRng rng(7);
  Bytes key = rng.Generate(32);
  Bytes iv = rng.Generate(16);
  Bytes data = rng.Generate(1000);
  Bytes whole = AesCtrEncrypt(key, iv, data);

  Bytes pieces = data;
  AesCtr ctr(key, iv);
  ctr.Process(MutableByteSpan(pieces.data(), 37));
  ctr.Process(MutableByteSpan(pieces.data() + 37, 500));
  ctr.Process(MutableByteSpan(pieces.data() + 537, 463));
  EXPECT_EQ(pieces, whole);
}

// The CTR oracle: ECB of explicit counter blocks iv + i, the counter being
// one 128-bit big-endian integer that wraps at 2^128.
std::array<std::uint8_t, 16> CounterBlock(ByteSpan iv, std::uint64_t i) {
  std::array<std::uint8_t, 16> block;
  std::copy(iv.begin(), iv.end(), block.begin());
  unsigned carry = 0;
  for (int b = 15; b >= 0; --b) {
    unsigned sum = block[b] + static_cast<unsigned>(i & 0xFF) + carry;
    block[b] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
    i >>= 8;
  }
  return block;
}

Bytes EcbOfCounters(ByteSpan key, ByteSpan iv, ByteSpan data) {
  Aes256 aes(key);
  Bytes out(data.begin(), data.end());
  for (std::size_t off = 0; off < out.size(); off += 16) {
    std::array<std::uint8_t, 16> ks;
    aes.EncryptBlock(CounterBlock(iv, off / 16).data(), ks.data());
    for (std::size_t i = 0; i < 16 && off + i < out.size(); ++i) {
      out[off + i] ^= ks[i];
    }
  }
  return out;
}

// IVs whose counters carry: a random one, one whose low 64-bit word wraps
// inside the first 16-block group, one whose low word crosses 2^63 (the
// sign bit of a signed 64-bit lane), and all 0xFF (the whole counter wraps).
std::vector<Bytes> CarryIvs() {
  DeterministicRng rng(77);
  Bytes wrap_low = rng.Generate(16);
  std::fill(wrap_low.begin() + 8, wrap_low.end(), 0xFF);
  wrap_low[15] = 0xF8;
  Bytes sign_low = rng.Generate(16);
  std::fill(sign_low.begin() + 8, sign_low.end(), 0xFF);
  sign_low[8] = 0x7F;
  return {rng.Generate(16), wrap_low, sign_low, Bytes(16, 0xFF)};
}

TEST(AesCtrTest, CounterCarriesAcrossByteBoundaries) {
  // Both carry IVs cross 2^64 and 2^128 boundaries mid-stream; the output
  // must equal ECB of the explicitly incremented counter blocks, which a
  // round trip alone cannot show.
  Bytes key(32, 0x11);
  Bytes pt(40 * 16 + 5, 0x5a);
  for (const Bytes& iv : CarryIvs()) {
    EXPECT_EQ(HexEncode(AesCtrEncrypt(key, iv, pt)),
              HexEncode(EcbOfCounters(key, iv, pt)))
        << "iv " << HexEncode(iv);
  }
}

TEST(AesCtrTest, OutOfPlaceMatchesInPlace) {
  DeterministicRng rng(12);
  Bytes key = rng.Generate(32), iv = rng.Generate(16);
  Bytes data = rng.Generate(1000);
  Bytes in_place = data;
  AesCtr(key, iv).Process(in_place);
  Bytes out(data.size());
  AesCtr(key, iv).Process(data, out);
  EXPECT_EQ(out, in_place);
  Bytes short_out(data.size() - 1);
  EXPECT_THROW(AesCtr(key, iv).Process(data, short_out), Error);
}

// --------------------- AES-CTR on every dispatch path ---------------------

class AesCtrBackendTest : public ::testing::TestWithParam<AesBackend> {
 protected:
  void SetUp() override {
    if (!Aes256::Supports(GetParam())) {
      GTEST_SKIP() << "this CPU has no " << AesBackendName(GetParam())
                   << " backend; that path was not run";
    }
  }

  Bytes Run(AesBackend backend, ByteSpan key, ByteSpan iv, ByteSpan data) {
    Bytes out(data.size());
    AesCtr(key, iv, backend).Process(data, out);
    return out;
  }
};

TEST_P(AesCtrBackendTest, Sp800_38aF55Vectors) {
  // NIST SP 800-38A F.5.5 (CTR-AES256.Encrypt); F.5.6 is the same op.
  Bytes key = HexDecode(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes iv = HexDecode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = HexDecode(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const std::string ct =
      "601ec313775789a5b7a7f504bbf3d228"
      "f443e3ca4d62b59aca84e990cacaf5c5"
      "2b0930daa23de94ce87017ba2d84988d"
      "dfc9c58db67aada613c2dd08457941a6";
  EXPECT_EQ(HexEncode(Run(GetParam(), key, iv, pt)), ct);
  EXPECT_EQ(Run(GetParam(), key, iv, HexDecode(ct)), pt);
}

TEST_P(AesCtrBackendTest, MatchesPortableAndEcbAtEveryLength) {
  DeterministicRng rng(21);
  Bytes key = rng.Generate(32);
  Bytes data = rng.Generate(8193);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1040; ++n) lengths.push_back(n);
  for (std::size_t n : {8191u, 8192u, 8193u}) lengths.push_back(n);
  for (const Bytes& iv : CarryIvs()) {
    for (std::size_t n : lengths) {
      ByteSpan in(data.data(), n);
      Bytes got = Run(GetParam(), key, iv, in);
      ASSERT_EQ(got, Run(AesBackend::kPortable, key, iv, in))
          << "length " << n << ", iv " << HexEncode(iv);
      ASSERT_EQ(got, EcbOfCounters(key, iv, in))
          << "length " << n << ", iv " << HexEncode(iv);
    }
  }
}

TEST_P(AesCtrBackendTest, StreamingSplitsMatchOneShot) {
  // Odd split sizes leave a part-used keystream block between calls, so
  // the wide loop starts mid-stream and the counter carries over.
  DeterministicRng rng(22);
  Bytes key = rng.Generate(32);
  Bytes data = rng.Generate(8193);
  for (const Bytes& iv : CarryIvs()) {
    Bytes whole = EcbOfCounters(key, iv, data);
    for (std::size_t step : {1u, 7u, 15u, 17u, 255u, 257u, 1021u}) {
      Bytes pieces = data;
      AesCtr ctr(key, iv, GetParam());
      std::size_t off = 0;
      for (std::size_t k = 0; off < pieces.size(); ++k) {
        // Alternate a short odd piece with the step, so pieces vary.
        std::size_t len = std::min(pieces.size() - off, k % 2 ? step : 3);
        ctr.Process(MutableByteSpan(pieces.data() + off, len));
        off += len;
      }
      EXPECT_EQ(pieces, whole) << "step " << step << ", iv " << HexEncode(iv);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryPath, AesCtrBackendTest,
                         ::testing::Values(AesBackend::kPortable,
                                           AesBackend::kAesNi,
                                           AesBackend::kVaes),
                         [](const auto& param_info) {
                           std::string name = AesBackendName(param_info.param);
                           std::erase(name, '-');
                           return name;
                         });

TEST(AesCtrTest, DetectedBackendIsSupported) {
  EXPECT_TRUE(Aes256::Supports(Aes256::Backend()));
  EXPECT_TRUE(Aes256::Supports(AesBackend::kPortable));
  std::printf("AES backend on this host: %s\n",
              AesBackendName(Aes256::Backend()));
}

TEST(AesCbcTest, RoundTripWithPadding) {
  DeterministicRng rng(9);
  Bytes key = rng.Generate(32);
  Bytes iv = rng.Generate(16);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 1000u}) {
    Bytes pt = rng.Generate(len);
    Bytes ct = AesCbcEncrypt(key, iv, pt);
    EXPECT_EQ(ct.size() % 16, 0u);
    EXPECT_GT(ct.size(), pt.size());  // PKCS#7 always pads
    EXPECT_EQ(AesCbcDecrypt(key, iv, ct), pt);
  }
}

TEST(AesCbcTest, TamperedCiphertextFailsPaddingOrDiffers) {
  DeterministicRng rng(10);
  Bytes key = rng.Generate(32);
  Bytes iv = rng.Generate(16);
  Bytes pt = rng.Generate(100);
  Bytes ct = AesCbcEncrypt(key, iv, pt);
  ct[3] ^= 0x80;
  bool detected;
  try {
    detected = AesCbcDecrypt(key, iv, ct) != pt;
  } catch (const Error&) {
    detected = true;
  }
  EXPECT_TRUE(detected);
}

TEST(AesCbcTest, RejectsUnalignedCiphertext) {
  Bytes key(32, 1), iv(16, 2), ct(17, 3);
  EXPECT_THROW(AesCbcDecrypt(key, iv, ct), Error);
}

// --------------------------- ChaCha20 / RNG ---------------------------

TEST(ChaCha20Test, Rfc7539BlockFunction) {
  std::uint32_t state[16];
  state[0] = 0x61707865; state[1] = 0x3320646e;
  state[2] = 0x79622d32; state[3] = 0x6b206574;
  Bytes key = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = static_cast<std::uint32_t>(key[4 * i]) |
                   (static_cast<std::uint32_t>(key[4 * i + 1]) << 8) |
                   (static_cast<std::uint32_t>(key[4 * i + 2]) << 16) |
                   (static_cast<std::uint32_t>(key[4 * i + 3]) << 24);
  }
  state[12] = 1;           // block counter
  state[13] = 0x09000000;  // nonce 000000090000004a00000000, LE words
  state[14] = 0x4a000000;
  state[15] = 0x00000000;
  std::uint8_t out[64];
  ChaCha20Block(state, out);
  EXPECT_EQ(HexEncode(ByteSpan(out, 16)), "10f1e7e4d13b5915500fdd1fa32071c4");
}

TEST(RngTest, DeterministicRngIsReproducible) {
  DeterministicRng a(123), b(123), c(124);
  Bytes x = a.Generate(64), y = b.Generate(64), z = c.Generate(64);
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  DeterministicRng parent(5);
  ChaChaRng f1 = parent.Fork(1);
  ChaChaRng f2 = parent.Fork(2);
  EXPECT_NE(f1.Generate(32), f2.Generate(32));
  // Forking again with the same id reproduces the same stream.
  ChaChaRng f1b = parent.Fork(1);
  ChaChaRng f1c = parent.Fork(1);
  EXPECT_EQ(f1b.Generate(32), f1c.Generate(32));
}

TEST(RngTest, UniformRespectsBound) {
  DeterministicRng rng(77);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
  EXPECT_THROW(DiscardResult(rng.Uniform(0)), Error);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  DeterministicRng rng(78);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, SecureRandomProducesDistinctBuffers) {
  Bytes a = SecureRandom::Generate(32);
  Bytes b = SecureRandom::Generate(32);
  EXPECT_NE(a, b);
}

// Statistical smoke test: byte histogram of the DRBG should be roughly flat.
TEST(RngTest, ByteHistogramRoughlyUniform) {
  DeterministicRng rng(99);
  Bytes data = rng.Generate(256 * 1024);
  std::array<int, 256> hist{};
  for (std::uint8_t b : data) ++hist[b];
  double expected = static_cast<double>(data.size()) / 256.0;
  for (int count : hist) {
    EXPECT_GT(count, expected * 0.8);
    EXPECT_LT(count, expected * 1.2);
  }
}

}  // namespace
}  // namespace reed::crypto
