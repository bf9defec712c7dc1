// Sha256::HashMany against the one-message Sha256::Hash, on every batch
// kernel this CPU has: every length across the padding boundaries, random
// Rabin-sized lengths at unaligned starts, batch sizes around the sixteen
// lanes, and the FIPS 180-4 examples. The folds are pinned from an
// independent implementation (Python's hashlib), so the oracle is checked
// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/crypto_error.h"
#include "crypto/sha256.h"
#include "util/bytes.h"

namespace reed::crypto {
namespace {

std::uint64_t Next(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

constexpr std::size_t kMaxLength = 20 * 1024;

// 20 KiB and 64 bytes of xorshift64 output; messages are views into it.
const Bytes& Pool() {
  static const Bytes pool = [] {
    Bytes b(kMaxLength + 64);
    std::uint64_t s = 0x9E3779B97F4A7C15ULL;
    for (std::uint8_t& x : b) x = static_cast<std::uint8_t>(Next(s) >> 56);
    return b;
  }();
  return pool;
}

// Every length 0..1040, starting at length % 61.
std::vector<ByteSpan> EveryLength() {
  std::vector<ByteSpan> out;
  for (std::size_t n = 0; n <= 1040; ++n) {
    out.push_back(ByteSpan(Pool()).subspan(n % 61, n));
  }
  return out;
}

// 256 random lengths up to 20 KiB at random starts below 64.
std::vector<ByteSpan> RandomLengths() {
  std::vector<ByteSpan> out;
  std::uint64_t s = 0xD1B54A32D192ED03ULL;
  for (int i = 0; i < 256; ++i) {
    const std::size_t n = Next(s) % (kMaxLength + 1);
    const std::size_t off = Next(s) % 64;
    out.push_back(ByteSpan(Pool()).subspan(off, n));
  }
  return out;
}

std::vector<Sha256Digest> HashEach(const std::vector<ByteSpan>& messages) {
  std::vector<Sha256Digest> out;
  for (ByteSpan m : messages) out.push_back(Sha256::Hash(m));
  return out;
}

// SHA-256 over the digests in order.
std::string Fold(const std::vector<Sha256Digest>& digests) {
  Sha256 h;
  for (const Sha256Digest& d : digests) h.Update(d);
  return HexEncode(h.Finish());
}

constexpr char kEveryLengthFold[] =
    "2866c7ed473dafe4c6542335b21cf96071c5f8407115248aeed9a09c06f03fb3";
constexpr char kRandomLengthsFold[] =
    "d65abc2fb57362fc9f04b2beebe94b90b76a5b086df79deb19526e6e2566ab59";

TEST(Sha256ManyKnownAnswerTest, EveryLengthTo1040) {
  EXPECT_EQ(Fold(HashEach(EveryLength())), kEveryLengthFold);
}

TEST(Sha256ManyKnownAnswerTest, RandomLengthsAtUnalignedStarts) {
  EXPECT_EQ(Fold(HashEach(RandomLengths())), kRandomLengthsFold);
}

class Sha256ManyTest : public ::testing::TestWithParam<Sha256ManyBackend> {
 protected:
  void SetUp() override {
    if (!Sha256::Supports(GetParam())) {
      GTEST_SKIP() << "this CPU has no " << Sha256ManyBackendName(GetParam())
                   << " kernel (it needs AVX-512F and AVX-512BW); that path "
                      "was not run";
    }
  }

  std::vector<Sha256Digest> HashMany(const std::vector<ByteSpan>& messages) {
    std::vector<Sha256Digest> out(messages.size());
    Sha256::HashMany(messages, out, GetParam());
    return out;
  }

  // Every digest of the batch against the oracle, by index.
  void ExpectMatchesOracle(const std::vector<ByteSpan>& messages) {
    const std::vector<Sha256Digest> got = HashMany(messages);
    ASSERT_EQ(got.size(), messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      ASSERT_EQ(HexEncode(got[i]), HexEncode(Sha256::Hash(messages[i])))
          << "message " << i << " of " << messages.size() << ", "
          << messages[i].size() << " bytes";
    }
  }
};

TEST_P(Sha256ManyTest, EveryLengthTo1040InOneBatch) {
  ExpectMatchesOracle(EveryLength());
  EXPECT_EQ(Fold(HashMany(EveryLength())), kEveryLengthFold);
}

TEST_P(Sha256ManyTest, EveryLengthTo1040Reversed) {
  // The last few busy lanes of a batch may finish one message at a time,
  // so the long end runs in the lanes here and the short end above.
  std::vector<ByteSpan> messages = EveryLength();
  std::reverse(messages.begin(), messages.end());
  ExpectMatchesOracle(messages);
}

TEST_P(Sha256ManyTest, EveryLengthTo1040OneAtATime) {
  for (ByteSpan m : EveryLength()) ExpectMatchesOracle({m});
}

TEST_P(Sha256ManyTest, RandomLengthsAtUnalignedStarts) {
  ExpectMatchesOracle(RandomLengths());
  EXPECT_EQ(Fold(HashMany(RandomLengths())), kRandomLengthsFold);
}

TEST_P(Sha256ManyTest, BatchSizesAroundTheLanes) {
  const std::vector<ByteSpan> all = RandomLengths();
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 33u, 256u}) {
    SCOPED_TRACE(n);
    ExpectMatchesOracle(std::vector<ByteSpan>(all.begin(), all.begin() + n));
  }
  // Equal lengths finish together, so every lane refills in the same pass.
  std::vector<ByteSpan> equal(40, ByteSpan(Pool()).subspan(3, 8192));
  ExpectMatchesOracle(equal);
  // One long message among short ones keeps a lane busy while the others
  // refill many times.
  std::vector<ByteSpan> skewed(all.begin(), all.begin() + 64);
  skewed[5] = ByteSpan(Pool()).subspan(1, kMaxLength);
  for (std::size_t i = 6; i < skewed.size(); ++i) {
    skewed[i] = skewed[i].first(skewed[i].size() % 300);
  }
  ExpectMatchesOracle(skewed);
}

TEST_P(Sha256ManyTest, FipsVectorsThroughTheBatch) {
  const Bytes a_million(1000000, 'a');
  const Bytes abc = ToBytes("abc");
  const Bytes two_block =
      ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  const Bytes four_block = ToBytes(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  const std::vector<ByteSpan> messages = {ByteSpan(), abc, two_block,
                                          four_block, a_million};
  const std::vector<Sha256Digest> got = HashMany(messages);
  EXPECT_EQ(HexEncode(got[0]),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HexEncode(got[1]),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(got[2]),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(HexEncode(got[3]),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(HexEncode(got[4]),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256ManyTest, RejectsMismatchedSpans) {
  const std::vector<ByteSpan> messages(3, ByteSpan(Pool()).first(10));
  std::vector<Sha256Digest> digests(2);
  EXPECT_THROW(Sha256::HashMany(messages, digests, GetParam()), CryptoError);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256ManyTest,
    ::testing::Values(Sha256ManyBackend::kPerMessage, Sha256ManyBackend::kX16),
    [](const ::testing::TestParamInfo<Sha256ManyBackend>& kernel) {
      return kernel.param == Sha256ManyBackend::kX16 ? std::string("x16")
                                                     : std::string("PerMessage");
    });

TEST(Sha256ManyDispatchTest, DetectedKernelIsSupported) {
  EXPECT_TRUE(Sha256::Supports(Sha256::ManyBackend()));
  EXPECT_TRUE(Sha256::Supports(Sha256ManyBackend::kPerMessage));
  std::vector<Sha256Digest> one(1);
  const Bytes abc = ToBytes("abc");
  const ByteSpan message = abc;
  Sha256::HashMany(std::span<const ByteSpan>(&message, 1), one);
  EXPECT_EQ(one[0], Sha256::Hash(abc));
}

}  // namespace
}  // namespace reed::crypto
