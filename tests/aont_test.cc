// Tests for AONT/CAONT and the REED basic/enhanced encryption schemes —
// determinism (dedupability), round-trips, tamper detection, stub
// properties, and the MLE-key-leakage distinction between the schemes.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "aont/aont.h"
#include "aont/reed_cipher.h"
#include "crypto/random.h"
#include "crypto/sha256.h"

namespace reed::aont {
namespace {

using crypto::DeterministicRng;

Bytes TestChunk(std::size_t size, std::uint64_t seed = 1) {
  DeterministicRng rng(seed);
  return rng.Generate(size);
}

Bytes TestKeyBytes(std::uint64_t seed = 2) {
  DeterministicRng rng(seed);
  return rng.Generate(kMleKeySize);
}

Secret TestKey(std::uint64_t seed = 2) { return Secret(TestKeyBytes(seed)); }

// --------------------------- AONT / CAONT ---------------------------

TEST(AontTest, RoundTrip) {
  DeterministicRng rng(3);
  Bytes msg = TestChunk(1000);
  Bytes package = AontTransform(msg, rng);
  EXPECT_EQ(package.size(), msg.size() + kAontTailSize);
  EXPECT_EQ(AontRevert(package), msg);
}

TEST(AontTest, RandomizedPackagesDiffer) {
  DeterministicRng rng(4);
  Bytes msg = TestChunk(500);
  EXPECT_NE(AontTransform(msg, rng), AontTransform(msg, rng));
}

TEST(AontTest, RejectsTinyPackage) {
  EXPECT_THROW(AontRevert(Bytes(16, 0)), Error);
}

TEST(CaontTest, DeterministicPackages) {
  Bytes msg = TestChunk(500);
  EXPECT_EQ(CaontTransform(msg), CaontTransform(msg));
  EXPECT_NE(CaontTransform(msg), CaontTransform(TestChunk(500, 99)));
}

TEST(CaontTest, RoundTripAndIntegrity) {
  Bytes msg = TestChunk(4096);
  Bytes package = CaontTransform(msg);
  EXPECT_EQ(CaontRevert(package), msg);
  package[100] ^= 1;
  EXPECT_THROW(CaontRevert(package), Error);
}

TEST(CaontTest, AllOrNothingProperty) {
  // Flipping any single region of the package corrupts the whole revert.
  Bytes msg = TestChunk(300);
  for (std::size_t pos : {std::size_t{0}, std::size_t{150}, msg.size() + 10}) {
    Bytes package = CaontTransform(msg);
    package[pos] ^= 0xFF;
    EXPECT_THROW(CaontRevert(package), Error) << "pos=" << pos;
  }
}

TEST(SelfXorTest, KnownValues) {
  Bytes data(64, 0xAB);  // two identical pieces cancel
  EXPECT_EQ(SelfXor(data), Bytes(kAontTailSize, 0));
  Bytes one_piece(32, 0x5C);
  EXPECT_EQ(SelfXor(one_piece), one_piece);
  // Partial last piece is zero-padded.
  Bytes partial(40, 0x11);
  Bytes expect(32, 0x11);
  for (int i = 0; i < 8; ++i) expect[i] ^= 0x11;
  EXPECT_EQ(SelfXor(partial), expect);
}

TEST(MaskTest, DeterministicAndKeyDependent) {
  Bytes k1 = TestKeyBytes(5), k2 = TestKeyBytes(6);
  EXPECT_EQ(Mask(k1, 100), Mask(k1, 100));
  EXPECT_NE(Mask(k1, 100), Mask(k2, 100));
  // Prefix property: longer mask extends the shorter one.
  Bytes long_mask = Mask(k1, 200);
  EXPECT_EQ(Bytes(long_mask.begin(), long_mask.begin() + 100), Mask(k1, 100));
}

// --------------------------- REED schemes ---------------------------

class ReedCipherTest : public ::testing::TestWithParam<Scheme> {
 protected:
  ReedCipher cipher_{GetParam()};
};

TEST_P(ReedCipherTest, RoundTripVariousSizes) {
  for (std::size_t size : {128u, 2048u, 8192u, 16384u, 8191u}) {
    Bytes chunk = TestChunk(size, size);
    Secret key = TestKey(size + 1);
    SealedChunk sealed = cipher_.Encrypt(chunk, key);
    EXPECT_EQ(sealed.stub.size(), kDefaultStubSize);
    EXPECT_EQ(sealed.trimmed_package.size() + sealed.stub.size(),
              cipher_.PackageSize(size));
    EXPECT_EQ(cipher_.Decrypt(sealed.trimmed_package, sealed.stub), chunk);
  }
}

TEST_P(ReedCipherTest, DeterministicForDedup) {
  // Same chunk + same MLE key => identical trimmed package AND stub; this
  // is the property that lets the server dedup trimmed packages across
  // users (paper §IV-A).
  Bytes chunk = TestChunk(8192);
  Secret key = TestKey();
  SealedChunk a = cipher_.Encrypt(chunk, key);
  SealedChunk b = cipher_.Encrypt(chunk, key);
  EXPECT_EQ(a.trimmed_package, b.trimmed_package);
  EXPECT_TRUE(a.stub.ConstantTimeEquals(b.stub));
}

TEST_P(ReedCipherTest, DifferentKeysGiveDifferentPackages) {
  Bytes chunk = TestChunk(4096);
  SealedChunk a = cipher_.Encrypt(chunk, TestKey(1));
  SealedChunk b = cipher_.Encrypt(chunk, TestKey(2));
  EXPECT_NE(a.trimmed_package, b.trimmed_package);
}

TEST_P(ReedCipherTest, TamperedTrimmedPackageDetected) {
  Bytes chunk = TestChunk(4096);
  SealedChunk sealed = cipher_.Encrypt(chunk, TestKey());
  sealed.trimmed_package[17] ^= 1;
  EXPECT_THROW(cipher_.Decrypt(sealed.trimmed_package, sealed.stub), Error);
}

TEST_P(ReedCipherTest, TamperedStubDetected) {
  Bytes chunk = TestChunk(4096);
  SealedChunk sealed = cipher_.Encrypt(chunk, TestKey());
  Bytes stub_bytes = Declassify(sealed.stub, "test: flip a stub bit");
  stub_bytes[3] ^= 0x80;
  sealed.stub = Secret(std::move(stub_bytes));
  EXPECT_THROW(cipher_.Decrypt(sealed.trimmed_package, sealed.stub), Error);
}

TEST_P(ReedCipherTest, PairedBitFlipsStillDetected) {
  // §IV-E: flipping the same bit position in an even number of self-XOR
  // pieces preserves the recovered hash key in the enhanced scheme, but the
  // reverted input then fails the hash comparison. Both schemes must catch
  // this adversarial pattern.
  Bytes chunk = TestChunk(8192);
  SealedChunk sealed = cipher_.Encrypt(chunk, TestKey());
  sealed.trimmed_package[0] ^= 0x01;
  sealed.trimmed_package[32] ^= 0x01;  // same bit position, next piece
  EXPECT_THROW(cipher_.Decrypt(sealed.trimmed_package, sealed.stub), Error);
}

TEST_P(ReedCipherTest, WrongStubSizeRejected) {
  Bytes chunk = TestChunk(2048);
  SealedChunk sealed = cipher_.Encrypt(chunk, TestKey());
  Bytes short_bytes = Declassify(sealed.stub, "test: truncate the stub");
  short_bytes.pop_back();
  Secret short_stub(std::move(short_bytes));
  EXPECT_THROW(cipher_.Decrypt(sealed.trimmed_package, short_stub), Error);
}

TEST_P(ReedCipherTest, InvalidInputsRejected) {
  EXPECT_THROW(cipher_.Encrypt({}, TestKey()), Error);
  EXPECT_THROW(cipher_.Encrypt(TestChunk(100), Secret(Bytes(16, 0))), Error);
}

TEST_P(ReedCipherTest, EncryptManyMatchesEncryptByteForByte) {
  // Sizes around a block, the stub and Rabin's range, more than sixteen of
  // them so the batch hash refills its lanes.
  std::vector<Bytes> chunks;
  std::vector<Secret> keys;
  for (std::size_t size : {1u, 31u, 55u, 56u, 63u, 64u, 65u, 100u, 119u, 120u,
                           128u, 1000u, 2048u, 4095u, 4096u, 8191u, 8192u,
                           12345u, 16384u, 3u, 777u}) {
    chunks.push_back(TestChunk(size, 40 + size));
    keys.push_back(TestKey(90 + size));
  }
  // Two chunks under one key, as a duplicate inside one unit is.
  chunks.push_back(chunks[5]);
  keys.push_back(TestKey(90 + 64));
  std::vector<ByteSpan> views(chunks.begin(), chunks.end());
  std::vector<SealedChunk> many(chunks.size());
  cipher_.EncryptMany(views, keys, many);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    SCOPED_TRACE(chunks[i].size());
    const SealedChunk one = cipher_.Encrypt(chunks[i], keys[i]);
    EXPECT_EQ(many[i].trimmed_package, one.trimmed_package);
    EXPECT_TRUE(many[i].stub.ConstantTimeEquals(one.stub));
    EXPECT_EQ(cipher_.Decrypt(many[i].trimmed_package, many[i].stub),
              chunks[i]);
  }
  std::vector<SealedChunk> none;
  cipher_.EncryptMany({}, {}, none);
}

TEST_P(ReedCipherTest, EncryptManyRejectsBadInputs) {
  std::vector<Bytes> chunks(10, TestChunk(300));
  std::vector<ByteSpan> views(chunks.begin(), chunks.end());
  std::vector<Secret> keys(10, TestKey());
  std::vector<SealedChunk> out(10);
  keys[5] = Secret(Bytes(31, 7));  // one short key in the batch
  EXPECT_THROW(cipher_.EncryptMany(views, keys, out), Error);
  keys[5] = TestKey();
  views[9] = ByteSpan();  // one empty chunk
  EXPECT_THROW(cipher_.EncryptMany(views, keys, out), Error);
  views[9] = chunks[9];
  std::vector<SealedChunk> short_out(9);
  EXPECT_THROW(cipher_.EncryptMany(views, keys, short_out), Error);
  EXPECT_THROW(cipher_.EncryptMany(views, std::span(keys).first(9), out),
               Error);
  cipher_.EncryptMany(views, keys, out);
  EXPECT_EQ(cipher_.Decrypt(out[9].trimmed_package, out[9].stub), chunks[9]);
}

TEST_P(ReedCipherTest, ConfigurableStubSize) {
  for (std::size_t stub_size : {32u, 64u, 128u, 256u}) {
    ReedCipher cipher(GetParam(), stub_size);
    Bytes chunk = TestChunk(4096);
    SealedChunk sealed = cipher.Encrypt(chunk, TestKey());
    EXPECT_EQ(sealed.stub.size(), stub_size);
    EXPECT_EQ(cipher.Decrypt(sealed.trimmed_package, sealed.stub), chunk);
  }
  EXPECT_THROW(ReedCipher bad(GetParam(), 16), Error);  // below tail size
}

TEST_P(ReedCipherTest, DecryptIntoWritesTheCallersBuffer) {
  for (std::size_t stub_size : {32u, 64u, 128u}) {
    ReedCipher cipher(GetParam(), stub_size);
    Bytes chunk = TestChunk(5000);
    SealedChunk sealed = cipher.Encrypt(chunk, TestKey());
    Bytes out(chunk.size());
    cipher.DecryptInto(sealed.trimmed_package, sealed.stub, 0, out);
    EXPECT_EQ(out, chunk) << "stub " << stub_size;
    Bytes wrong_size(chunk.size() + 1);
    EXPECT_THROW(
        cipher.DecryptInto(sealed.trimmed_package, sealed.stub, 0, wrong_size),
        Error);
  }
}

TEST_P(ReedCipherTest, DecryptIntoReadsItsStubInsideAStubFile) {
  // Three chunks' stubs back to back, as a restore holds the stub file.
  std::vector<Bytes> chunks = {TestChunk(3000, 11), TestChunk(4096, 12),
                               TestChunk(5000, 13)};
  std::vector<SealedChunk> sealed;
  Secret stub_file;
  for (const Bytes& chunk : chunks) {
    sealed.push_back(cipher_.Encrypt(chunk, TestKey()));
    stub_file.Append(sealed.back().stub);
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    Bytes out(chunks[i].size());
    cipher_.DecryptInto(sealed[i].trimmed_package, stub_file,
                        i * kDefaultStubSize, out);
    EXPECT_EQ(out, chunks[i]) << "chunk " << i;
  }
  // Another chunk's stub fails the package's check; a stub reaching past
  // the file, or an offset past it, is refused before anything is written.
  Bytes out(chunks[0].size(), 0xAA);
  EXPECT_THROW(cipher_.DecryptInto(sealed[0].trimmed_package, stub_file,
                                   kDefaultStubSize, out),
               Error);
  EXPECT_EQ(out, Bytes(chunks[0].size(), 0));
  for (std::size_t offset : {2 * kDefaultStubSize + 1, 3 * kDefaultStubSize,
                             std::size_t{SIZE_MAX}}) {
    Bytes untouched(chunks[2].size(), 0xAA);
    EXPECT_THROW(cipher_.DecryptInto(sealed[2].trimmed_package, stub_file,
                                     offset, untouched),
                 Error)
        << "offset " << offset;
    EXPECT_EQ(untouched, Bytes(chunks[2].size(), 0xAA));
  }
}

TEST_P(ReedCipherTest, FailedDecryptIntoLeavesZeros) {
  // A tampered package must not leave partly unmasked plaintext behind in
  // the caller's buffer.
  Bytes chunk = TestChunk(4096);
  SealedChunk sealed = cipher_.Encrypt(chunk, TestKey());
  sealed.trimmed_package[100] ^= 1;
  Bytes out(chunk.size(), 0xAA);
  EXPECT_THROW(cipher_.DecryptInto(sealed.trimmed_package, sealed.stub, 0, out),
               Error);
  EXPECT_EQ(out, Bytes(chunk.size(), 0));
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, ReedCipherTest,
                         ::testing::Values(Scheme::kBasic, Scheme::kEnhanced),
                         [](const auto& param_info) {
                           return SchemeName(param_info.param);
                         });

TEST(ReedSchemeContrastTest, BasicLeaksUnderMleKeyCompromise) {
  // With the MLE key, the basic scheme's trimmed package can be unmasked
  // directly (§IV-B): most plaintext bytes are recoverable without the stub.
  Bytes chunk = TestChunk(8192);
  Bytes key_bytes = TestKeyBytes();  // the attacker's compromised MLE key
  ReedCipher basic(Scheme::kBasic);
  SealedChunk sealed = basic.Encrypt(chunk, TestKey());

  Bytes mask = Mask(key_bytes, sealed.trimmed_package.size());
  Bytes recovered = sealed.trimmed_package;
  XorInto(recovered, mask);
  // The attacker recovers the chunk prefix exactly.
  EXPECT_EQ(Bytes(recovered.begin(), recovered.begin() + 4096),
            Bytes(chunk.begin(), chunk.begin() + 4096));
}

TEST(ReedSchemeContrastTest, EnhancedResistsMleKeyCompromise) {
  // The enhanced scheme masks with h = H(C1 ‖ K_M), which depends on the
  // (stub-protected) package content — the MLE key alone unmasks nothing.
  Bytes chunk = TestChunk(8192);
  Bytes key_bytes = TestKeyBytes();
  ReedCipher enhanced(Scheme::kEnhanced);
  SealedChunk sealed = enhanced.Encrypt(chunk, TestKey());

  Bytes mask = Mask(key_bytes, sealed.trimmed_package.size());
  Bytes attempt = sealed.trimmed_package;
  XorInto(attempt, mask);
  // Must NOT match the MLE ciphertext, let alone the plaintext.
  EXPECT_NE(Bytes(attempt.begin(), attempt.begin() + 4096),
            Bytes(chunk.begin(), chunk.begin() + 4096));
}

TEST(ReedSchemeContrastTest, SchemesProduceIncompatiblePackages) {
  Bytes chunk = TestChunk(4096);
  Secret key = TestKey();
  ReedCipher basic(Scheme::kBasic);
  ReedCipher enhanced(Scheme::kEnhanced);
  SealedChunk sb = basic.Encrypt(chunk, key);
  SealedChunk se = enhanced.Encrypt(chunk, key);
  EXPECT_NE(sb.trimmed_package, se.trimmed_package);
  EXPECT_THROW(enhanced.Decrypt(sb.trimmed_package, sb.stub), Error);
}

// --------------------------- known answers ---------------------------
//
// Golden digests of the bytes REED stores, generated once from the
// reference implementation and never regenerated: trimmed packages
// deduplicate across clients of every version, so any rewrite of AES-CTR,
// the mask or either scheme must reproduce them exactly.

std::string PackageDigest(const ReedCipher& cipher, std::size_t size) {
  Bytes chunk = TestChunk(size, 1000 + size);
  SealedChunk sealed = cipher.Encrypt(chunk, TestKey(2000 + size));
  EXPECT_EQ(cipher.Decrypt(sealed.trimmed_package, sealed.stub), chunk)
      << SchemeName(cipher.scheme()) << ", size " << size;
  crypto::Sha256 h;
  h.Update(sealed.trimmed_package);
  h.Update(Declassify(sealed.stub, "test: digest the stub with its package"));
  crypto::Sha256Digest d = h.Finish();
  return HexEncode(d);
}

struct PackageAnswer {
  std::size_t size;
  const char* basic;     // SHA-256(trimmed_package ‖ stub), basic scheme
  const char* enhanced;  // the same for the enhanced scheme
};

const PackageAnswer kPackageAnswers[] = {
    {1,
     "23d833d9a2fdea1cfe859bab104f7756d2d3c46d92626b4b3e7c3ead1427536a",
     "b6b12619c28a038917d84008485846977978331ee981abb42c121f1a63226339"},
    {15,
     "6f56ff9e8e24dfba413138e03a66175fd3ed1356a35318c5ff5f73a46b849578",
     "924211890e24894bfe726a1da7ec265155eb5cc396b21e06e068884ca96c8237"},
    {16,
     "ce654796d28a1efa1f8cba86f48f2ba7ce09d97bdb14dd4228e3f82fd1e6cbe1",
     "3dc8cf4cfd58a26f2ae394860ee7c31c9d0fd65d67bc71e59191474f87ebfaab"},
    {17,
     "41e08defaf078036414ce5937e94338a7ebc386d67d349f0316456be0f5d53aa",
     "700e3b10fe90bbd4f735ba894548eb5ddd4b89d94672b2617f76548503fb862b"},
    {255,
     "64b4257e85619912ef690123c71fffa194aabd8f8db7802a06089c8f0730ae78",
     "b9d7cd1ee10c556649367d14c463446284cc2908e792f6461462e4af033fdeb5"},
    {256,
     "45a5f4db0d70d0edd0caa6efaa73459575da3aff138907397b6983418dba7f84",
     "65885d96c395882e6b9f8d36f83ed9b315d17357ccd7330cb3a614de271108b8"},
    {257,
     "95c873e6ecc8a4cdaca2b4e5b2fdf3d21e783b170d2ae46af7f02ea292e76b84",
     "03481c6304934e95f805ef7aa243da4bf64fceac1b1e07a456f15c47d7cd6e33"},
    {4095,
     "1484e0595be4e4de1fc8be99781cd745f96688ac53415964aa6f53b409fa67f9",
     "d736a01e958a69648e1fe27f81293e08f508121f585f065b0a36138fecedcf61"},
    {8191,
     "2ae5b0d6c72ae5c9f90c7d55ca4088bd9f933d38b3b18b31debaa4093959f7c9",
     "3953d8538c13ab1c019558fb18ba4ab47d7ebf410cc332c4aa439df7a849aab2"},
    {8192,
     "b6ed476880019697f7eaba30d1b2d0cc0f28420485a90be3f95e961cae511425",
     "b3137d2b77b633005993049f496b1816fc6142b993be4fd2b640588cf1339404"},
    {8193,
     "2d58fb7ed9a421bba9bf868e1114f50cbf6af34584dad77cf89877b7eeb44a3a",
     "70d4ab7badc0b4acdb1ab0bb72054cf2410bb3ba238a0ec1b5cc94cbfa5d3bc5"},
    {65537,
     "199d95a5a0d4d938061633abaa97ce8f8d6932c01d4f90614f505a96f4beb836",
     "6a6c7c34413580b73331ea72da283831f9067d6034d38e331bc48aaf3bae25f7"},
};

class ReedCipherKnownAnswerTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(ReedCipherKnownAnswerTest, PackagesMatchGoldenDigests) {
  ReedCipher cipher(GetParam());
  for (const PackageAnswer& a : kPackageAnswers) {
    const char* expect =
        GetParam() == Scheme::kBasic ? a.basic : a.enhanced;
    EXPECT_EQ(PackageDigest(cipher, a.size), expect) << "size " << a.size;
  }
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, ReedCipherKnownAnswerTest,
                         ::testing::Values(Scheme::kBasic, Scheme::kEnhanced),
                         [](const auto& param_info) {
                           return SchemeName(param_info.param);
                         });

struct MaskAnswer {
  std::size_t length;
  const char* digest;  // SHA-256(Mask(key, length))
};

// Lengths on both sides of every 16-byte block and 256-byte edge a CTR
// loop may batch on.
const MaskAnswer kMaskAnswers[] = {
    {1, "9e8e8c37a53bac77a653d590b783b2508e8ed2fed040a278bf4f4703bbd5d82d"},
    {15, "fcc4632d14da168a2c17362f3309195a113e7831558432b3f3ff796285cba4a1"},
    {16, "880dbc2213259e5fdb5adf7950ffbeea2cc35ab04381e12393e3aa37a6942e3d"},
    {17, "5ad35305a63a9922e286ee1618dc1712d1ea393857420a2a257ec48ac0ae3658"},
    {31, "2f31de16980edae6d4304b6fe2c129e35c6b5bcc71bad5064fd66161f3fc42c2"},
    {32, "d4da1c93b64cdc5a18b5acd0c551127211efecf2fd5162e1c9be319f106419a3"},
    {33, "06757e8146815da18e8510990931234e8f6e6d12ca619ddecd126a4a2a31fdc9"},
    {127, "f76a42c3bc6d59471101ccbf0bcde12dddda1a7abb0c7811414748723b725bfe"},
    {128, "2616b7dec8c85c1de2dea6c978c1848f6023d16e43ce11fc4f2307fe6bae92d0"},
    {129, "8120ebe8fa743191f7226fa106cb29200a2f3984cd137e8231875885f7b3627c"},
    {255, "6da3b53577c2fb85e724d85b7a2c3f24957f23910e2659f6277f5b13532c05f9"},
    {256, "0b9ff8bb9aaa76941c39959052af4f4f6f9a56dc58558c28c915092384b787eb"},
    {257, "a3f50bf26f6a9dd63bbb76536bfc22589cf713c3c998d14f7bcc0d8184feb60e"},
    {271, "81febe79e01ad40866d7ec19ed5286f671581860e76df27baf547b52962c8577"},
    {272, "a4530aba061d03c6c62c456c9422f7998bc56db7c35ca07de491b7081ae4e2e3"},
    {273, "7a0a7e64ff8ef08c2059c8565c2365628064d8a942d0cf4af78e9f0d358db84a"},
    {511, "dce76e7b4975215d2c5ec5d43e371ba8eeaeb493ec767c87afeff14faff01b5d"},
    {512, "9e2267f63278dfce67a5efaeeb9d583f3c27814b403672413ac0c256fc2136bf"},
    {513, "1dcd1072f04e119526b3493d98732f96ff0846db8413f02026eb5a8faec5b1c8"},
    {1023, "3f89f479abddd8b97b07a1654c4616eb6af1f9a455248a29c6da1e5b306d1b21"},
    {1024, "4580b26d05ffbae9a04b0ec9cac00905c7bcaf4475b7748a8515a7d6b5e6f473"},
    {1025, "9e1a65e021bb092327f87256186e10cfe781e4783c9585759705582b2eef8f99"},
    {4095, "aeba8f4e66a45c3bb040d8c67b46759e2cb8357d698d48f595aa1a84d1654c77"},
    {4096, "fc915e9702e1ea09533a9e71c909bc6acb510ed9b02e944513eb6794e1198dd8"},
    {4097, "a8f9e79faf3013c56c06114df987e919847101f4bf25a3db03822b61bf897f73"},
    {8191, "0bc2ed696d07346d486bfff49e4caa368caf8e2a683666acfac3f09a2723c8e2"},
    {8192, "29d9e190dd3d7523e0df9572fd412db098d4cf652c177bf6d56a7864d42808e6"},
    {8193, "bab6e0859509d0579d0b17683c06b7158b58f0d7182ed1f9ccfcedbdcabdbc53"},
};

TEST(MaskKnownAnswerTest, MasksMatchGoldenDigests) {
  Bytes key = TestKeyBytes(3000);
  for (const MaskAnswer& a : kMaskAnswers) {
    EXPECT_EQ(HexEncode(crypto::Sha256::Hash(Mask(key, a.length))), a.digest)
        << "length " << a.length;
  }
}

TEST(MaskKnownAnswerTest, EveryLengthUpTo1040) {
  // One digest over Mask(key, n) for every n in [0, 1040]: each call ends
  // its keystream at a different offset, so every tail shape is pinned.
  Bytes key = TestKeyBytes(3001);
  crypto::Sha256 h;
  for (std::size_t n = 0; n <= 1040; ++n) h.Update(Mask(key, n));
  crypto::Sha256Digest d = h.Finish();
  EXPECT_EQ(HexEncode(d),
            "c4881a0c6ef4b2cb3fead30409737c2325fe21bfb7c716b1c40e7324944ff9d4");
}

// --------------------------- stub file crypto ---------------------------

TEST(StubFileTest, RoundTripAndRekey) {
  DeterministicRng rng(7);
  Secret stubs = rng.GenerateSecret(64 * 100);  // 100 chunk stubs
  Secret key1 = rng.GenerateSecret(32);
  Secret key2 = rng.GenerateSecret(32);

  Bytes blob1 = Declassify(EncryptStubFile(stubs, key1, rng),
                           "test: stub-file ciphertext under key1");
  EXPECT_TRUE(DecryptStubFile(blob1, key1).ConstantTimeEquals(stubs));

  // Rekey: decrypt with old key, re-encrypt with new key — the active
  // revocation step.
  Bytes blob2 = Declassify(
      EncryptStubFile(DecryptStubFile(blob1, key1), key2, rng),
      "test: rekeyed stub-file ciphertext under key2");
  EXPECT_TRUE(DecryptStubFile(blob2, key2).ConstantTimeEquals(stubs));
  EXPECT_THROW(DecryptStubFile(blob2, key1), Error);  // old key revoked
}

TEST(WrapKeyBlobTest, RoundTripAndDomainSeparation) {
  DeterministicRng rng(9);
  Secret key = rng.GenerateSecret(32);
  Secret secret(ToBytes("serialized key state v3"));
  Bytes blob = Declassify(WrapKeyBlob(secret, key, rng),
                          "test: wrapped key-state envelope");
  EXPECT_TRUE(UnwrapKeyBlob(blob, key).ConstantTimeEquals(secret));
  // Wrong key rejected.
  EXPECT_THROW(UnwrapKeyBlob(blob, rng.GenerateSecret(32)), Error);
  // Domain separation: a stub-file blob under the same key does not open
  // as a key blob (different HKDF labels).
  Bytes stub_blob = Declassify(EncryptStubFile(secret, key, rng),
                               "test: stub-file ciphertext for domain check");
  EXPECT_THROW(UnwrapKeyBlob(stub_blob, key), Error);
  EXPECT_THROW(DecryptStubFile(blob, key), Error);
}

TEST(WrapKeyBlobTest, TamperDetected) {
  DeterministicRng rng(10);
  Secret key = rng.GenerateSecret(32);
  Bytes blob = Declassify(WrapKeyBlob(Secret(ToBytes("secret")), key, rng),
                          "test: wrapped envelope to tamper with");
  blob[blob.size() / 2] ^= 1;
  EXPECT_THROW(UnwrapKeyBlob(blob, key), Error);
  EXPECT_THROW(UnwrapKeyBlob(Bytes(10, 0), key), Error);
}

TEST(StubFileTest, TamperDetected) {
  DeterministicRng rng(8);
  Secret stubs = rng.GenerateSecret(640);
  Secret key = rng.GenerateSecret(32);
  Bytes blob = Declassify(EncryptStubFile(stubs, key, rng),
                          "test: stub-file ciphertext to tamper with");
  blob[20] ^= 1;
  EXPECT_THROW(DecryptStubFile(blob, key), Error);
  EXPECT_THROW(DecryptStubFile(Bytes(10, 0), key), Error);
}

}  // namespace
}  // namespace reed::aont
