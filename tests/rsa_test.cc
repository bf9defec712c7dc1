// RSA, blind-signature OPRF, and key-regression tests.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "crypto/random.h"
#include "crypto/sha256.h"
#include "rsa/blind_signature.h"
#include "rsa/key_regression.h"
#include "rsa/rsa.h"

namespace reed::rsa {
namespace {

using bigint::BigInt;
using crypto::DeterministicRng;

// 512-bit keys keep the test suite fast; key sizes are orthogonal to the
// logic under test (benches use the paper's 1024-bit keys).
RsaKeyPair TestKeyPair(std::uint64_t seed = 100) {
  DeterministicRng rng(seed);
  return GenerateKeyPair(512, rng);
}

TEST(RsaTest, KeyPairHasRequestedModulusLength) {
  RsaKeyPair kp = TestKeyPair();
  EXPECT_EQ(kp.pub.n.BitLength(), 512u);
  EXPECT_EQ(kp.pub.e.ToU64(), 65537u);
  EXPECT_EQ(kp.pub.n, kp.priv.p * kp.priv.q);
}

TEST(RsaTest, PublicPrivateRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  DeterministicRng rng(101);
  for (int i = 0; i < 5; ++i) {
    BigInt m = BigInt::Random(rng, kp.pub.n);
    EXPECT_EQ(PrivateApply(kp.priv, PublicApply(kp.pub, m)), m);
    EXPECT_EQ(PublicApply(kp.pub, PrivateApply(kp.priv, m)), m);
  }
}

TEST(RsaTest, CrtMatchesDirectExponentiation) {
  RsaKeyPair kp = TestKeyPair();
  DeterministicRng rng(102);
  BigInt m = BigInt::Random(rng, kp.pub.n);
  EXPECT_EQ(PrivateApply(kp.priv, m), BigInt::PowMod(m, kp.priv.d, kp.pub.n));
}

TEST(RsaTest, CrtApplyBatchMatchesApplyAndPowMod) {
  RsaKeyPair kp = TestKeyPair();
  CrtContext crt(kp.priv);
  DeterministicRng rng(104);
  std::vector<BigInt> in = {BigInt(0), BigInt(1), kp.pub.n - BigInt(1),
                            kp.priv.p, kp.priv.q};
  while (in.size() < 17) in.push_back(BigInt::Random(rng, kp.pub.n));
  // Every group shape: empty, one short group, a full one, full plus short.
  for (std::size_t count : {0u, 1u, 5u, 8u, 9u, 16u, 17u}) {
    std::vector<BigInt> out(count);
    crt.ApplyBatch(std::span(in).first(count), out);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i], crt.Apply(in[i])) << count << " values, element " << i;
    }
  }
  std::vector<BigInt> one(1);
  crt.ApplyBatch(std::span(in).subspan(9, 1), one);
  EXPECT_EQ(one[0], BigInt::PowMod(in[9], kp.priv.d, kp.pub.n));

  // Mismatched sizes and an out-of-range element throw, writing nothing.
  std::vector<BigInt> out(2, BigInt(7));
  EXPECT_THROW(crt.ApplyBatch(std::span(in).first(3), out), Error);
  std::vector<BigInt> bad = {BigInt(2), kp.pub.n};
  EXPECT_THROW(crt.ApplyBatch(bad, out), Error);
  EXPECT_EQ(out, std::vector<BigInt>(2, BigInt(7)));
}

TEST(RsaTest, RejectsOutOfRangeMessages) {
  RsaKeyPair kp = TestKeyPair();
  EXPECT_THROW(PublicApply(kp.pub, kp.pub.n), Error);
  EXPECT_THROW(PrivateApply(kp.priv, kp.pub.n + BigInt(1)), Error);
}

TEST(RsaTest, RejectsBadKeySizes) {
  DeterministicRng rng(103);
  EXPECT_THROW(GenerateKeyPair(100, rng), Error);  // too small
  EXPECT_THROW(GenerateKeyPair(513, rng), Error);  // odd
}

TEST(RsaTest, FullDomainHashIsDeterministicAndInRange) {
  RsaKeyPair kp = TestKeyPair();
  BigInt h1 = FullDomainHash(ToBytes("chunk-fingerprint"), kp.pub.n);
  BigInt h2 = FullDomainHash(ToBytes("chunk-fingerprint"), kp.pub.n);
  BigInt h3 = FullDomainHash(ToBytes("other-fingerprint"), kp.pub.n);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_LT(h1, kp.pub.n);
}

// Pins every hashed byte of the expansion ("reed/fdh" ‖ counter ‖ data per
// 32-byte block, truncated to |n| bytes, reduced mod n) for moduli of
// 1023, 1024 and 2048 bits, against an independent implementation
// (Python's hashlib).
TEST(RsaTest, FullDomainHashKnownAnswer) {
  crypto::Sha256 fold;
  for (std::size_t bits : {1023u, 1024u, 2048u}) {
    const BigInt n = (BigInt(1) << bits) - BigInt(1);
    Bytes counting(100);
    for (std::size_t i = 0; i < counting.size(); ++i) {
      counting[i] = static_cast<std::uint8_t>(i);
    }
    for (const Bytes& data :
         {Bytes{}, ToBytes("chunk-fingerprint"), counting}) {
      fold.Update(FullDomainHash(data, n).ToBytesPadded((bits + 7) / 8));
    }
  }
  EXPECT_EQ(HexEncode(fold.Finish()),
            "0c93c7feefcbf014a310a4cfd6fd08f8d94686d56d9534e8a422ce190a2e8a2d");
}

TEST(RsaTest, KeyPairSerializationRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  Secret blob = SerializeKeyPair(kp);
  RsaKeyPair back = DeserializeKeyPair(blob);
  EXPECT_EQ(back.pub.n, kp.pub.n);
  EXPECT_EQ(back.priv.d, kp.priv.d);
  EXPECT_EQ(back.priv.qinv, kp.priv.qinv);
  // Restored key still decrypts.
  DeterministicRng rng(150);
  BigInt m = BigInt::Random(rng, kp.pub.n);
  EXPECT_EQ(PrivateApply(back.priv, PublicApply(back.pub, m)), m);
  // Truncation and inconsistent components are rejected.
  EXPECT_THROW(DeserializeKeyPair(blob.Slice(0, blob.size() - 5)), Error);
}

TEST(RsaTest, PublicKeySerializationRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  RsaPublicKey back = DeserializePublicKey(SerializePublicKey(kp.pub));
  EXPECT_EQ(back.n, kp.pub.n);
  EXPECT_EQ(back.e, kp.pub.e);
  EXPECT_THROW(DeserializePublicKey(Bytes(3, 0)), Error);
}

// --------------------------- blind signatures ---------------------------

TEST(BlindSignatureTest, OprfYieldsDeterministicMleKeys) {
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  BlindSignatureClient client(kp.pub);
  DeterministicRng rng(104);

  Bytes fp = ToBytes("fingerprint-of-chunk-A");
  // Two runs with *different* blinding randomness must give the same key —
  // that determinism is what makes MLE keys dedupable.
  BlindedRequest r1 = client.Blind(fp, rng);
  BlindedRequest r2 = client.Blind(fp, rng);
  EXPECT_NE(r1.blinded, r2.blinded);  // blinding hides the fingerprint
  Secret k1 = client.Unblind(r1, server.Sign(r1.blinded));
  Secret k2 = client.Unblind(r2, server.Sign(r2.blinded));
  EXPECT_TRUE(k1.ConstantTimeEquals(k2));
  EXPECT_EQ(k1.size(), 32u);
}

TEST(BlindSignatureTest, DistinctFingerprintsGiveDistinctKeys) {
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  BlindSignatureClient client(kp.pub);
  DeterministicRng rng(105);
  BlindedRequest ra = client.Blind(ToBytes("chunk-A"), rng);
  BlindedRequest rb = client.Blind(ToBytes("chunk-B"), rng);
  EXPECT_FALSE(client.Unblind(ra, server.Sign(ra.blinded))
                   .ConstantTimeEquals(client.Unblind(rb, server.Sign(rb.blinded))));
}

TEST(BlindSignatureTest, ForgedSignatureIsRejected) {
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureClient client(kp.pub);
  DeterministicRng rng(106);
  BlindedRequest req = client.Blind(ToBytes("chunk"), rng);
  BigInt forged = BigInt::Random(rng, kp.pub.n);
  EXPECT_THROW(client.Unblind(req, forged), Error);
}

TEST(BlindSignatureTest, ServerRejectsOutOfRangeRequests) {
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  EXPECT_THROW(server.Sign(BigInt(0)), Error);
  EXPECT_THROW(server.Sign(kp.pub.n), Error);
}

TEST(BlindSignatureTest, MatchesDirectFdhSignature) {
  // The unblinded value must equal h^d computed directly — i.e. blinding is
  // transparent to the resulting key.
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  BlindSignatureClient client(kp.pub);
  DeterministicRng rng(107);
  Bytes fp = ToBytes("some-fp");
  BlindedRequest req = client.Blind(fp, rng);
  Secret via_oprf = client.Unblind(req, server.Sign(req.blinded));

  BigInt h = FullDomainHash(fp, kp.pub.n);
  BigInt direct = PrivateApply(kp.priv, h);
  Bytes via_direct =
      crypto::Sha256::HashToBytes(direct.ToBytesPadded(kp.pub.ByteLength()));
  EXPECT_TRUE(via_oprf.ConstantTimeEquals(via_direct));
}

// --------------------------- key regression ---------------------------

TEST(KeyRegressionTest, UnwindInvertsWind) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  KeyRegressionMember member(kp.pub);
  DeterministicRng rng(108);

  rsa::KeyState st0 = owner.GenesisState(rng);
  rsa::KeyState st1 = owner.Wind(st0);
  rsa::KeyState st2 = owner.Wind(st1);
  EXPECT_EQ(st2.version, 2u);

  rsa::KeyState back1 = member.Unwind(st2);
  EXPECT_EQ(back1.version, 1u);
  EXPECT_EQ(back1.value, st1.value);
  rsa::KeyState back0 = member.Unwind(back1);
  EXPECT_EQ(back0.value, st0.value);
}

TEST(KeyRegressionTest, UnwindToWalksMultipleVersions) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  KeyRegressionMember member(kp.pub);
  DeterministicRng rng(109);

  rsa::KeyState st = owner.GenesisState(rng);
  rsa::KeyState genesis = st;
  for (int i = 0; i < 5; ++i) st = owner.Wind(st);
  EXPECT_EQ(member.UnwindTo(st, 0).value, genesis.value);
  EXPECT_EQ(member.UnwindTo(st, 5).value, st.value);
  EXPECT_THROW(member.UnwindTo(st, 6), Error);
}

TEST(KeyRegressionTest, CannotUnwindBelowGenesis) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  KeyRegressionMember member(kp.pub);
  DeterministicRng rng(110);
  EXPECT_THROW(member.Unwind(owner.GenesisState(rng)), Error);
}

TEST(KeyRegressionTest, FileKeysDifferAcrossVersions) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  DeterministicRng rng(111);
  rsa::KeyState st0 = owner.GenesisState(rng);
  rsa::KeyState st1 = owner.Wind(st0);
  EXPECT_EQ(st0.DeriveFileKey().size(), 32u);
  EXPECT_FALSE(st0.DeriveFileKey().ConstantTimeEquals(st1.DeriveFileKey()));
  EXPECT_TRUE(st0.DeriveFileKey().ConstantTimeEquals(st0.DeriveFileKey()));
}

TEST(KeyRegressionTest, SerializationRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  DeterministicRng rng(112);
  rsa::KeyState st = owner.Wind(owner.GenesisState(rng));
  Secret blob = st.Serialize(kp.pub);
  rsa::KeyState back = rsa::KeyState::Deserialize(blob, kp.pub);
  EXPECT_EQ(back.version, st.version);
  EXPECT_EQ(back.value, st.value);
  EXPECT_THROW(
      rsa::KeyState::Deserialize(blob.Slice(0, blob.size() - 1), kp.pub),
      Error);
}

}  // namespace
}  // namespace reed::rsa
