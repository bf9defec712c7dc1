// CP-ABE tests: policy-tree logic, end-to-end encrypt/decrypt over GT and
// bytes, threshold gates, revocation semantics, serialization, and
// known-answer ciphertexts for seeded RNG streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <new>

#include "abe/cpabe.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace reed::abe {
namespace {

using crypto::DeterministicRng;
using pairing::TypeAPairing;
using pairing::TypeAParams;

class CpAbeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pairing_ = std::make_shared<const TypeAPairing>(TypeAParams::Default());
    abe_ = new CpAbe(pairing_);
    DeterministicRng rng(42);
    setup_ = new CpAbe::SetupResult(abe_->Setup(rng));
  }

  static std::shared_ptr<const TypeAPairing> pairing_;
  static CpAbe* abe_;
  static CpAbe::SetupResult* setup_;
};

std::shared_ptr<const TypeAPairing> CpAbeTest::pairing_;
CpAbe* CpAbeTest::abe_ = nullptr;
CpAbe::SetupResult* CpAbeTest::setup_ = nullptr;

// --------------------------- policy trees ---------------------------

TEST(PolicyTest, ConstructionAndSatisfaction) {
  PolicyNode p = PolicyNode::Or({PolicyNode::Leaf("user:alice"),
                                 PolicyNode::Leaf("user:bob")});
  EXPECT_TRUE(p.IsSatisfiedBy({"user:alice"}));
  EXPECT_TRUE(p.IsSatisfiedBy({"user:bob", "x"}));
  EXPECT_FALSE(p.IsSatisfiedBy({"user:carol"}));
  EXPECT_EQ(p.LeafCount(), 2u);

  PolicyNode a = PolicyNode::And({PolicyNode::Leaf("dept:cs"),
                                  PolicyNode::Leaf("rank:senior")});
  EXPECT_TRUE(a.IsSatisfiedBy({"dept:cs", "rank:senior"}));
  EXPECT_FALSE(a.IsSatisfiedBy({"dept:cs"}));
}

TEST(PolicyTest, NestedThresholdGates) {
  // 2-of-3: (A, B, (C AND D))
  PolicyNode p = PolicyNode::Threshold(
      2, {PolicyNode::Leaf("A"), PolicyNode::Leaf("B"),
          PolicyNode::And({PolicyNode::Leaf("C"), PolicyNode::Leaf("D")})});
  EXPECT_TRUE(p.IsSatisfiedBy({"A", "B"}));
  EXPECT_TRUE(p.IsSatisfiedBy({"A", "C", "D"}));
  EXPECT_FALSE(p.IsSatisfiedBy({"A", "C"}));
  EXPECT_FALSE(p.IsSatisfiedBy({"C", "D"}));
  EXPECT_EQ(p.LeafCount(), 4u);
}

TEST(PolicyTest, OrOfUsersShortcut) {
  PolicyNode p = PolicyNode::OrOfUsers({"alice", "bob", "carol"});
  EXPECT_TRUE(p.IsSatisfiedBy({"user:bob"}));
  EXPECT_FALSE(p.IsSatisfiedBy({"bob"}));
  // Single user degenerates to a bare leaf.
  PolicyNode single = PolicyNode::OrOfUsers({"dave"});
  EXPECT_TRUE(single.IsLeaf());
  EXPECT_THROW(PolicyNode::OrOfUsers({}), Error);
}

TEST(PolicyTest, InvalidConstructionsThrow) {
  EXPECT_THROW(PolicyNode::Leaf(""), Error);
  EXPECT_THROW(PolicyNode::Threshold(0, {PolicyNode::Leaf("a")}), Error);
  EXPECT_THROW(PolicyNode::Threshold(2, {PolicyNode::Leaf("a")}), Error);
  EXPECT_THROW(PolicyNode::Or({}), Error);
}

TEST(PolicyTest, SerializationRoundTrip) {
  PolicyNode p = PolicyNode::Threshold(
      2, {PolicyNode::Leaf("A"),
          PolicyNode::Or({PolicyNode::Leaf("B"), PolicyNode::Leaf("C")}),
          PolicyNode::And({PolicyNode::Leaf("D"), PolicyNode::Leaf("E")})});
  Bytes blob;
  p.SerializeTo(blob);
  EXPECT_EQ(PolicyNode::Deserialize(blob), p);
  blob.pop_back();
  EXPECT_THROW(PolicyNode::Deserialize(blob), Error);
}

TEST(PolicyTest, ToStringReadable) {
  PolicyNode p = PolicyNode::Or({PolicyNode::Leaf("user:alice"),
                                 PolicyNode::Leaf("user:bob")});
  EXPECT_EQ(p.ToString(), "(user:alice OR user:bob)");
}

// --------------------------- CP-ABE core ---------------------------

TEST_F(CpAbeTest, AuthorizedUserDecryptsGtElement) {
  DeterministicRng rng(1);
  PrivateKey alice = abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"alice", "bob"});

  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);
  auto decrypted = abe_->DecryptElement(alice, ct);
  ASSERT_TRUE(decrypted.has_value());
  EXPECT_EQ(*decrypted, m);
}

TEST_F(CpAbeTest, UnauthorizedUserGetsNothing) {
  DeterministicRng rng(2);
  PrivateKey eve = abe_->KeyGen(setup_->pk, setup_->mk, {"user:eve"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"alice", "bob"});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);
  EXPECT_FALSE(abe_->DecryptElement(eve, ct).has_value());
}

TEST_F(CpAbeTest, AndGateRequiresAllAttributes) {
  DeterministicRng rng(3);
  PolicyNode policy = PolicyNode::And(
      {PolicyNode::Leaf("dept:cs"), PolicyNode::Leaf("rank:senior")});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);

  PrivateKey both =
      abe_->KeyGen(setup_->pk, setup_->mk, {"dept:cs", "rank:senior"}, rng);
  PrivateKey partial = abe_->KeyGen(setup_->pk, setup_->mk, {"dept:cs"}, rng);
  auto ok = abe_->DecryptElement(both, ct);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, m);
  EXPECT_FALSE(abe_->DecryptElement(partial, ct).has_value());
}

TEST_F(CpAbeTest, ThresholdGateLagrangeRecombination) {
  DeterministicRng rng(4);
  // 2-of-3 policy exercises non-trivial Lagrange coefficients.
  PolicyNode policy = PolicyNode::Threshold(
      2, {PolicyNode::Leaf("a1"), PolicyNode::Leaf("a2"), PolicyNode::Leaf("a3")});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);

  for (auto attrs : std::vector<std::vector<std::string>>{
           {"a1", "a2"}, {"a1", "a3"}, {"a2", "a3"}, {"a1", "a2", "a3"}}) {
    PrivateKey sk = abe_->KeyGen(setup_->pk, setup_->mk, attrs, rng);
    auto dec = abe_->DecryptElement(sk, ct);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, m);
  }
  PrivateKey one = abe_->KeyGen(setup_->pk, setup_->mk, {"a2"}, rng);
  EXPECT_FALSE(abe_->DecryptElement(one, ct).has_value());
}

TEST_F(CpAbeTest, CollusionResistance) {
  // Two users who each fail the AND policy cannot combine their separate
  // keys — each key's components are bound by its own random t.
  DeterministicRng rng(5);
  PolicyNode policy = PolicyNode::And(
      {PolicyNode::Leaf("left"), PolicyNode::Leaf("right")});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);

  PrivateKey u1 = abe_->KeyGen(setup_->pk, setup_->mk, {"left"}, rng);
  PrivateKey u2 = abe_->KeyGen(setup_->pk, setup_->mk, {"right"}, rng);
  // Naive collusion: graft u2's component into u1's key.
  PrivateKey frankenstein = u1;
  frankenstein.components["right"] = u2.components.at("right");
  auto dec = abe_->DecryptElement(frankenstein, ct);
  if (dec.has_value()) {
    EXPECT_FALSE(*dec == m);  // recombination yields garbage, not m
  }
}

TEST_F(CpAbeTest, HybridBytesRoundTrip) {
  DeterministicRng rng(6);
  PrivateKey alice = abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"alice"});
  Secret secret(ToBytes("the file key state for backup-2013-03-19.tar"));
  Bytes blob = Declassify(abe_->EncryptBytes(setup_->pk, policy, secret, rng),
                          "test: hybrid ABE ciphertext");
  EXPECT_TRUE(abe_->DecryptBytes(alice, blob).ConstantTimeEquals(secret));
}

TEST_F(CpAbeTest, HybridRejectsUnauthorizedAndTampered) {
  DeterministicRng rng(7);
  PrivateKey alice = abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice"}, rng);
  PrivateKey eve = abe_->KeyGen(setup_->pk, setup_->mk, {"user:eve"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"alice"});
  Bytes blob = Declassify(
      abe_->EncryptBytes(setup_->pk, policy, Secret(ToBytes("secret")), rng),
      "test: hybrid ABE ciphertext to tamper with");

  EXPECT_THROW(abe_->DecryptBytes(eve, blob), Error);
  Bytes tampered = blob;
  tampered[tampered.size() - 40] ^= 1;  // flip payload bit
  EXPECT_THROW(abe_->DecryptBytes(alice, tampered), Error);
}

TEST_F(CpAbeTest, CiphertextSerializationRoundTrip) {
  DeterministicRng rng(8);
  PolicyNode policy = PolicyNode::Threshold(
      2, {PolicyNode::Leaf("x"), PolicyNode::Leaf("y"), PolicyNode::Leaf("z")});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);
  Bytes blob = abe_->SerializeCiphertext(ct);
  Ciphertext back = abe_->DeserializeCiphertext(blob);

  PrivateKey sk = abe_->KeyGen(setup_->pk, setup_->mk, {"x", "z"}, rng);
  auto dec = abe_->DecryptElement(sk, back);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, m);
  blob.pop_back();
  EXPECT_THROW(abe_->DeserializeCiphertext(blob), Error);
}

TEST_F(CpAbeTest, KeySerializationRoundTrip) {
  DeterministicRng rng(9);
  PrivateKey sk = abe_->KeyGen(setup_->pk, setup_->mk,
                               {"user:alice", "dept:cs"}, rng);
  PrivateKey back = abe_->DeserializePrivateKey(abe_->SerializePrivateKey(sk));
  EXPECT_EQ(back.Attributes(), sk.Attributes());

  PublicKey pk_back = abe_->DeserializePublicKey(abe_->SerializePublicKey(setup_->pk));
  // Round-tripped public key still encrypts correctly.
  PolicyNode policy = PolicyNode::OrOfUsers({"alice"});
  Bytes blob = Declassify(
      abe_->EncryptBytes(pk_back, policy, Secret(ToBytes("hello")), rng),
      "test: ciphertext under the round-tripped public key");
  EXPECT_TRUE(abe_->DecryptBytes(back, blob).ConstantTimeEquals(ToBytes("hello")));
}

// --------------------------- key hygiene ---------------------------

// The Montgomery limbs of a secret point's two coordinates: the bytes a
// dead copy of the key must not leave behind.
std::vector<Bytes> SecretLimbs(const G1Point& p) {
  std::vector<Bytes> out;
  for (const pairing::Fp* c : {&p.x(), &p.y()}) {
    const auto& limbs = c->mont();
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(limbs.data());
    out.emplace_back(bytes, bytes + sizeof(limbs));
  }
  return out;
}

// Whether `memory` still holds either coordinate.
bool Holds(ByteSpan memory, const std::vector<Bytes>& secret) {
  return std::any_of(secret.begin(), secret.end(), [&](const Bytes& limbs) {
    return std::search(memory.begin(), memory.end(), limbs.begin(), limbs.end()) !=
           memory.end();
  });
}

// A key copied into raw storage leaves none of D, D_j or D'_j there once
// destroyed, and an assignment leaves none of the old key's points.
TEST_F(CpAbeTest, KeyPointsAreWipedOnDestructionAndAssignment) {
  DeterministicRng rng(61);
  PrivateKey alice = abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice"}, rng);
  PrivateKey bob = abe_->KeyGen(setup_->pk, setup_->mk, {"user:bob"}, rng);
  const AttributeKey& comp = alice.components.at("user:alice");
  const std::vector<Bytes> d = SecretLimbs(alice.d);
  const std::vector<Bytes> d_j = SecretLimbs(comp.d);
  const std::vector<Bytes> d_prime_j = SecretLimbs(comp.d_prime);

  alignas(PrivateKey) std::uint8_t key_storage[sizeof(PrivateKey)];
  ByteSpan key_memory(key_storage, sizeof(key_storage));
  auto* key = new (key_storage) PrivateKey(alice);
  ASSERT_TRUE(Holds(key_memory, d));
  *key = bob;  // assignment overwrites the old D in place
  EXPECT_FALSE(Holds(key_memory, d));
  EXPECT_TRUE(Holds(key_memory, SecretLimbs(bob.d)));
  *key = alice;
  key->~PrivateKey();
  EXPECT_FALSE(Holds(key_memory, d));

  alignas(AttributeKey) std::uint8_t comp_storage[sizeof(AttributeKey)];
  ByteSpan comp_memory(comp_storage, sizeof(comp_storage));
  auto* moved = new (comp_storage) AttributeKey(std::move(AttributeKey(comp)));
  ASSERT_TRUE(Holds(comp_memory, d_j));
  ASSERT_TRUE(Holds(comp_memory, d_prime_j));
  moved->~AttributeKey();
  EXPECT_FALSE(Holds(comp_memory, d_j));
  EXPECT_FALSE(Holds(comp_memory, d_prime_j));

  // The original still decrypts: wiping touched only the dead copies.
  PolicyNode policy = PolicyNode::OrOfUsers({"alice"});
  Bytes blob = Declassify(abe_->EncryptBytes(setup_->pk, policy, Secret(ToBytes("k")), rng),
                          "test: ciphertext for the wipe test");
  EXPECT_TRUE(abe_->DecryptBytes(alice, blob).ConstantTimeEquals(ToBytes("k")));
}

TEST_F(CpAbeTest, MasterKeySerializationRoundTrip) {
  // A restored master key must issue working private keys — the reedctl
  // attribute authority persists org state this way.
  DeterministicRng rng(12);
  MasterKey mk = abe_->DeserializeMasterKey(abe_->SerializeMasterKey(setup_->mk));
  EXPECT_EQ(mk.beta, setup_->mk.beta);
  PrivateKey sk = abe_->KeyGen(setup_->pk, mk, {"user:dave"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"dave"});
  Bytes blob = Declassify(
      abe_->EncryptBytes(setup_->pk, policy, Secret(ToBytes("data")), rng),
      "test: ciphertext under the restored master key's issuer");
  EXPECT_TRUE(abe_->DecryptBytes(sk, blob).ConstantTimeEquals(ToBytes("data")));
  EXPECT_THROW(abe_->DeserializeMasterKey(Secret(Bytes(3, 0))), Error);
}

TEST_F(CpAbeTest, RevocationByPolicyChange) {
  // The REED rekey pattern: re-encrypt the key state under a policy without
  // the revoked user.
  DeterministicRng rng(10);
  PrivateKey bob = abe_->KeyGen(setup_->pk, setup_->mk, {"user:bob"}, rng);
  Secret state(ToBytes("key-state-v1"));

  Bytes v1 = Declassify(
      abe_->EncryptBytes(setup_->pk, PolicyNode::OrOfUsers({"alice", "bob"}),
                         state, rng),
      "test: v1 key-state envelope");
  EXPECT_TRUE(abe_->DecryptBytes(bob, v1).ConstantTimeEquals(state));

  Secret state2(ToBytes("key-state-v2"));
  Bytes v2 = Declassify(
      abe_->EncryptBytes(setup_->pk, PolicyNode::OrOfUsers({"alice"}), state2,
                         rng),
      "test: v2 key-state envelope excluding bob");
  EXPECT_THROW(abe_->DecryptBytes(bob, v2), Error);
}

TEST_F(CpAbeTest, EmptyAttributeSetRejected) {
  DeterministicRng rng(11);
  EXPECT_THROW(abe_->KeyGen(setup_->pk, setup_->mk, {}, rng), Error);
}

// --------------------------- fixed-base tables ---------------------------

TEST_F(CpAbeTest, FullTableBudgetFallsBackToScalarMul) {
  // Fill a fresh instance's table budget, then encrypt under one more
  // attribute: it builds no table, multiplies with ScalarMul, and still
  // gives the bytes an instance with a table for it gives.
  auto& reg = obs::Registry::Global();
  const obs::Counter& builds = reg.GetCounter("abe.table.builds");
  const obs::Counter& fallbacks = reg.GetCounter("abe.table.fallback_muls");
  const obs::Gauge& bytes = reg.GetGauge("abe.table.bytes");
  const std::size_t per_table =
      pairing::G1FixedBase::BytesFor(pairing_->group_order().BitLength());
  const std::size_t fit = CpAbe::kTableBudgetBytes / per_table;
  ASSERT_GT(fit, 700u);  // ~800 bases: more than any realistic user pool
  const Secret plaintext(ToBytes("fallback"));
  const PolicyNode late = PolicyNode::OrOfUsers({"late"});
  DeterministicRng rng_tables(301);
  const Bytes with_tables = Declassify(
      abe_->EncryptBytes(setup_->pk, late, plaintext, rng_tables),
      "test: ABE ciphertext compared across instances");
  const std::int64_t bytes0 = bytes.value();
  {
    CpAbe full(pairing_);
    const std::uint64_t builds0 = builds.value();
    const std::uint64_t fallbacks0 = fallbacks.value();
    // g and h take two tables; fit − 2 attributes take the rest.
    std::vector<std::string> filler;
    for (std::size_t i = 0; i + 2 < fit; ++i) {
      filler.push_back("fill" + std::to_string(i));
    }
    DeterministicRng rng(300);
    (void)full.EncryptBytes(setup_->pk, PolicyNode::OrOfUsers(filler),
                            plaintext, rng);
    EXPECT_EQ(builds.value() - builds0, fit);
    EXPECT_EQ(fallbacks.value() - fallbacks0, 0u);
    EXPECT_EQ(bytes.value() - bytes0,
              static_cast<std::int64_t>(fit * per_table));

    DeterministicRng rng_full(301);
    Bytes with_fallback = Declassify(
        full.EncryptBytes(setup_->pk, late, plaintext, rng_full),
        "test: ABE ciphertext compared across instances");
    EXPECT_EQ(builds.value() - builds0, fit);
    EXPECT_EQ(fallbacks.value() - fallbacks0, 1u);  // H(late)^s only
    EXPECT_EQ(with_fallback, with_tables);
    DeterministicRng key_rng(302);
    PrivateKey sk = full.KeyGen(setup_->pk, setup_->mk, {"user:late"}, key_rng);
    EXPECT_TRUE(full.DecryptBytes(sk, with_fallback).ConstantTimeEquals(plaintext));
  }
  // The gauge counts live instances' tables only.
  EXPECT_EQ(bytes.value(), bytes0);
}

// --------------------------- known answers ---------------------------
//
// SHA-256 of the public key and of EncryptBytes output for fixed RNG seeds.
// Stored key-state envelopes depend on these bytes, so a faster scheme
// implementation must reproduce them exactly for the same RNG stream.

std::string DigestHex(ByteSpan bytes) {
  return HexEncode(crypto::Sha256::HashToBytes(bytes));
}

std::vector<std::string> Users(std::size_t n) {
  std::vector<std::string> users;
  for (std::size_t i = 0; i < n; ++i) users.push_back("u" + std::to_string(i));
  return users;
}

TEST_F(CpAbeTest, SetupPublicKeyKnownAnswer) {
  Bytes pk = abe_->SerializePublicKey(setup_->pk);
  EXPECT_EQ(pk.size(), 386u);
  EXPECT_EQ(DigestHex(pk),
            "36abd325855dbb9f65b79dc32da0844aeb06db0de058464b626e52b5439bf775");
}

TEST_F(CpAbeTest, EncryptBytesKnownAnswers) {
  const Secret plaintext(ToBytes("key state pinned by known-answer test"));
  struct Case {
    PolicyNode policy;
    std::uint64_t seed;
    std::vector<std::string> key_attributes;
  };
  std::vector<Case> cases = {
      {PolicyNode::OrOfUsers(Users(1)), 101, {"user:u0"}},
      {PolicyNode::OrOfUsers(Users(17)), 102, {"user:u16"}},
      {PolicyNode::Threshold(2, {PolicyNode::Leaf("a1"), PolicyNode::Leaf("a2"),
                                 PolicyNode::Leaf("a3")}),
       103,
       {"a1", "a3"}},
  };
  std::vector<std::string> got;
  for (const Case& c : cases) {
    DeterministicRng rng(c.seed);
    Bytes blob = Declassify(
        abe_->EncryptBytes(setup_->pk, c.policy, plaintext, rng),
        "test: known-answer ABE ciphertext");
    got.push_back(std::to_string(blob.size()) + ":" + DigestHex(blob));
    DeterministicRng key_rng(c.seed + 1000);
    PrivateKey sk =
        abe_->KeyGen(setup_->pk, setup_->mk, c.key_attributes, key_rng);
    EXPECT_TRUE(abe_->DecryptBytes(sk, blob).ConstantTimeEquals(plaintext));
  }
  std::vector<std::string> want = {
      "624:55200ae05e46d64d1094cb10ad5a64bc29c667ca46d27633acd98a041414415a",
      "4960:9687bb99494450a925048c1d26ae31f609b4adfffc98569b376c2e2e20f24304",
      "1158:4fac9711c89976b4201cb055627326844902a0f3aef05296f62c618763a4dcc7"};
  EXPECT_EQ(got, want);
}

TEST_F(CpAbeTest, KeyGenKnownAnswer) {
  std::vector<std::string> got;
  for (std::size_t n : {1, 17}) {
    std::vector<std::string> attributes;
    for (std::size_t i = 0; i < n; ++i) {
      attributes.push_back("user:u");
      attributes.back() += std::to_string(i);
    }
    DeterministicRng rng(200 + n);
    PrivateKey sk = abe_->KeyGen(setup_->pk, setup_->mk, attributes, rng);
    Bytes blob = Declassify(abe_->SerializePrivateKey(sk),
                            "test: known-answer private key");
    got.push_back(std::to_string(blob.size()) + ":" + DigestHex(blob));
  }
  std::vector<std::string> want = {
      "402:2cbc53b37d369bc93854981f2f446870d6cbb118b35a9caa6189ef62f6c41984",
      "4713:3e93a37c551ab89137095779f9208f31d2efbbfa4152c83832071d33ee208037"};
  EXPECT_EQ(got, want);
}


// Decrypt gates: seeded ciphertexts for OR policies of 1, 17 and 400 users,
// a 2-of-3 gate and a nested AND/OR/threshold tree, each decrypted by a key
// for every listed satisfying attribute set. Per case, one SHA-256 over the
// hybrid blob, then each key's recovered plaintext and recovered G_T element
// (from a second, EncryptElement ciphertext). A decrypt that pairs fewer
// points, or pairs them differently, must land on exactly these bytes.
struct DecryptCase {
  std::string name;
  PolicyNode policy;
  std::uint64_t seed;
  std::vector<std::vector<std::string>> keys;  // each satisfies the policy
  std::vector<std::string> unsatisfying;
};

std::vector<std::string> UserAttributes(std::initializer_list<int> ids) {
  std::vector<std::string> out;
  for (int id : ids) {
    out.emplace_back("user:u");
    out.back() += std::to_string(id);
  }
  return out;
}

// OR over user ids u0..u(n−1), built like Users() but without its string
// concatenation, which GCC 12 flags with a bogus -Wrestrict once inlined.
PolicyNode OrOfFirstUsers(std::size_t n) {
  std::vector<std::string> users(n, "u");
  for (std::size_t i = 0; i < n; ++i) users[i] += std::to_string(i);
  return PolicyNode::OrOfUsers(users);
}

std::vector<DecryptCase> DecryptCases() {
  PolicyNode nested = PolicyNode::And(
      {PolicyNode::Leaf("dept:eng"),
       PolicyNode::Or({PolicyNode::Leaf("role:admin"),
                       PolicyNode::Threshold(
                           2, {PolicyNode::Leaf("role:dev"),
                               PolicyNode::Leaf("level:senior"),
                               PolicyNode::Leaf("site:hq")})})});
  return {
      {"or-1", OrOfFirstUsers(1), 301,
       {UserAttributes({0})}, UserAttributes({1})},
      {"or-17", OrOfFirstUsers(17), 302,
       {UserAttributes({0}), UserAttributes({8}), UserAttributes({16}),
        UserAttributes({3, 9})},
       UserAttributes({17})},
      {"or-400", OrOfFirstUsers(400), 303,
       {UserAttributes({0}), UserAttributes({199}), UserAttributes({399}),
        UserAttributes({5, 399})},
       UserAttributes({400})},
      {"2-of-3",
       PolicyNode::Threshold(2, {PolicyNode::Leaf("a1"), PolicyNode::Leaf("a2"),
                                 PolicyNode::Leaf("a3")}),
       304,
       {{"a1", "a2"}, {"a1", "a3"}, {"a2", "a3"}, {"a1", "a2", "a3"}},
       {"a2"}},
      {"nested", nested, 305,
       {{"dept:eng", "role:admin"},
        {"dept:eng", "role:dev", "level:senior"},
        {"dept:eng", "role:dev", "site:hq"},
        {"dept:eng", "level:senior", "site:hq"},
        {"dept:eng", "role:admin", "role:dev", "level:senior", "site:hq"}},
       {"role:admin", "role:dev", "level:senior"}},
  };
}

TEST_F(CpAbeTest, DecryptKnownAnswers) {
  std::vector<std::string> got;
  for (const DecryptCase& c : DecryptCases()) {
    SCOPED_TRACE(c.name);
    const Secret plaintext(ToBytes("decrypt gate plaintext for " + c.name));
    DeterministicRng rng(c.seed);
    Bytes blob = Declassify(
        abe_->EncryptBytes(setup_->pk, c.policy, plaintext, rng),
        "test: known-answer ABE ciphertext");
    pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                         .Pow(pairing_->RandomScalar(rng));
    Bytes ct = abe_->SerializeCiphertext(
        abe_->EncryptElement(setup_->pk, m, c.policy, rng));

    Bytes transcript = blob;
    for (std::size_t k = 0; k < c.keys.size(); ++k) {
      DeterministicRng key_rng(c.seed + 1000 + k);
      PrivateKey sk = abe_->KeyGen(setup_->pk, setup_->mk, c.keys[k], key_rng);
      Secret recovered = abe_->DecryptBytes(sk, blob);
      EXPECT_TRUE(recovered.ConstantTimeEquals(plaintext)) << k;
      Append(transcript, Declassify(std::move(recovered),
                                    "test: recovered known-answer plaintext"));
      std::optional<pairing::Fp2> element =
          abe_->DecryptElement(sk, abe_->DeserializeCiphertext(ct));
      ASSERT_TRUE(element.has_value()) << k;
      EXPECT_EQ(*element, m) << k;
      Append(transcript, element->ToBytes());
    }
    got.push_back(c.name + ":" + std::to_string(blob.size()) + ":" +
                  DigestHex(transcript));

    DeterministicRng key_rng(c.seed + 2000);
    PrivateKey outsider =
        abe_->KeyGen(setup_->pk, setup_->mk, c.unsatisfying, key_rng);
    try {
      (void)abe_->DecryptBytes(outsider, blob);
      ADD_FAILURE() << "an unsatisfying key decrypted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("do not satisfy"),
                std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(abe_->DecryptElement(outsider, abe_->DeserializeCiphertext(ct))
                     .has_value());
  }
  std::vector<std::string> want = {
      "or-1:618:d8a24c71492653932f25157dfd36074473ed4544c4c6dc82426bb997b884c7f4",
      "or-17:4955:4f2b00b7722e603fca7a72232083a5b402918b17832d84046332b30b23867432",
      "or-400:109049:"
      "9dd2a4ab85bdd58ddb681de7069f5f2770b8b92d75c552e44f7ffcb2082b70e7",
      "2-of-3:1154:"
      "3cd0256b97dac8ad79bf156ede720de86204b0c659a4ca65675c4a0e5b76681a",
      "nested:1737:"
      "bab3f67c07ef89526422979dbbb19f8b0ec1c7cfd2b6687f390ce1f7e56ceb52"};
  EXPECT_EQ(got, want);
}

// Offset in an EncryptBytes blob of leaf `leaf`'s C_y point (C'_y follows
// it): past the length prefix, the policy, C̃, C and the leaf count.
std::size_t LeafPointOffset(const TypeAPairing& pairing, ByteSpan blob,
                            std::size_t leaf) {
  const std::size_t eb = pairing.field()->element_bytes();
  const std::size_t pt = G1Point::SerializedSize(pairing.field());
  const std::size_t policy_len = GetU32(blob.subspan(4));
  return 4 + 4 + policy_len + 2 * eb + pt + 4 + leaf * 2 * pt;
}

TEST_F(CpAbeTest, GarbledLeafPoints) {
  // A bit flip in a leaf point's x coordinate takes it off the curve. The
  // holder of user:u16 pairs leaf 16 and never leaf 3.
  const DecryptCase c = DecryptCases()[1];
  const Secret plaintext(ToBytes("garbled leaf plaintext"));
  DeterministicRng rng(c.seed);
  Bytes blob = Declassify(abe_->EncryptBytes(setup_->pk, c.policy, plaintext, rng),
                          "test: ABE ciphertext to garble");
  DeterministicRng key_rng(c.seed + 1000);
  PrivateKey sk = abe_->KeyGen(setup_->pk, setup_->mk, {"user:u16"}, key_rng);
  ASSERT_TRUE(abe_->DecryptBytes(sk, blob).ConstantTimeEquals(plaintext));

  const std::size_t eb = pairing_->field()->element_bytes();
  const std::uint32_t ct_len = GetU32(blob);
  for (std::size_t leaf : {16, 3}) {
    for (std::size_t point : {0, 1}) {
      SCOPED_TRACE("leaf " + std::to_string(leaf) + " point " +
                   std::to_string(point));
      Bytes garbled = blob;
      const std::size_t x_last =
          LeafPointOffset(*pairing_, blob, leaf) +
          point * G1Point::SerializedSize(pairing_->field()) + eb;
      garbled[x_last] ^= 1;
      // The full parse decodes every point and rejects either leaf.
      EXPECT_THROW(
          (void)abe_->DeserializeCiphertext(ByteSpan(garbled).subspan(4, ct_len)),
          Error);
      if (leaf == 16) {
        EXPECT_THROW((void)abe_->DecryptBytes(sk, garbled), Error);
      } else {
        // Decrypt decodes only the points it pairs; an unpaired one cannot
        // change the result (DESIGN.md §17).
        EXPECT_TRUE(abe_->DecryptBytes(sk, garbled).ConstantTimeEquals(plaintext));
      }
    }
  }
}

TEST_F(CpAbeTest, StaleKeyLinesArePreparedAfresh) {
  // A key whose points change after preparation keeps handles recorded
  // from the old points. Decrypt must notice and prepare the new points,
  // or it would pair the wrong key.
  DeterministicRng rng(13);
  PolicyNode policy = PolicyNode::OrOfUsers({"alice", "bob"});
  const Secret plaintext(ToBytes("stale handles"));
  Bytes blob = Declassify(abe_->EncryptBytes(setup_->pk, policy, plaintext, rng),
                          "test: ABE ciphertext for a stale key");
  PrivateKey old_key = abe_->KeyGen(setup_->pk, setup_->mk, {"user:bob"}, rng);
  PrivateKey new_key = abe_->KeyGen(setup_->pk, setup_->mk, {"user:bob"}, rng);

  PrivateKey stale = old_key;  // old_key's handles
  stale.d = new_key.d;
  stale.components.at("user:bob").d = new_key.components.at("user:bob").d;
  stale.components.at("user:bob").d_prime =
      new_key.components.at("user:bob").d_prime;
  ASSERT_NE(stale.d_lines->point(), stale.d);

  obs::Histogram& prepare = obs::Registry::Global().GetHistogram("abe.prepare_us");
  const std::uint64_t before = prepare.count();
  EXPECT_TRUE(abe_->DecryptBytes(stale, blob).ConstantTimeEquals(plaintext));
  EXPECT_EQ(prepare.count(), before + 3);  // D, D_j and −D'_j afresh

  // Only the changed point is prepared again; a key without handles
  // prepares all of its points.
  PrivateKey half = new_key;
  half.d = old_key.d;
  EXPECT_THROW((void)abe_->DecryptBytes(half, blob), Error);  // wrong key
  EXPECT_EQ(prepare.count(), before + 4);
  PrivateKey bare;
  bare.d = new_key.d;
  bare.components["user:bob"] = {new_key.components.at("user:bob").d,
                                 new_key.components.at("user:bob").d_prime,
                                 nullptr, nullptr};
  EXPECT_TRUE(abe_->DecryptBytes(bare, blob).ConstantTimeEquals(plaintext));
  EXPECT_EQ(prepare.count(), before + 7);
}

}  // namespace
}  // namespace reed::abe
