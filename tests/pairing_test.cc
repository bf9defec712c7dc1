// Pairing substrate tests: field tower algebra, curve group laws,
// hash-to-group, the bilinearity/non-degeneracy of the Tate pairing, and
// known-answer vectors (including hostile, non-subgroup inputs) that pin the
// pairing's output bytes across rewrites of the Miller loop.
#include <gtest/gtest.h>

#include "bigint/prime.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "pairing/pairing.h"

namespace reed::pairing {
namespace {

using crypto::DeterministicRng;

const TypeAPairing& SharedPairing() {
  static TypeAPairing pairing(TypeAParams::Default());
  return pairing;
}

TEST(TypeAParamsTest, DefaultParametersAreConsistent) {
  TypeAParams params = TypeAParams::Default();
  EXPECT_EQ(params.p.BitLength(), 512u);
  EXPECT_EQ(params.r.BitLength(), 160u);
  EXPECT_EQ(params.p.ModLimb(4), 3u);
  EXPECT_EQ(params.cofactor * params.r, params.p + BigInt(1));
  DeterministicRng rng(1);
  EXPECT_TRUE(bigint::IsProbablePrime(params.p, rng));
  EXPECT_TRUE(bigint::IsProbablePrime(params.r, rng));
}

TEST(TypeAParamsTest, GenerateProducesValidSmallParams) {
  DeterministicRng rng(2);
  TypeAParams params = TypeAParams::Generate(80, 256, rng);
  EXPECT_EQ(params.p.BitLength(), 256u);
  EXPECT_EQ(params.r.BitLength(), 80u);
  EXPECT_EQ(params.p.ModLimb(4), 3u);
  EXPECT_EQ(params.cofactor * params.r, params.p + BigInt(1));
}

// --------------------------- Fp / Fp2 ---------------------------

TEST(FpTest, FieldAxiomsRandomized) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(3);
  for (int i = 0; i < 20; ++i) {
    Fp a = Fp::Random(f, rng);
    Fp b = Fp::Random(f, rng);
    Fp c = Fp::Random(f, rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    EXPECT_EQ(a - a, Fp::Zero(f));
    EXPECT_EQ(a + a.Neg(), Fp::Zero(f));
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp::One(f));
    }
  }
}

TEST(FpTest, FieldRejectsPrimeWiderThanTheKernel) {
  // Elements hold FpField::kLimbs limbs inline: a 576-bit p (≡ 3 mod 4)
  // cannot be represented and must be refused, not truncated.
  BigInt wide = (BigInt(1) << (64 * FpField::kLimbs + 63)) + BigInt(3);
  EXPECT_THROW(FpField field(wide), Error);
  EXPECT_THROW(FpField even(BigInt(1) << 100), Error);
  EXPECT_THROW(FpField one_mod_four((BigInt(1) << 100) + BigInt(1)), Error);
  EXPECT_NO_THROW(FpField widest(TypeAParams::Default().p));
}

TEST(FpTest, BytesRoundTrip) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(4);
  Fp a = Fp::Random(f, rng);
  EXPECT_EQ(Fp::FromBytes(f, a.ToBytes()), a);
  EXPECT_EQ(a.ToBytes().size(), f->element_bytes());
  Bytes bad(f->element_bytes() - 1, 0);
  EXPECT_THROW(Fp::FromBytes(f, bad), Error);
}

TEST(FpTest, SqrtOfSquareRecoversRoot) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(5);
  int qr_count = 0;
  for (int i = 0; i < 20; ++i) {
    Fp a = Fp::Random(f, rng);
    Fp sq = a.Square();
    Fp root;
    ASSERT_TRUE(sq.Sqrt(&root));
    EXPECT_EQ(root.Square(), sq);
    Fp maybe;
    if (Fp::Random(f, rng).Sqrt(&maybe)) ++qr_count;
  }
  // About half of random elements are quadratic residues.
  EXPECT_GT(qr_count, 2);
  EXPECT_LT(qr_count, 18);
}

TEST(FpTest, PowMatchesRepeatedMultiplication) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(6);
  Fp a = Fp::Random(f, rng);
  Fp acc = Fp::One(f);
  for (int i = 0; i < 13; ++i) acc = acc * a;
  EXPECT_EQ(a.Pow(BigInt(13)), acc);
  EXPECT_EQ(a.Pow(BigInt(0)), Fp::One(f));
}

TEST(Fp2Test, FieldAxiomsRandomized) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(7);
  for (int i = 0; i < 15; ++i) {
    Fp2 a(Fp::Random(f, rng), Fp::Random(f, rng));
    Fp2 b(Fp::Random(f, rng), Fp::Random(f, rng));
    Fp2 c(Fp::Random(f, rng), Fp::Random(f, rng));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    EXPECT_EQ(a * a.Inverse(), Fp2::One(f));
  }
}

TEST(Fp2Test, ConjugateIsFrobenius) {
  // In F_p² with p ≡ 3 mod 4, x^p = conj(x).
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(8);
  Fp2 x(Fp::Random(f, rng), Fp::Random(f, rng));
  EXPECT_EQ(x.Pow(SharedPairing().params().p), x.Conjugate());
}

TEST(Fp2Test, BytesRoundTrip) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(9);
  Fp2 x(Fp::Random(f, rng), Fp::Random(f, rng));
  EXPECT_EQ(Fp2::FromBytes(f, x.ToBytes()), x);
}

// --------------------------- curve group ---------------------------

TEST(G1Test, GeneratorIsOnCurveWithOrderR) {
  const TypeAPairing& e = SharedPairing();
  const G1Point& g = e.generator();
  EXPECT_FALSE(g.is_infinity());
  EXPECT_TRUE(g.IsOnCurve());
  EXPECT_TRUE(g.ScalarMul(e.group_order()).is_infinity());
}

TEST(G1Test, GroupLaws) {
  const TypeAPairing& e = SharedPairing();
  DeterministicRng rng(10);
  G1Point p = e.HashToGroup(ToBytes("P"));
  G1Point q = e.HashToGroup(ToBytes("Q"));
  EXPECT_EQ(p.Add(q), q.Add(p));
  EXPECT_EQ(p.Add(G1Point::Infinity()), p);
  EXPECT_TRUE(p.Add(p.Neg()).is_infinity());
  EXPECT_EQ(p.Double(), p.Add(p));
  EXPECT_TRUE(p.Add(q).IsOnCurve());
  // (P + Q) + P == P·2 + Q
  EXPECT_EQ(p.Add(q).Add(p), p.Double().Add(q));
}

TEST(G1Test, ScalarMulDistributes) {
  const TypeAPairing& e = SharedPairing();
  G1Point p = e.HashToGroup(ToBytes("scalar-test"));
  BigInt a(17), b(31);
  EXPECT_EQ(p.ScalarMul(a).Add(p.ScalarMul(b)), p.ScalarMul(a + b));
  EXPECT_EQ(p.ScalarMul(a).ScalarMul(b), p.ScalarMul(a * b));
  EXPECT_TRUE(p.ScalarMul(BigInt(0)).is_infinity());
}

TEST(G1Test, HashToGroupIsDeterministicAndInSubgroup) {
  const TypeAPairing& e = SharedPairing();
  G1Point p1 = e.HashToGroup(ToBytes("attribute:alice"));
  G1Point p2 = e.HashToGroup(ToBytes("attribute:alice"));
  G1Point p3 = e.HashToGroup(ToBytes("attribute:bob"));
  EXPECT_EQ(p1, p2);
  EXPECT_FALSE(p1 == p3);
  EXPECT_TRUE(p1.ScalarMul(e.group_order()).is_infinity());
}

TEST(G1Test, SerializationRoundTrip) {
  const TypeAPairing& e = SharedPairing();
  const FpField* f = e.field();
  G1Point p = e.HashToGroup(ToBytes("serialize"));
  EXPECT_EQ(G1Point::FromBytes(f, p.ToBytes(f)), p);
  EXPECT_EQ(G1Point::FromBytes(f, G1Point::Infinity().ToBytes(f)),
            G1Point::Infinity());
  // Corrupt y: point no longer on curve.
  Bytes bytes = p.ToBytes(f);
  bytes[bytes.size() - 1] ^= 1;
  EXPECT_THROW(G1Point::FromBytes(f, bytes), Error);
}

// --------------------------- pairing ---------------------------

TEST(PairingTest, NonDegenerate) {
  const TypeAPairing& e = SharedPairing();
  Fp2 val = e.Pair(e.generator(), e.generator());
  EXPECT_FALSE(val.IsOne());
  // Output has order dividing r.
  EXPECT_TRUE(val.Pow(e.group_order()).IsOne());
}

TEST(PairingTest, Bilinearity) {
  const TypeAPairing& e = SharedPairing();
  DeterministicRng rng(11);
  G1Point p = e.HashToGroup(ToBytes("bilinear-P"));
  G1Point q = e.HashToGroup(ToBytes("bilinear-Q"));
  BigInt a = e.RandomScalar(rng);
  BigInt b = e.RandomScalar(rng);

  Fp2 base = e.Pair(p, q);
  // e(aP, Q) == e(P, Q)^a
  EXPECT_EQ(e.Pair(p.ScalarMul(a), q), base.Pow(a));
  // e(P, bQ) == e(P, Q)^b
  EXPECT_EQ(e.Pair(p, q.ScalarMul(b)), base.Pow(b));
  // e(aP, bQ) == e(P, Q)^(ab)
  EXPECT_EQ(e.Pair(p.ScalarMul(a), q.ScalarMul(b)),
            base.Pow(BigInt::MulMod(a, b, e.group_order())));
}

TEST(PairingTest, Symmetry) {
  // Type-A pairings built on a distortion map are symmetric.
  const TypeAPairing& e = SharedPairing();
  G1Point p = e.HashToGroup(ToBytes("sym-P"));
  G1Point q = e.HashToGroup(ToBytes("sym-Q"));
  EXPECT_EQ(e.Pair(p, q), e.Pair(q, p));
}

TEST(PairingTest, InfinityPairsToOne) {
  const TypeAPairing& e = SharedPairing();
  G1Point p = e.HashToGroup(ToBytes("inf-test"));
  EXPECT_TRUE(e.Pair(p, G1Point::Infinity()).IsOne());
  EXPECT_TRUE(e.Pair(G1Point::Infinity(), p).IsOne());
}

TEST(PairingTest, MultiplicativeInFirstArgument) {
  const TypeAPairing& e = SharedPairing();
  G1Point p1 = e.HashToGroup(ToBytes("m1"));
  G1Point p2 = e.HashToGroup(ToBytes("m2"));
  G1Point q = e.HashToGroup(ToBytes("mq"));
  EXPECT_EQ(e.Pair(p1.Add(p2), q), e.Pair(p1, q) * e.Pair(p2, q));
}

// --------------------------- known answers ---------------------------
//
// Output bytes of ê on fixed inputs, as computed by the plain affine Miller
// loop (one field inversion per step). Any rewrite of the loop or of the
// final exponentiation must reproduce every one of them exactly.

// The identity of G_T, 1 + 0·i.
const std::string kGtOne = std::string(127, '0') + "1" + std::string(128, '0');

std::string PairHex(const G1Point& p, const G1Point& q) {
  return HexEncode(SharedPairing().Pair(p, q).ToBytes());
}

TEST(PairingKnownAnswerTest, GeneratorWithItself) {
  const G1Point& g = SharedPairing().generator();
  EXPECT_EQ(PairHex(g, g),
            "2ce1ea65bced6f886d34cd8b573435f74b386fb9817a093779d9f99dd0abeda6"
            "5b039eb45892b9a40da1ee5da7467c8dedffa2291b5b7c610fcdec4f95a67f88"
            "1329296b880815189e08f5f60b2bdfd3e10065b17e079b8a9a16cdeb4edef1ef"
            "fdac2053aa02ea3d2d009984539a61faa69929e0a9e317dacec2c2f3a46be8bd");
}

TEST(PairingKnownAnswerTest, HashedPoints) {
  const TypeAPairing& e = SharedPairing();
  EXPECT_EQ(PairHex(e.HashToGroup(ToBytes("a")), e.HashToGroup(ToBytes("b"))),
            "04b55d2a82dc257734450630ec3c1a23eea6a8f997973f3ea4d02c4feb2e8853"
            "7f9944d5e564bc88bb3a654bfcefe477db77b9e835f9acad846cd20a05dbe7b7"
            "2f76340dcc48ff881a0a3404ec28ec88e725f6fb9847cac26d53b05816882511"
            "75723d43659d9edd3775aa6893b38e5ee700a3846c1759557122eba8ec6f2885");
}

TEST(PairingKnownAnswerTest, PointWithItselfAndItsNegation) {
  const TypeAPairing& e = SharedPairing();
  G1Point p = e.HashToGroup(ToBytes("kat-P"));
  EXPECT_EQ(PairHex(p, p),
            "783859c2404a755d4653b0b9d7a3cef380295c0db85f360476a299aab97543ca"
            "ce5d6162a884d53220af428162524095d4b73d05c7e9d605ae7957910f77247e"
            "224a6cbce3c746bf3f535549dd36d04169ecb76db63c6d4bf806dc16ad1a9f0b"
            "e70c63a9d05f572b32b839fe40867e91b137dc1670b8a930d8bd08cc7fd51731");
  EXPECT_EQ(PairHex(p, p.Neg()),
            "783859c2404a755d4653b0b9d7a3cef380295c0db85f360476a299aab97543ca"
            "ce5d6162a884d53220af428162524095d4b73d05c7e9d605ae7957910f77247e"
            "5ff3ea6d1489541384ed6b1338295d56162344f6b2882dc8edef589346909d9f"
            "4cc6dec1b38f03af55250ce57562e1f279406e0158d185b7befa11d19378de2a");
  // ê(P, −P) = ê(P, P)⁻¹, and ê(P, P)⁻¹ is its conjugate (norm 1).
  EXPECT_EQ(e.Pair(p, p.Neg()), e.Pair(p, p).Conjugate());
}

// --------------------------- hostile points ---------------------------
//
// G1Point::FromBytes checks only that a point lies on the curve, so a
// ciphertext from the untrusted server can carry points outside the order-r
// subgroup. The pairing's value on them is meaningless, but it must stay
// what it was (value or exception), so a rewrite cannot open a new crash or
// a new distinguisher on crafted input.

// HashToG1's first on-curve candidate for `data`, before the cofactor is
// cleared: a point whose order is a multiple of r times a factor of h.
G1Point UnclearedCandidate(ByteSpan data) {
  const FpField* f = SharedPairing().field();
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes input = ToBytes("reed/hash-to-g1");
    AppendU32(input, counter);
    Append(input, data);
    Bytes expanded;
    for (std::uint32_t block = 0; expanded.size() < f->element_bytes();
         ++block) {
      Bytes sub = input;
      AppendU32(sub, block);
      Append(expanded, crypto::Sha256::HashToBytes(sub));
    }
    expanded.resize(f->element_bytes());
    Fp x = Fp::FromBigInt(f, BigInt::FromBytes(expanded));
    Fp y;
    if (!(x.Square() * x + x).Sqrt(&y)) continue;
    return G1Point(x, y);
  }
}

TEST(PairingHostilePointTest, HashCandidateOutsideSubgroup) {
  const TypeAPairing& e = SharedPairing();
  G1Point c = UnclearedCandidate(ToBytes("hostile"));
  ASSERT_TRUE(c.IsOnCurve());
  ASSERT_FALSE(c.ScalarMul(e.group_order()).is_infinity());
  // It really is the candidate HashToGroup clears.
  ASSERT_EQ(c.ScalarMul(e.params().cofactor),
            e.HashToGroup(ToBytes("hostile")));
  const G1Point& g = e.generator();
  EXPECT_EQ(PairHex(c, g),
            "77e23a9575c7e25a6d648492ec2737f15bc4bf04aecaf541734b8cc6f8ca349f"
            "3193e69aeed5692ef2911940e84616c24a389db8d13f84dfabf56ce19969f87f"
            "36baae2988115473706c68e980df8587dc237e2e2a5c31549cda8eed1437123e"
            "8885adb6a9368fb370fc5ee803cafbfe1df9433725450acdcf648f22ca71982e");
  EXPECT_EQ(PairHex(g, c),
            "3276172f2bf83eec7fa97b37aae0b00a9c9326dfc0e5cdc45a270137538c8d9c"
            "8f2b10c603d981751080c23b13ed411b2348e675f477a28911e4e456dbe23f3e"
            "69e930cc4ba10f0cc76f64b324000c805e078e8732cabcc0c6066479816c5909"
            "ad03abb4a65d97c4005680eb7be6c790f0bae5f25dfbc7c58cb677b87a62a413");
  EXPECT_EQ(PairHex(c, c),
            "66147a0d751c820fa415bb8c6afaae55d83d66160c4b40c556092781125aa2a0"
            "ecf2fc8dee9e5354d5b4f3cd0b1d7e44f3cce35278087b84995d883db1a78e95"
            "4f5928595a6eb2f3066c0a44639225b6402fa7ba1841c5c41f390f6c5f16f894"
            "24ef6cd9476e14ed8b37ad97a8e73b3212d23befcf48f23f8a64109b9582b52a");
}

TEST(PairingHostilePointTest, TwoTorsionPoint) {
  const TypeAPairing& e = SharedPairing();
  const FpField* f = e.field();
  G1Point t(Fp::Zero(f), Fp::Zero(f));
  ASSERT_TRUE(t.IsOnCurve());
  ASSERT_TRUE(t.Double().is_infinity());
  const G1Point& g = e.generator();
  EXPECT_EQ(PairHex(t, g), kGtOne);
  EXPECT_EQ(PairHex(g, t), kGtOne);
  EXPECT_EQ(PairHex(t, t), kGtOne);
}

TEST(PairingHostilePointTest, SmallOrderPointsHitVerticalLines) {
  // Small orders dividing the cofactor drive the loop's V onto vertical
  // lines: order 4 reaches the 2-torsion point (vertical tangent), order 3
  // reaches V = −P on an addition step (vertical chord to infinity), and
  // order 17 reaches V = P first (chord becomes a tangent) and V = −P later.
  const TypeAPairing& e = SharedPairing();
  G1Point c = UnclearedCandidate(ToBytes("hostile"));
  BigInt order = e.params().p + BigInt(1);
  const G1Point& g = e.generator();
  std::vector<std::string> got;
  for (std::uint64_t n : {3, 4, 17}) {
    G1Point s = c.ScalarMul(order / BigInt(n));
    ASSERT_FALSE(s.is_infinity()) << n;
    ASSERT_TRUE(s.ScalarMul(BigInt(n)).is_infinity()) << n;
    got.push_back(PairHex(s, g));
    got.push_back(PairHex(g, s));
  }
  // A point of order prime to r pairs to 1 as the second argument.
  std::vector<std::string> want = {
      "1112736638e590978fb89244b251bd1ec91605ed5c741060b8d22585ba955a57"
      "3725bfd32076af361f993f7b931fc42a383749bcc0b95dfcd181f48543de8e88"
      "46588f44dab4e43a3adfaa4a1b606ba47039402968ec1f6473d78ccfa4314ae7"
      "0a9ae283a3ebc288c19442192f7cc29940f3f45a73ba5e84448a462f001586da",
      kGtOne,
      "784fd97aa3508b3db4ff8ca66e32d21f78647975c10c9dab93167dcea2c3eaeb"
      "0f749d0e1bf73b4170bb4c6ace805616fe1314d5e5e479808efcd0fa05ad34a8"
      "0c273a05e7443e735f10573fbc0363a317dc22b31c3fdfa83730d1515cb8d6d4"
      "f70a0d517413491cd6c7222fbfb74f49e88ca8f3f8455983cb2400253dc18b31",
      kGtOne,
      "73ad3744770066c78d6e5e11562873767a2b4a00ee196abe5fccd1f01d755342"
      "fd610fde013396111476fee73ed5380d820142aeddc022decb0c7868554b1979"
      "5b51b4553f8c7e6f378c07dad44d8abd05166f78eaf0444c16232a15d4b8f7c0"
      "99597e825ba2083fe43cbc84827d121f3a3061d2ec9aa92fecf3d72f3de0cc08",
      kGtOne};
  EXPECT_EQ(got, want);
}

// --------------------------- prepared Miller loops ---------------------------
//
// Prepare records MillerLoop's lines and MillerProduct evaluates them with
// one squaring per step for every term: the product must equal the separate
// loops' product as an F_p² element, before any final exponentiation, on
// subgroup points and on every hostile point above, in either position.

std::vector<std::pair<std::string, G1Point>> MillerPool() {
  const TypeAPairing& e = SharedPairing();
  const FpField* f = e.field();
  DeterministicRng rng(11);
  G1Point c = UnclearedCandidate(ToBytes("hostile"));
  BigInt order = e.params().p + BigInt(1);
  std::vector<std::pair<std::string, G1Point>> pool = {
      {"generator", e.generator()},
      {"random", e.generator().ScalarMul(e.RandomScalar(rng))},
      {"hashed", e.HashToGroup(ToBytes("kat-P"))},
      {"two-torsion", G1Point(Fp::Zero(f), Fp::Zero(f))},
      {"uncleared", c},
      {"infinity", G1Point::Infinity()}};
  for (std::uint64_t n : {3, 4, 17}) {
    pool.emplace_back("order " + std::to_string(n),
                      c.ScalarMul(order / BigInt(n)));
  }
  return pool;
}

TEST(MillerProductTest, PrepareRecordsTangentsAndChords) {
  const TypeAPairing& e = SharedPairing();
  MillerLines lines = e.Prepare(e.generator());
  EXPECT_EQ(lines.point(), e.generator());
  EXPECT_EQ(lines.size(), 237u);  // 159 tangents, 78 chords for the default r
  EXPECT_EQ(e.Prepare(G1Point::Infinity()).size(), 0u);
}

TEST(MillerProductTest, EqualsProductOfMillerLoops) {
  const TypeAPairing& e = SharedPairing();
  std::vector<std::pair<std::string, G1Point>> pool = MillerPool();
  std::vector<MillerLines> lines;
  for (const auto& [name, point] : pool) lines.push_back(e.Prepare(point));
  // One term: every ordered pair of the pool, so each hostile point is
  // walked and evaluated at.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = 0; j < pool.size(); ++j) {
      SCOPED_TRACE(pool[i].first + " x " + pool[j].first);
      MillerTerm term{&lines[i], &pool[j].second};
      EXPECT_EQ(e.MillerProduct({&term, 1}),
                e.MillerLoop(pool[i].second, pool[j].second));
    }
  }
  // Two to four terms drawn from the pool.
  DeterministicRng rng(12);
  for (std::size_t n = 2; n <= 4; ++n) {
    for (int round = 0; round < 8; ++round) {
      std::vector<MillerTerm> terms;
      Fp2 want = Fp2::One(e.field());
      std::string trace;
      for (std::size_t t = 0; t < n; ++t) {
        std::size_t i = rng.Uniform(pool.size());
        std::size_t j = rng.Uniform(pool.size());
        terms.push_back({&lines[i], &pool[j].second});
        want = want * e.MillerLoop(pool[i].second, pool[j].second);
        trace += " (" + pool[i].first + ", " + pool[j].first + ")";
      }
      SCOPED_TRACE(trace);
      EXPECT_EQ(e.MillerProduct(terms), want);
    }
  }
  EXPECT_TRUE(e.MillerProduct({}).IsOne());
}

TEST(MillerProductTest, RejectsLinesFromAnotherGroupOrder) {
  DeterministicRng rng(13);
  TypeAPairing small(TypeAParams::Generate(40, 96, rng));
  MillerLines lines = small.Prepare(small.generator());
  const G1Point& q = SharedPairing().generator();
  MillerTerm term{&lines, &q};
  EXPECT_THROW((void)SharedPairing().MillerProduct({&term, 1}), Error);
}

// --------------------------- fixed-base tables ---------------------------
//
// G1FixedBase::Mul must equal ScalarMul bit for bit: CP-ABE ciphertexts and
// private keys are serialized affine points, so every stored byte rides on it.

// 0, 1, the digits around the signed-recoding edge (7, 8, 9, 15, 16), every
// window edge (16^i − 1, 16^i, 8·16^i, 9·16^i), r − 1, r, the widest scalar
// a table takes, and seeded random scalars.
std::vector<BigInt> TableScalars(std::size_t bits) {
  const TypeAPairing& e = SharedPairing();
  std::vector<BigInt> ks;
  for (std::uint64_t v : {0, 1, 7, 8, 9, 15, 16}) ks.emplace_back(v);
  for (std::size_t i = 0; i * 4 < bits; ++i) {
    BigInt w = BigInt(1) << (4 * i);
    ks.push_back(w - BigInt(1));
    ks.push_back(w);
    ks.push_back(w.MulLimb(8));
    ks.push_back(w.MulLimb(9));
  }
  ks.push_back(e.group_order() - BigInt(1));
  ks.push_back(e.group_order());
  ks.push_back((BigInt(1) << bits) - BigInt(1));
  DeterministicRng rng(7);
  for (int i = 0; i < 16; ++i) ks.push_back(e.RandomScalar(rng));
  return ks;
}

// Scalars wider than the table, which take the ScalarMul fallback.
std::vector<BigInt> WideScalars(std::size_t bits) {
  const TypeAPairing& e = SharedPairing();
  return {BigInt(1) << bits, (BigInt(1) << (bits + 40)) + BigInt(5),
          e.params().cofactor, e.group_order() * e.group_order()};
}

// Checks table->Mul against ScalarMul on every scalar; all products go
// through one BatchToAffine.
void ExpectTableMatchesScalarMul(const G1FixedBase& table,
                                 const std::vector<BigInt>& ks) {
  std::vector<G1Jacobian> products;
  for (const BigInt& k : ks) products.push_back(table.Mul(k));
  std::vector<G1Point> affine = BatchToAffine(products);
  for (std::size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(affine[i], table.base().ScalarMul(ks[i]))
        << "k = " << ks[i].ToHex();
  }
}

TEST(G1FixedBaseTest, MulMatchesScalarMul) {
  const TypeAPairing& e = SharedPairing();
  const std::size_t bits = e.group_order().BitLength();
  DeterministicRng rng(8);
  const G1Point& g = e.generator();
  std::vector<G1Point> bases = {g, g.ScalarMul(e.RandomScalar(rng)),
                                e.HashToGroup(ToBytes("reed/abe-attr:user:u0")),
                                e.HashToGroup(ToBytes("reed/abe-attr:a1"))};
  std::vector<BigInt> ks = TableScalars(bits);
  for (const BigInt& k : WideScalars(bits)) ks.push_back(k);
  for (const G1Point& base : bases) {
    std::optional<G1FixedBase> table = G1FixedBase::Build(base, bits);
    ASSERT_TRUE(table.has_value());
    EXPECT_EQ(table->bytes(), 41u * 8 * 2 * sizeof(FpField::Limbs));
    ExpectTableMatchesScalarMul(*table, ks);
  }
}

TEST(G1FixedBaseTest, RefusesInfinity) {
  EXPECT_FALSE(G1FixedBase::Build(G1Point::Infinity(), 160).has_value());
}

TEST(G1FixedBaseTest, HostilePointsMatchOrRefuse) {
  // Off-subgroup and small-order points: a table must either give exactly
  // ScalarMul's answer or be refused, so the caller keeps ScalarMul.
  const TypeAPairing& e = SharedPairing();
  const FpField* f = e.field();
  const std::size_t bits = e.group_order().BitLength();
  G1Point c = UnclearedCandidate(ToBytes("hostile"));
  BigInt order = e.params().p + BigInt(1);
  std::vector<std::pair<std::string, G1Point>> points = {
      {"two-torsion", G1Point(Fp::Zero(f), Fp::Zero(f))}, {"uncleared", c}};
  for (std::uint64_t n : {3, 4, 17}) {
    points.emplace_back("order " + std::to_string(n),
                        c.ScalarMul(order / BigInt(n)));
  }
  std::vector<BigInt> ks = TableScalars(bits);
  for (const BigInt& k : WideScalars(bits)) ks.push_back(k);
  std::vector<std::string> refused;
  for (const auto& [name, point] : points) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(point.IsOnCurve());
    std::optional<G1FixedBase> table = G1FixedBase::Build(point, bits);
    if (!table.has_value()) {
      refused.push_back(name);
      continue;
    }
    ExpectTableMatchesScalarMul(*table, ks);
  }
  // A table entry j·16^i·P (j ≤ 8) is infinity exactly when the order of P
  // divides it: orders 2, 3 and 4 do; 17 and the off-subgroup point don't.
  EXPECT_EQ(refused,
            (std::vector<std::string>{"two-torsion", "order 3", "order 4"}));
}

TEST(BatchToAffineTest, InfinityEntriesInterleaved) {
  const TypeAPairing& e = SharedPairing();
  DeterministicRng rng(9);
  std::vector<G1Jacobian> in;
  std::vector<G1Point> want;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 != 1) {
      in.emplace_back();
      want.push_back(G1Point::Infinity());
      continue;
    }
    // A Z ≠ 1 from a real double-and-add.
    BigInt k = e.RandomScalar(rng);
    in.push_back(e.generator().ScalarMulJacobian(k));
    want.push_back(e.generator().ScalarMul(k));
  }
  EXPECT_EQ(BatchToAffine(in), want);
  // All infinity, one finite entry, and nothing at all.
  EXPECT_EQ(BatchToAffine({G1Jacobian{}, G1Jacobian{}}),
            (std::vector<G1Point>{G1Point::Infinity(), G1Point::Infinity()}));
  EXPECT_EQ(BatchToAffine({G1Jacobian::FromAffine(e.generator())}),
            (std::vector<G1Point>{e.generator()}));
  EXPECT_TRUE(BatchToAffine({}).empty());
}

}  // namespace
}  // namespace reed::pairing
