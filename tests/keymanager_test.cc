// Key-manager + MLE key client tests: OPRF batching, wire protocol, rate
// limiting, and key-cache behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "crypto/random.h"
#include "crypto/sha256.h"
#include "keymanager/key_manager.h"
#include "keymanager/mle_key_client.h"
#include "obs/metrics.h"

namespace reed::keymanager {
namespace {

using crypto::DeterministicRng;

rsa::RsaKeyPair SharedTestKeys() {
  static rsa::RsaKeyPair keys = [] {
    DeterministicRng rng(1000);
    return rsa::GenerateKeyPair(512, rng);
  }();
  return keys;
}

KeyManager MakeManager(KeyManager::Options options = {}) {
  return KeyManager(SharedTestKeys(), options);
}

std::vector<chunk::Fingerprint> MakeFingerprints(int n, std::uint64_t seed) {
  DeterministicRng rng(seed);
  std::vector<chunk::Fingerprint> fps;
  for (int i = 0; i < n; ++i) {
    fps.push_back(chunk::Fingerprint::Of(rng.Generate(100)));
  }
  return fps;
}

std::shared_ptr<net::RpcChannel> DirectChannel(KeyManager& km) {
  return std::make_shared<net::LocalChannel>(
      [&km](ByteSpan req) { return km.HandleRequest(req); });
}

TEST(KeyManagerTest, SignBatchProducesValidSignatures) {
  KeyManager km = MakeManager();
  DeterministicRng rng(1);
  rsa::BlindSignatureClient bc(km.public_key());
  auto req = bc.Blind(ToBytes("fp"), rng);
  auto sigs = km.SignBatch("alice", {req.blinded});
  ASSERT_EQ(sigs.size(), 1u);
  EXPECT_EQ(bc.Unblind(req, sigs[0]).size(), 32u);
  EXPECT_EQ(km.stats().batches, 1u);
  EXPECT_EQ(km.stats().signatures, 1u);
}

std::vector<BigInt> RandomBlindedValues(int n, std::uint64_t seed,
                                        const BigInt& modulus) {
  DeterministicRng rng(seed);
  std::vector<BigInt> values;
  while (values.size() < static_cast<std::size_t>(n)) {
    BigInt v = BigInt::Random(rng, modulus);
    if (!v.IsZero()) values.push_back(std::move(v));
  }
  return values;
}

std::vector<BigInt> RandomBlindedValues(int n, std::uint64_t seed) {
  return RandomBlindedValues(n, seed, SharedTestKeys().pub.n);
}

// The paper's key size beside the suite's 512-bit key: CRT halves of 512
// and 256 bits.
const rsa::RsaKeyPair& SharedTestKeys1024() {
  static const rsa::RsaKeyPair keys = [] {
    DeterministicRng rng(1001);
    return rsa::GenerateKeyPair(1024, rng);
  }();
  return keys;
}

TEST(KeyManagerTest, SignBatchKnownAnswer) {
  std::vector<std::string> got;
  for (const rsa::RsaKeyPair& keys : {SharedTestKeys(), SharedTestKeys1024()}) {
    KeyManager km(keys, {});
    std::size_t nbytes = keys.pub.ByteLength();
    std::vector<BigInt> blinded = RandomBlindedValues(256, 50, keys.pub.n);
    Bytes all;
    for (const BigInt& s : km.SignBatch("alice", blinded)) {
      Append(all, s.ToBytesPadded(nbytes));
    }
    got.push_back(HexEncode(crypto::Sha256::HashToBytes(all)));
  }
  std::vector<std::string> want = {
      "352cf9ceeb8d05e81e6c560781016b58382f11c1887989a3d85c0e53d9e426bd",
      "a193fac13b40bf3ad3b8d8c9b6615ea40af11b159e1c34dd5a306c200eb8d681"};
  EXPECT_EQ(got, want);
}

TEST(KeyManagerTest, SignBatchMatchesSign) {
  for (const rsa::RsaKeyPair& keys : {SharedTestKeys(), SharedTestKeys1024()}) {
    SCOPED_TRACE("modulus bits=" + std::to_string(keys.pub.n.BitLength()));
    KeyManager km(keys, {});
    rsa::BlindSignatureServer server(keys.priv);
    auto check = [&](const std::vector<BigInt>& blinded) {
      std::vector<BigInt> sigs = km.SignBatch("alice", blinded);
      ASSERT_EQ(sigs.size(), blinded.size());
      for (std::size_t i = 0; i < blinded.size(); ++i) {
        EXPECT_EQ(sigs[i], server.Sign(blinded[i])) << "element " << i;
      }
    };
    for (int size : {1, 7, 8, 9, 255, 256}) {
      SCOPED_TRACE("batch size=" + std::to_string(size));
      check(RandomBlindedValues(size, 60 + static_cast<std::uint64_t>(size),
                                keys.pub.n));
    }
    // 1, N − 1, the primes and 2p (not coprime to N), alone and sharing
    // a batch with random values.
    const BigInt& p = keys.priv.p;
    std::vector<BigInt> edges = {BigInt(1), keys.pub.n - BigInt(1), p,
                                 keys.priv.q, p + p};
    for (const BigInt& e : edges) check({e});
    std::vector<BigInt> mixed = RandomBlindedValues(4, 70, keys.pub.n);
    mixed.insert(mixed.begin() + 2, edges.begin(), edges.end());
    check(mixed);
  }
}

TEST(KeyManagerTest, ParallelSignBatchMatchesPrivateApplyInOrder) {
  KeyManager km = MakeManager();
  // 67 is prime, so the signing pool's partitions are uneven.
  std::vector<BigInt> blinded = RandomBlindedValues(67, 40);
  std::vector<BigInt> sigs = km.SignBatch("alice", blinded);
  ASSERT_EQ(sigs.size(), blinded.size());
  for (std::size_t i = 0; i < blinded.size(); ++i) {
    EXPECT_EQ(sigs[i], rsa::PrivateApply(SharedTestKeys().priv, blinded[i]))
        << "element " << i;
  }
  EXPECT_EQ(km.stats().signatures, 67u);
}

TEST(KeyManagerTest, LaneGroupCountersCountPaddedLanes) {
  auto& reg = obs::Registry::Global();
  obs::Counter& groups = reg.GetCounter("oprf.server.lane_groups");
  obs::Counter& idle = reg.GetCounter("oprf.server.idle_lanes");
  KeyManager km = MakeManager();
  const std::size_t width = rsa::BlindSignatureServer(SharedTestKeys().priv).width();
  for (std::size_t size : {1u, 8u, 9u, 20u}) {
    SCOPED_TRACE("batch size=" + std::to_string(size));
    const std::uint64_t groups_before = groups.value();
    const std::uint64_t idle_before = idle.value();
    (void)km.SignBatch("alice", RandomBlindedValues(static_cast<int>(size), 43));
    const std::uint64_t expect_groups = (size + width - 1) / width;
    EXPECT_EQ(groups.value() - groups_before, expect_groups);
    EXPECT_EQ(idle.value() - idle_before, expect_groups * width - size);
  }
}

TEST(KeyManagerTest, OutOfRangeElementRejectsWholeBatch) {
  KeyManager km = MakeManager();
  std::size_t nbytes = km.public_key().ByteLength();
  (void)km.SignBatch("alice", RandomBlindedValues(3, 41));
  const KeyManager::Stats before = km.stats();

  std::vector<BigInt> blinded = RandomBlindedValues(66, 42);
  blinded.push_back(km.public_key().n);  // x = N is out of range
  Bytes response =
      km.HandleRequest(KeyManager::EncodeRequest("alice", blinded, nbytes));
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(response[0], 2);

  const KeyManager::Stats after = km.stats();
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.signatures, before.signatures);
  EXPECT_EQ(after.rejected, before.rejected);
}

TEST(KeyManagerTest, RateLimitingRejectsExcessRequests) {
  KeyManager::Options opts;
  opts.rate_limit_per_sec = 1.0;
  opts.rate_limit_burst = 10.0;
  KeyManager km = MakeManager(opts);
  DeterministicRng rng(2);
  rsa::BlindSignatureClient bc(km.public_key());

  std::vector<bigint::BigInt> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(bc.Blind(ToBytes("fp" + std::to_string(i)), rng).blinded);
  }
  (void)km.SignBatch("bob", batch);               // 8 of 10 tokens
  EXPECT_THROW(km.SignBatch("bob", batch), RateLimitedError);
  // A different client has its own bucket.
  EXPECT_NO_THROW(km.SignBatch("carol", batch));
  EXPECT_EQ(km.stats().rejected, 1u);
}

TEST(KeyManagerTest, WireProtocolRoundTrip) {
  KeyManager km = MakeManager();
  DeterministicRng rng(3);
  rsa::BlindSignatureClient bc(km.public_key());
  std::size_t nbytes = km.public_key().ByteLength();

  auto r1 = bc.Blind(ToBytes("a"), rng);
  auto r2 = bc.Blind(ToBytes("b"), rng);
  Bytes request = KeyManager::EncodeRequest("alice", {r1.blinded, r2.blinded},
                                            nbytes);
  Bytes response = km.HandleRequest(request);
  auto sigs = KeyManager::DecodeResponse(response, nbytes, 2);
  EXPECT_EQ(bc.Unblind(r1, sigs[0]).size(), 32u);
  EXPECT_EQ(bc.Unblind(r2, sigs[1]).size(), 32u);
}

TEST(KeyManagerTest, MalformedWireRequestGetsErrorStatus) {
  KeyManager km = MakeManager();
  Bytes garbage(3, 0xFF);
  Bytes response = km.HandleRequest(garbage);
  EXPECT_THROW(
      KeyManager::DecodeResponse(response, km.public_key().ByteLength(), 0),
      Error);
}

TEST(MleKeyClientTest, KeysAreDeterministicAcrossClients) {
  KeyManager km = MakeManager();
  MleKeyClient::Options opts;
  MleKeyClient c1("alice", km.public_key(), DirectChannel(km), opts);
  MleKeyClient c2("bob", km.public_key(), DirectChannel(km), opts);
  DeterministicRng rng(4);

  auto fps = MakeFingerprints(5, 5);
  auto k1 = c1.GetKeys(fps, rng);
  auto k2 = c2.GetKeys(fps, rng);
  ASSERT_EQ(k1.size(), k2.size());
  for (std::size_t i = 0; i < k1.size(); ++i) {
    // Same chunk -> same MLE key, across users.
    EXPECT_TRUE(k1[i].ConstantTimeEquals(k2[i]));
  }
  for (const auto& k : k1) EXPECT_EQ(k.size(), 32u);
}

TEST(MleKeyClientTest, CacheServesRepeatRequests) {
  KeyManager km = MakeManager();
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), {});
  DeterministicRng rng(6);

  auto fps = MakeFingerprints(10, 7);
  (void)client.GetKeys(fps, rng);
  EXPECT_EQ(client.stats().cache_misses, 10u);
  (void)client.GetKeys(fps, rng);
  EXPECT_EQ(client.stats().cache_hits, 10u);
  EXPECT_EQ(km.stats().signatures, 10u);  // no extra server work

  client.ClearCache();
  (void)client.GetKeys(fps, rng);
  EXPECT_EQ(km.stats().signatures, 20u);
}

TEST(MleKeyClientTest, DisabledCacheAlwaysFetches) {
  KeyManager km = MakeManager();
  MleKeyClient::Options opts;
  opts.enable_cache = false;
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), opts);
  DeterministicRng rng(8);
  auto fps = MakeFingerprints(4, 9);
  (void)client.GetKeys(fps, rng);
  (void)client.GetKeys(fps, rng);
  EXPECT_EQ(km.stats().signatures, 8u);
}

TEST(MleKeyClientTest, BatchingSplitsLargeRequests) {
  KeyManager km = MakeManager();
  MleKeyClient::Options opts;
  opts.batch_size = 8;
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), opts);
  DeterministicRng rng(10);
  auto fps = MakeFingerprints(20, 11);
  auto keys = client.GetKeys(fps, rng);
  EXPECT_EQ(keys.size(), 20u);
  EXPECT_EQ(client.stats().batches_sent, 3u);  // 8 + 8 + 4
  EXPECT_EQ(km.stats().batches, 3u);
}

TEST(MleKeyClientTest, MixedHitMissBatchesPreserveOrder) {
  KeyManager km = MakeManager();
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), {});
  DeterministicRng rng(12);
  auto fps = MakeFingerprints(6, 13);

  auto first = client.GetKeys({fps[0], fps[2], fps[4]}, rng);
  auto all = client.GetKeys(fps, rng);
  EXPECT_TRUE(all[0].ConstantTimeEquals(first[0]));
  EXPECT_TRUE(all[2].ConstantTimeEquals(first[1]));
  EXPECT_TRUE(all[4].ConstantTimeEquals(first[2]));
  // Distinct fingerprints map to distinct keys.
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      EXPECT_FALSE(all[i].ConstantTimeEquals(all[j]));
    }
  }
}

TEST(MleKeyClientTest, FailsOverToHealthyReplica) {
  KeyManager km = MakeManager();
  auto dead = std::make_shared<net::LocalChannel>(
      [](ByteSpan) -> Bytes { throw net::NetError("connection refused"); });
  MleKeyClient client("alice", km.public_key(),
                      {dead, DirectChannel(km)}, MleKeyClient::Options{});
  DeterministicRng rng(20);
  auto fps = MakeFingerprints(3, 21);
  auto keys = client.GetKeys(fps, rng);
  EXPECT_EQ(keys.size(), 3u);
  EXPECT_EQ(client.stats().failovers, 1u);

  // Keys from a failover path match keys from a direct path.
  MleKeyClient direct("bob", km.public_key(), DirectChannel(km),
                      MleKeyClient::Options{});
  auto direct_keys = direct.GetKeys(fps, rng);
  ASSERT_EQ(direct_keys.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(direct_keys[i].ConstantTimeEquals(keys[i]));
  }
}

TEST(MleKeyClientTest, AllReplicasDownThrows) {
  KeyManager km = MakeManager();
  auto dead = std::make_shared<net::LocalChannel>(
      [](ByteSpan) -> Bytes { throw net::NetError("down"); });
  MleKeyClient client("alice", km.public_key(), {dead, dead},
                      MleKeyClient::Options{});
  DeterministicRng rng(22);
  EXPECT_THROW(client.GetKeys(MakeFingerprints(1, 23), rng), Error);
  EXPECT_THROW(MleKeyClient("x", km.public_key(),
                            std::vector<std::shared_ptr<net::RpcChannel>>{},
                            MleKeyClient::Options{}),
               Error);
}

TEST(MleKeyClientTest, RateLimitErrorPropagates) {
  KeyManager::Options kopts;
  kopts.rate_limit_per_sec = 0.001;
  kopts.rate_limit_burst = 2.0;
  KeyManager km = MakeManager(kopts);
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), {});
  DeterministicRng rng(14);
  auto fps = MakeFingerprints(5, 15);
  EXPECT_THROW(client.GetKeys(fps, rng), Error);
}

TEST(MleKeyClientTest, RequestFramesMatchSerialBlindLoop) {
  KeyManager km = MakeManager();
  std::size_t nbytes = km.public_key().ByteLength();
  std::vector<Bytes> frames;
  auto recording = std::make_shared<net::LocalChannel>([&](ByteSpan req) {
    frames.emplace_back(req.begin(), req.end());
    return km.HandleRequest(req);
  });
  MleKeyClient::Options opts;
  opts.batch_size = 7;
  MleKeyClient client("alice", km.public_key(), recording, opts);
  auto fps = MakeFingerprints(20, 31);
  DeterministicRng rng(30);
  (void)client.GetKeys(fps, rng);

  // The same batches, blinded one by one from an identically seeded RNG.
  rsa::BlindSignatureClient bc(km.public_key());
  DeterministicRng serial_rng(30);
  std::vector<Bytes> expected;
  for (std::size_t start = 0; start < fps.size(); start += opts.batch_size) {
    std::vector<BigInt> blinded;
    for (std::size_t i = start; i < std::min(fps.size(), start + opts.batch_size); ++i) {
      blinded.push_back(bc.Blind(fps[i].AsSpan(), serial_rng).blinded);
    }
    expected.push_back(KeyManager::EncodeRequest("alice", blinded, nbytes));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames, expected);
}

TEST(MleKeyClientTest, RepeatedMissesShareOneBlindedElement) {
  KeyManager km = MakeManager();
  auto recording_client = [&km](std::vector<Bytes>& frames, bool cache) {
    MleKeyClient::Options opts;
    opts.enable_cache = cache;
    return MleKeyClient(
        "alice", km.public_key(),
        std::make_shared<net::LocalChannel>([&](ByteSpan req) {
          frames.emplace_back(req.begin(), req.end());
          return km.HandleRequest(req);
        }),
        opts);
  };
  auto distinct = MakeFingerprints(3, 50);
  const auto& a = distinct[0];
  // `a` four times, `b` twice, `c` once.
  std::vector<chunk::Fingerprint> fps = {a, distinct[1], a, a,
                                         distinct[2], distinct[1], a};

  // The distinct fingerprints alone, from an identically seeded RNG: the
  // frame a duplicate-free call sends.
  std::vector<Bytes> want_frames;
  MleKeyClient reference = recording_client(want_frames, true);
  DeterministicRng reference_rng(51);
  auto want = reference.GetKeys(distinct, reference_rng);

  for (bool cache : {true, false}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    std::vector<Bytes> frames;
    MleKeyClient client = recording_client(frames, cache);
    DeterministicRng rng(51);
    const std::uint64_t signed_before = km.stats().signatures;
    auto keys = client.GetKeys(fps, rng);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames, want_frames);
    EXPECT_EQ(km.stats().signatures - signed_before, distinct.size());
    ASSERT_EQ(keys.size(), fps.size());
    const std::size_t slot[] = {0, 1, 0, 0, 2, 1, 0};
    for (std::size_t i = 0; i < fps.size(); ++i) {
      EXPECT_TRUE(keys[i].ConstantTimeEquals(want[slot[i]])) << i;
    }
    EXPECT_EQ(client.stats().batches_sent, 1u);
  }
}

TEST(BlindSignatureClientTest, BatchInversionMatchesInverseMod) {
  const rsa::RsaKeyPair& keys = SharedTestKeys();
  rsa::BlindSignatureClient bc(keys.pub);
  DeterministicRng rng(40);
  EXPECT_TRUE(bc.InvertFactors({}).empty());
  for (std::size_t n : {1u, 2u, 7u, 256u}) {
    std::vector<BigInt> factors;
    for (std::size_t i = 0; i < n; ++i) factors.push_back(bc.DrawFactor(rng));
    auto inverses = bc.InvertFactors(factors);
    ASSERT_EQ(inverses.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(inverses[i].has_value()) << "n=" << n << " i=" << i;
      EXPECT_EQ(*inverses[i], BigInt::InverseMod(factors[i], keys.pub.n));
    }
  }
}

TEST(BlindSignatureClientTest, NonInvertibleFactorIsReportedAndOthersStillInverted) {
  const rsa::RsaKeyPair& keys = SharedTestKeys();
  rsa::BlindSignatureClient bc(keys.pub);
  DeterministicRng rng(41);
  std::vector<BigInt> factors;
  for (int i = 0; i < 6; ++i) factors.push_back(bc.DrawFactor(rng));
  factors[2] = keys.priv.p;  // shares the prime p with N
  factors[5] = keys.priv.q;
  auto inverses = bc.InvertFactors(factors);
  ASSERT_EQ(inverses.size(), factors.size());
  for (std::size_t i = 0; i < factors.size(); ++i) {
    if (i == 2 || i == 5) {
      EXPECT_FALSE(inverses[i].has_value()) << i;
    } else {
      ASSERT_TRUE(inverses[i].has_value()) << i;
      EXPECT_EQ(*inverses[i], BigInt::InverseMod(factors[i], keys.pub.n));
    }
  }
}

// Replays a DeterministicRng, except that the given draw returns the fixed
// big-endian bytes (left-padded to the requested width).
class ScriptedRng : public crypto::Rng {
 public:
  ScriptedRng(std::uint64_t seed, std::size_t draw, Bytes value)
      : inner_(seed), draw_(draw), value_(std::move(value)) {}
  void Fill(MutableByteSpan out) override {
    if (calls_++ != draw_) return inner_.Fill(out);
    std::fill(out.begin(), out.end(), 0);
    std::copy(value_.begin(), value_.end(), out.end() - value_.size());
  }

 private:
  DeterministicRng inner_;
  std::size_t draw_;
  std::size_t calls_ = 0;
  Bytes value_;
};

TEST(MleKeyClientTest, NonInvertibleFactorIsRedrawn) {
  KeyManager km = MakeManager();
  const rsa::RsaKeyPair& keys = SharedTestKeys();
  std::size_t nbytes = keys.pub.ByteLength();
  MleKeyClient::Options opts;
  opts.batch_size = 5;
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), opts);
  auto fps = MakeFingerprints(5, 42);
  // The third RNG draw yields the prime p as a factor, so the batch product
  // is not invertible; that element alone is blinded again with a fresh draw.
  ScriptedRng rng(43, 2, keys.priv.p.ToBytes());
  auto got = client.GetKeys(fps, rng);
  ASSERT_EQ(got.size(), fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) {
    BigInt s = rsa::PrivateApply(
        keys.priv, rsa::FullDomainHash(fps[i].AsSpan(), keys.pub.n));
    EXPECT_TRUE(got[i].ConstantTimeEquals(
        crypto::Sha256::HashToBytes(s.ToBytesPadded(nbytes))))
        << "key " << i;
  }
}

TEST(MleKeyClientTest, KeysAreHashOfFdhToTheD) {
  KeyManager km = MakeManager();
  const rsa::RsaKeyPair& keys = SharedTestKeys();
  std::size_t nbytes = keys.pub.ByteLength();
  auto fps = MakeFingerprints(300, 33);
  for (std::size_t batch : {1u, 7u, 256u}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch));
    MleKeyClient::Options opts;
    opts.batch_size = batch;
    MleKeyClient client("alice", km.public_key(), DirectChannel(km), opts);
    DeterministicRng rng(34);
    auto got = client.GetKeys(fps, rng);
    ASSERT_EQ(got.size(), fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      BigInt s = rsa::PrivateApply(
          keys.priv, rsa::FullDomainHash(fps[i].AsSpan(), keys.pub.n));
      EXPECT_TRUE(got[i].ConstantTimeEquals(
          crypto::Sha256::HashToBytes(s.ToBytesPadded(nbytes))))
          << "key " << i;
    }
  }
}

// The client's lane kernels: the scalar path runs on every host, the IFMA
// one where the CPU has it.
class ClientKernelTest : public ::testing::TestWithParam<bigint::LaneKernel> {
 protected:
  void SetUp() override {
    if (!bigint::SupportsLaneKernel(GetParam())) {
      GTEST_SKIP() << "this CPU has no " << bigint::LaneKernelName(GetParam())
                   << " lane kernel; that path was not run";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(EveryPath, ClientKernelTest,
                         ::testing::Values(bigint::LaneKernel::kScalar,
                                           bigint::LaneKernel::kIfma8),
                         [](const auto& param_info) {
                           return std::string(bigint::LaneKernelName(param_info.param));
                         });

// A key manager that lies once: the client's s^e == h check is its only
// defense, so a single flipped bit in one signature must fail the whole
// GetKeys call and leave no key of that batch in the cache.
TEST_P(ClientKernelTest, FlippedSignatureBitFailsTheBatchAndCachesNothing) {
  // Two batches of 13: the second one is corrupted. 13 is one full lane
  // group of eight and a partial one of five, so the positions are the
  // first and last slot of the full group and the first and last slot of
  // the partial one.
  constexpr std::size_t kBatch = 13;
  for (const rsa::RsaKeyPair& keys : {SharedTestKeys(), SharedTestKeys1024()}) {
    SCOPED_TRACE("modulus bits=" + std::to_string(keys.pub.n.BitLength()));
    KeyManager km(keys, {});
    const std::size_t nbytes = keys.pub.ByteLength();
    for (std::size_t position : {std::size_t{0}, std::size_t{7}, std::size_t{8},
                                 kBatch - 1}) {
      SCOPED_TRACE("bad signature at " + std::to_string(position));
      std::size_t calls = 0;
      bool lie = true;
      auto lying = std::make_shared<net::LocalChannel>([&](ByteSpan req) {
        Bytes response = km.HandleRequest(req);
        // Status byte, then one padded signature per element: flip the low
        // bit of the chosen signature in the second batch.
        if (lie && calls++ == 1) response[1 + position * nbytes + nbytes - 1] ^= 1;
        return response;
      });
      MleKeyClient::Options opts;
      opts.batch_size = kBatch;
      MleKeyClient client("alice", rsa::BlindSignatureClient(keys.pub, GetParam()),
                          {lying}, opts);
      auto fps = MakeFingerprints(2 * kBatch, 80 + position);
      DeterministicRng rng(81);
      EXPECT_THROW((void)client.GetKeys(fps, rng), Error);

      // The honest retry finds the first batch's keys in the cache and
      // none of the second's.
      lie = false;
      auto got = client.GetKeys(fps, rng);
      EXPECT_EQ(client.stats().cache_hits, kBatch);
      EXPECT_EQ(client.stats().cache_misses, 3 * kBatch);
      ASSERT_EQ(got.size(), fps.size());
      for (std::size_t i = 0; i < fps.size(); ++i) {
        BigInt s = rsa::PrivateApply(
            keys.priv, rsa::FullDomainHash(fps[i].AsSpan(), keys.pub.n));
        EXPECT_TRUE(got[i].ConstantTimeEquals(
            crypto::Sha256::HashToBytes(s.ToBytesPadded(nbytes))))
            << "key " << i;
      }
    }
  }
}

// BlindBatch and UnblindBatch on the kernel under test against the scalar
// oracles BlindWithInverse and Unblind, chunk by chunk.
TEST_P(ClientKernelTest, LaneBatchesMatchScalarBlindAndUnblind) {
  for (const rsa::RsaKeyPair& keys : {SharedTestKeys(), SharedTestKeys1024()}) {
    SCOPED_TRACE("modulus bits=" + std::to_string(keys.pub.n.BitLength()));
    rsa::BlindSignatureClient lanes(keys.pub, GetParam());
    rsa::BlindSignatureServer server(keys.priv);
    EXPECT_EQ(lanes.kernel(), GetParam());
    for (std::size_t size : {1u, 7u, 8u, 9u, 256u}) {
      SCOPED_TRACE("batch size=" + std::to_string(size));
      DeterministicRng rng(90 + size);
      auto fps = MakeFingerprints(static_cast<int>(size), 91 + size);
      std::vector<ByteSpan> spans;
      std::vector<BigInt> factors;
      for (const auto& fp : fps) {
        spans.push_back(fp.AsSpan());
        factors.push_back(lanes.DrawFactor(rng));
      }
      // The factors 1 and N − 1 (so x = h and x = N − h), in the first
      // lane group.
      factors[0] = BigInt(1);
      if (size > 1) factors[size - 2] = keys.pub.n - BigInt(1);
      std::vector<std::optional<BigInt>> inverses = lanes.InvertFactors(factors);
      std::vector<rsa::BlindedRequest> requests(size);
      lanes.BlindBatch(spans, factors, requests);

      std::vector<BigInt> sigs;
      for (std::size_t i = 0; i < size; ++i) {
        ASSERT_TRUE(inverses[i].has_value()) << i;
        rsa::BlindedRequest want = lanes.BlindWithInverse(spans[i], factors[i], *inverses[i]);
        EXPECT_EQ(requests[i].blinded, want.blinded) << "chunk " << i;
        EXPECT_EQ(requests[i].h, want.h) << "chunk " << i;
        requests[i].r_inv = *inverses[i];
        sigs.push_back(server.Sign(requests[i].blinded));
      }
      std::vector<Secret> batch_keys(size);
      lanes.UnblindBatch(requests, sigs, batch_keys);
      for (std::size_t i = 0; i < size; ++i) {
        EXPECT_TRUE(batch_keys[i].ConstantTimeEquals(lanes.Unblind(requests[i], sigs[i])))
            << "chunk " << i;
      }
    }
    // The signatures 1 and N − 1 verify only against h = 1 and h = N − 1;
    // an r_inv of 1 makes s the signature itself.
    std::vector<rsa::BlindedRequest> edges(2);
    edges[0] = {BigInt(1), BigInt(1), BigInt(1)};
    edges[1] = {keys.pub.n - BigInt(1), BigInt(1), keys.pub.n - BigInt(1)};
    std::vector<BigInt> edge_sigs = {BigInt(1), keys.pub.n - BigInt(1)};
    std::vector<Secret> edge_keys(2);
    lanes.UnblindBatch(edges, edge_sigs, edge_keys);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(edge_keys[i].ConstantTimeEquals(lanes.Unblind(edges[i], edge_sigs[i])));
    }
    // A mismatched h fails the batch, as it fails Unblind.
    edges[1].h = BigInt(2);
    EXPECT_THROW(lanes.UnblindBatch(edges, edge_sigs, edge_keys), Error);
    EXPECT_THROW((void)lanes.Unblind(edges[1], edge_sigs[1]), Error);
  }
}

// GetKeys on the kernel under test: the keys and the request frames are
// those of the detected kernel's client.
TEST_P(ClientKernelTest, GetKeysMatchesDetectedKernelByteForByte) {
  for (const rsa::RsaKeyPair& keys : {SharedTestKeys(), SharedTestKeys1024()}) {
    SCOPED_TRACE("modulus bits=" + std::to_string(keys.pub.n.BitLength()));
    KeyManager km(keys, {});
    auto run = [&](rsa::BlindSignatureClient blind_client,
                   std::vector<Bytes>& frames) {
      MleKeyClient::Options opts;
      opts.batch_size = 21;  // two full lane groups and a partial one
      MleKeyClient client("alice", std::move(blind_client),
                          {std::make_shared<net::LocalChannel>([&](ByteSpan req) {
                            frames.emplace_back(req.begin(), req.end());
                            return km.HandleRequest(req);
                          })},
                          opts);
      DeterministicRng rng(95);
      return client.GetKeys(MakeFingerprints(50, 96), rng);
    };
    std::vector<Bytes> want_frames, got_frames;
    auto want = run(rsa::BlindSignatureClient(keys.pub), want_frames);
    auto got = run(rsa::BlindSignatureClient(keys.pub, GetParam()), got_frames);
    EXPECT_EQ(got_frames, want_frames);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].ConstantTimeEquals(want[i])) << "key " << i;
    }
  }
}

TEST(MleKeyClientTest, OprfTimersRecordOncePerBatch) {
  auto& reg = obs::Registry::Global();
  const char* kClientTimers[] = {"oprf.client.blind_us",
                                 "oprf.client.roundtrip_us",
                                 "oprf.client.unblind_us"};
  std::vector<std::uint64_t> before;
  for (const char* name : kClientTimers) {
    before.push_back(reg.GetHistogram(name).count());
  }
  std::uint64_t sign_before = reg.GetHistogram("oprf.server.sign_us").count();

  KeyManager km = MakeManager();
  MleKeyClient::Options opts;
  opts.batch_size = 8;
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), opts);
  DeterministicRng rng(35);
  auto fps = MakeFingerprints(20, 36);
  (void)client.GetKeys(fps, rng);
  (void)client.GetKeys(fps, rng);  // all cache hits: no batch, no sample
  ASSERT_EQ(client.stats().batches_sent, 3u);

  for (std::size_t t = 0; t < before.size(); ++t) {
    EXPECT_EQ(reg.GetHistogram(kClientTimers[t]).count() - before[t],
              client.stats().batches_sent)
        << kClientTimers[t];
  }
  EXPECT_EQ(reg.GetHistogram("oprf.server.sign_us").count() - sign_before,
            km.stats().batches);
}

}  // namespace
}  // namespace reed::keymanager
