// Key-manager + MLE key client tests: OPRF batching, wire protocol, rate
// limiting, and key-cache behaviour.
#include <gtest/gtest.h>

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

std::vector<BigInt> RandomBlindedValues(int n, std::uint64_t seed) {
  DeterministicRng rng(seed);
  std::vector<BigInt> values;
  while (values.size() < static_cast<std::size_t>(n)) {
    BigInt v = BigInt::Random(rng, SharedTestKeys().pub.n);
    if (!v.IsZero()) values.push_back(std::move(v));
  }
  return values;
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
