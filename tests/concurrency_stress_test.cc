// Concurrency stress tests, written to run under ThreadSanitizer.
//
// These tests exist to give TSan (and ASan) interleavings to chew on:
// every shared component that the multi-threaded client/server paths use —
// ThreadPool, LruCache, TokenBucket, AsyncServer, the key manager's signing
// pool, the MLE key client's blinding pool and CP-ABE's memo of fixed-base
// tables — is hammered from many
// threads at once. Under TSan everything runs 5-15x slower, so iteration
// counts scale down when REED_TSAN is defined (set by the build when
// REED_SANITIZE=thread).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "abe/cpabe.h"
#include "crypto/random.h"
#include "keymanager/key_manager.h"
#include "keymanager/mle_key_client.h"
#include "net/async_server.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "rsa/blind_signature.h"
#include "obs/metrics.h"
#include "util/lru_cache.h"
#include "util/rate_limiter.h"
#include "util/thread_pool.h"
#include "util/bytes.h"

namespace reed {
namespace {

#ifdef REED_TSAN
constexpr int kScale = 1;
#else
constexpr int kScale = 8;
#endif

TEST(CpAbeStress, ColdTablesFromFourThreads) {
  // Four threads encrypt through one CpAbe whose attribute memo and table
  // budget are empty, so they race to hash, build and admit the same bases.
  // Each ciphertext must equal the one a serial instance gives for its seed.
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  abe::CpAbe serial(pairing);
  crypto::DeterministicRng setup_rng(1);
  abe::CpAbe::SetupResult keys = serial.Setup(setup_rng);
  std::vector<std::string> users;
  for (int i = 0; i < 12; ++i) users.push_back("u" + std::to_string(i));
  const abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);
  const Secret plaintext(Bytes(48, 0x5a));

  abe::CpAbe cold(pairing);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2;
  std::vector<std::vector<Bytes>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        crypto::DeterministicRng rng(100 + 10 * t + i);
        got[t].push_back(Declassify(
            cold.EncryptBytes(keys.pk, policy, plaintext, rng),
            "test: ABE ciphertext compared across instances"));
      }
    });
  }
  for (auto& th : threads) th.join();

  crypto::DeterministicRng key_rng(2);
  abe::PrivateKey sk = cold.KeyGen(keys.pk, keys.mk, {"user:u7"}, key_rng);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      crypto::DeterministicRng rng(100 + 10 * t + i);
      Bytes want = Declassify(serial.EncryptBytes(keys.pk, policy, plaintext, rng),
                              "test: ABE ciphertext compared across instances");
      EXPECT_EQ(got[t][i], want) << t << "/" << i;
      EXPECT_TRUE(cold.DecryptBytes(sk, got[t][i]).ConstantTimeEquals(plaintext));
    }
  }
}

TEST(CpAbeStress, FourThreadsDecryptWithOnePreparedKey) {
  // The key's Miller lines are shared, read-only, by every decrypt: four
  // threads decrypting with one key must each recover their plaintexts.
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  abe::CpAbe cpabe(pairing);
  crypto::DeterministicRng rng(3);
  abe::CpAbe::SetupResult keys = cpabe.Setup(rng);
  const abe::PolicyNode policy =
      abe::PolicyNode::OrOfUsers({"u1", "u2", "u3", "u4", "u5"});
  const abe::PrivateKey sk = cpabe.KeyGen(keys.pk, keys.mk, {"user:u4"}, rng);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<Secret> plaintexts;
  std::vector<Bytes> blobs;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    plaintexts.emplace_back(Bytes(40, static_cast<std::uint8_t>(i)));
    blobs.push_back(Declassify(cpabe.EncryptBytes(keys.pk, policy,
                                                  plaintexts.back(), rng),
                               "test: ABE ciphertext decrypted concurrently"));
  }
  std::atomic<int> recovered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t k = static_cast<std::size_t>(t * kPerThread + i);
        if (cpabe.DecryptBytes(sk, blobs[k]).ConstantTimeEquals(plaintexts[k])) {
          recovered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(recovered.load(), kThreads * kPerThread);
}

TEST(ThreadPoolStress, ConcurrentSubmitFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  const int kProducers = 8;
  const int kTasksPerProducer = 200 * kScale;

  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<void>>> futures(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futures[static_cast<std::size_t>(p)].reserve(
          static_cast<std::size_t>(kTasksPerProducer));
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures[static_cast<std::size_t>(p)].push_back(
            pool.Submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); }));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kProducers) *
                            static_cast<std::uint64_t>(kTasksPerProducer));
}

TEST(ThreadPoolStress, ConcurrentParallelForCallers) {
  // Multiple threads issuing ParallelFor against the same pool, the way
  // several client uploads could share one chunk-encryption pool.
  ThreadPool pool(4);
  const int kCallers = 4;
  const std::size_t kCount = 512 * static_cast<std::size_t>(kScale);

  std::vector<std::thread> callers;
  std::vector<std::atomic<std::uint64_t>> totals(kCallers);
  for (auto& t : totals) t.store(0);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      auto& total = totals[static_cast<std::size_t>(c)];
      pool.ParallelFor(kCount, [&total](std::size_t i) {
        total.fetch_add(i + 1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  const std::uint64_t expected = kCount * (kCount + 1) / 2;
  for (auto& t : totals) EXPECT_EQ(t.load(), expected);
}

TEST(ThreadPoolStress, ParallelForExceptionUnderContention) {
  ThreadPool pool(4);
  for (int round = 0; round < 4 * kScale; ++round) {
    EXPECT_THROW(
        pool.ParallelFor(256, [](std::size_t i) {
          if (i == 97) throw std::runtime_error("injected");
        }),
        std::runtime_error);
    // The pool must still be usable after a failed batch.
    std::atomic<int> ok{0};
    pool.ParallelFor(64, [&ok](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 64);
  }
}

TEST(LruCacheStress, MixedGetPutClearAcrossThreads) {
  // Small budget so evictions happen constantly while readers race them.
  LruCache<std::uint64_t, std::string> cache(/*byte_budget=*/64 * 32,
                                             /*entry_cost=*/32);
  const int kThreads = 8;
  const int kOpsPerThread = 2000 * kScale;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::uint64_t key = static_cast<std::uint64_t>((t * 31 + i) % 97);
        switch (i % 4) {
          case 0:
            cache.Put(key, "value-" + std::to_string(key));
            break;
          case 1: {
            auto v = cache.Get(key);
            if (v) {
              EXPECT_EQ(*v, "value-" + std::to_string(key));
            }
            break;
          }
          case 2:
            (void)cache.stats();
            (void)cache.used_bytes();
            break;
          default:
            if (i % 512 == 3) cache.Clear();
            (void)cache.size();
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) *
                static_cast<std::uint64_t>(kOpsPerThread / 4));
}

TEST(RateLimiterStress, ConcurrentAcquireNeverOverAdmits) {
  // Fixed clock: no refill happens, so total admissions across all threads
  // must not exceed the burst no matter how requests interleave.
  const double kBurst = 100.0;
  TokenBucket bucket(/*rate_per_sec=*/1.0, kBurst);
  std::atomic<int> admitted{0};
  const int kThreads = 8;
  const int kAttempts = 500 * kScale;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttempts; ++i) {
        if (bucket.TryAcquire(/*now_seconds=*/1.0)) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
        (void)bucket.DelayUntilAvailable(/*now_seconds=*/1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(admitted.load(), static_cast<int>(kBurst));
  EXPECT_LT(bucket.tokens(), 1.0);
}

TEST(OprfStress, ClientsShareOneKeyManager) {
  // Each thread owns its MleKeyClient (a client serves one caller), and all
  // of them fan blinding out to their own pools while the shared key
  // manager signs their batches on its pool. One client id for all, so the
  // threads also race on a single rate-limit bucket.
  crypto::DeterministicRng key_rng(77);
  keymanager::KeyManager::Options kopts;
  kopts.rsa_bits = 512;
  kopts.rate_limit_per_sec = 1e6;
  kopts.rate_limit_burst = 1e6;
  keymanager::KeyManager km(kopts, key_rng);
  auto channel = std::make_shared<net::LocalChannel>(
      [&km](ByteSpan req) { return km.HandleRequest(req); });

  const int kThreads = 4;
  const int kFingerprints = 24 * kScale;
  std::vector<chunk::Fingerprint> fps;
  crypto::DeterministicRng fp_rng(78);
  for (int i = 0; i < kFingerprints; ++i) {
    fps.push_back(chunk::Fingerprint::Of(fp_rng.Generate(64)));
  }

  std::vector<std::vector<Secret>> keys(kThreads);
  std::vector<std::uint64_t> misses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      keymanager::MleKeyClient::Options opts;
      opts.batch_size = 5;  // several uneven batches per call
      keymanager::MleKeyClient client("shared", km.public_key(), channel,
                                      opts);
      crypto::DeterministicRng rng(100 + static_cast<std::uint64_t>(t));
      keys[t] = client.GetKeys(fps, rng);
      (void)client.GetKeys(fps, rng);  // served from the cache
      misses[t] = client.stats().cache_misses;
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t total_misses = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_misses += misses[t];
    ASSERT_EQ(keys[t].size(), fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      EXPECT_TRUE(keys[t][i].ConstantTimeEquals(keys[0][i]))
          << "thread " << t << " key " << i;
    }
  }
  EXPECT_EQ(total_misses, static_cast<std::uint64_t>(kThreads) * fps.size());
  EXPECT_EQ(km.stats().signatures, total_misses);
  EXPECT_EQ(km.stats().rejected, 0u);
}

TEST(OprfStress, FourThreadsSignBatchOnOneKeyManager) {
  // Four callers share one manager's signing pool. Their batches are cut
  // into lane groups (short ones padded) that the pool runs interleaved;
  // every signature must equal the scalar CRT signature of its element.
  crypto::DeterministicRng key_rng(79);
  rsa::RsaKeyPair keys = rsa::GenerateKeyPair(512, key_rng);
  keymanager::KeyManager km(keys, {});
  rsa::BlindSignatureServer scalar(keys.priv);

  const int kThreads = 4;
  const std::size_t kBatch = static_cast<std::size_t>(13 * kScale);
  std::vector<std::vector<bigint::BigInt>> blinded(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    crypto::DeterministicRng rng(200 + static_cast<std::uint64_t>(t));
    while (blinded[t].size() < kBatch + static_cast<std::size_t>(t)) {
      bigint::BigInt v = bigint::BigInt::Random(rng, km.public_key().n);
      if (!v.IsZero()) blinded[t].push_back(std::move(v));
    }
  }
  std::vector<std::vector<bigint::BigInt>> sigs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        sigs[t] = km.SignBatch("client-" + std::to_string(t), blinded[t]);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(sigs[t].size(), blinded[t].size());
    for (std::size_t i = 0; i < blinded[t].size(); ++i) {
      EXPECT_EQ(sigs[t][i], scalar.Sign(blinded[t][i]))
          << "thread " << t << " element " << i;
    }
    total += 2 * blinded[t].size();
  }
  EXPECT_EQ(km.stats().signatures, total);
  EXPECT_EQ(km.stats().batches, 2u * kThreads);
}

Bytes EchoRequest(int client, int seq) {
  std::string s = "client-" + std::to_string(client) + "-req-" +
                  std::to_string(seq);
  return Bytes(s.begin(), s.end());
}

TEST(AsyncServerStress, ManyConcurrentClients) {
  std::atomic<std::uint64_t> served{0};
  net::AsyncServer server(0, [&served](ByteSpan req) {
    served.fetch_add(1, std::memory_order_relaxed);
    return Bytes(req.begin(), req.end());  // echo
  });

  const int kClients = 8;
  const int kRequests = 50 * kScale;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        auto conn = net::TcpTransport::Connect("127.0.0.1", server.port());
        for (int i = 0; i < kRequests; ++i) {
          Bytes req = EchoRequest(c, i);
          conn.Send(req);
          Bytes resp = conn.Receive();
          if (resp != req) failures.fetch_add(1);
        }
      } catch (const net::NetError&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(served.load(), static_cast<std::uint64_t>(kClients) *
                               static_cast<std::uint64_t>(kRequests));
}

TEST(AsyncServerStress, DestructionWithLiveConnections) {
  // Clients connect, make one call, then sit blocked in Receive() while the
  // server is destroyed. The destructor must close every live connection
  // (each blocked client sees EOF) and join its loops and workers before the
  // handler goes away.
  for (int round = 0; round < 3 * kScale; ++round) {
    std::vector<std::thread> clients;
    std::atomic<int> disconnected{0};
    {
      auto server = std::make_unique<net::AsyncServer>(0, [](ByteSpan req) {
        return Bytes(req.begin(), req.end());
      });
      std::atomic<int> ready{0};
      const int kClients = 4;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, port = server->port()] {
          try {
            auto conn = net::TcpTransport::Connect("127.0.0.1", port);
            Bytes req{1, 2, 3};
            conn.Send(req);
            (void)conn.Receive();
            ready.fetch_add(1);
            (void)conn.Receive();  // blocks until the server dies
          } catch (const net::NetError&) {
          }
          disconnected.fetch_add(1);
        });
      }
      while (ready.load() < kClients) std::this_thread::yield();
      server.reset();  // must close every connection and join every thread
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(disconnected.load(), 4);
  }
}

TEST(AsyncServerStress, ChurningClientsWhileServing) {
  // Connection churn: short-lived clients connecting/disconnecting while
  // others are mid-conversation exercises accept sharding across loops and
  // connection teardown on EOF.
  obs::Gauge& active =
      obs::Registry::Global().GetGauge("server.net.active_conns");
  const std::int64_t active_before = active.value();
  net::AsyncServer::Options options;
  options.loops = 2;
  net::AsyncServer server(
      0, [](ByteSpan req) { return Bytes(req.begin(), req.end()); }, options);
  const int kChurners = 6;
  const int kConnectsEach = 20 * kScale;
  std::atomic<int> failures{0};
  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&, c] {
      for (int i = 0; i < kConnectsEach; ++i) {
        try {
          auto conn = net::TcpTransport::Connect("127.0.0.1", server.port());
          Bytes req = EchoRequest(c, i);
          conn.Send(req);
          if (conn.Receive() != req) failures.fetch_add(1);
        } catch (const net::NetError&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : churners) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every churned connection is closed on the server side once its client
  // hangs up; the loops see the EOFs asynchronously, so poll briefly.
  for (int i = 0; i < 500 && active.value() != active_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(active.value(), active_before);
}

}  // namespace
}  // namespace reed
