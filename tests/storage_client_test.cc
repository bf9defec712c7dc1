// StorageClient tests: the concurrent per-server fan-out, the striped
// channel pool, and the fetch-path integrity gate (DESIGN.md §10). Servers
// live in-process behind LocalChannels; the corrupting fake sits between
// client and server to model a tampering (or simply buggy) cloud.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "client/storage_client.h"
#include "crypto/random.h"
#include "net/rpc.h"
#include "server/storage_server.h"

namespace reed {
namespace {

using crypto::DeterministicRng;

std::shared_ptr<net::RpcChannel> ChannelTo(server::StorageServer* srv) {
  return std::make_shared<net::LocalChannel>(
      [srv](ByteSpan req) { return srv->HandleRequest(req); });
}

// Forwards to a real server but flips one byte near the end of every
// successful kGetChunks response — i.e. inside the last returned package's
// payload. Uploads and object traffic pass through untouched.
class CorruptingChannel : public net::RpcChannel {
 public:
  explicit CorruptingChannel(server::StorageServer* srv) : srv_(srv) {}

  [[nodiscard]] Bytes Call(ByteSpan request) override {
    Bytes response = srv_->HandleRequest(request);
    bool is_get_chunks =
        !request.empty() &&
        request[0] == static_cast<std::uint8_t>(server::Opcode::kGetChunks);
    bool ok = !response.empty() && response[0] == 0;
    if (is_get_chunks && ok && response.size() > 1) {
      response.back() ^= 0x01;
      ++corrupted_;
    }
    return response;
  }

  int corrupted() const { return corrupted_.load(); }

 private:
  server::StorageServer* srv_;
  std::atomic<int> corrupted_{0};
};

// Forwards to a real server but swaps the first two fingerprints of every
// kGetChunks request, so the server answers with two packages out of the
// order the client asked for, as a server with an ordering bug would.
class SwappingChannel : public net::RpcChannel {
 public:
  explicit SwappingChannel(server::StorageServer* srv) : srv_(srv) {}

  [[nodiscard]] Bytes Call(ByteSpan request) override {
    constexpr std::size_t kHeader = 1 + 4;
    constexpr std::size_t kFp = chunk::Fingerprint::kSize;
    Bytes req(request.begin(), request.end());
    bool is_get_chunks =
        !req.empty() &&
        req[0] == static_cast<std::uint8_t>(server::Opcode::kGetChunks);
    if (is_get_chunks && req.size() >= kHeader + 2 * kFp) {
      std::swap_ranges(req.begin() + kHeader, req.begin() + kHeader + kFp,
                       req.begin() + kHeader + kFp);
    }
    return srv_->HandleRequest(req);
  }

 private:
  server::StorageServer* srv_;
};

// Counts calls, then forwards; used to observe stripe round-robin.
class CountingChannel : public net::RpcChannel {
 public:
  CountingChannel(std::shared_ptr<net::RpcChannel> inner,
                  std::atomic<int>* calls)
      : inner_(std::move(inner)), calls_(calls) {}

  [[nodiscard]] Bytes Call(ByteSpan request) override {
    calls_->fetch_add(1);
    return inner_->Call(request);
  }

 private:
  std::shared_ptr<net::RpcChannel> inner_;
  std::atomic<int>* calls_;
};

std::vector<std::pair<chunk::Fingerprint, Bytes>> MakeChunks(int n,
                                                             std::uint64_t seed,
                                                             std::size_t size) {
  DeterministicRng rng(seed);
  std::vector<std::pair<chunk::Fingerprint, Bytes>> chunks;
  chunks.reserve(n);
  for (int i = 0; i < n; ++i) {
    Bytes data = rng.Generate(size);
    chunks.emplace_back(chunk::Fingerprint::Of(data), data);
  }
  return chunks;
}

// Runs a fetch that must fail the fingerprint gate, with the gate's error
// (not a parse or decode error).
void ExpectIntegrityFailure(client::StorageClient& client,
                            const std::vector<chunk::Fingerprint>& fps) {
  try {
    (void)client.GetChunks(fps);
    ADD_FAILURE() << "GetChunks accepted a batch that fails the gate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk integrity check failed"),
              std::string::npos)
        << e.what();
  }
}

TEST(StorageClientIntegrityTest, TamperedFetchThrows) {
  auto srv = std::make_unique<server::StorageServer>("honest-until-read");
  auto key = std::make_unique<server::StorageServer>("key");
  auto corrupting = std::make_shared<CorruptingChannel>(srv.get());
  client::StorageClient client({corrupting}, ChannelTo(key.get()));

  auto chunks = MakeChunks(8, 11, 256);
  std::vector<chunk::Fingerprint> fps;
  for (const auto& [fp, data] : chunks) fps.push_back(fp);
  auto stats = client.PutChunks(chunks);
  EXPECT_EQ(stats.stored, 8u);

  // The server stored the true bytes; the wire corrupts them on the way
  // back, so the client-side fingerprint check must refuse the batch.
  ExpectIntegrityFailure(client, fps);
  EXPECT_GT(corrupting->corrupted(), 0);
}

TEST(StorageClientIntegrityTest, SwappedOrderFetchThrows) {
  auto srv = std::make_unique<server::StorageServer>("swaps-order");
  auto key = std::make_unique<server::StorageServer>("key");
  client::StorageClient client({std::make_shared<SwappingChannel>(srv.get())},
                               ChannelTo(key.get()));

  // Equal sizes, so the swapped response parses cleanly and only the
  // fingerprint gate can tell.
  auto chunks = MakeChunks(20, 14, 512);
  std::vector<chunk::Fingerprint> fps;
  for (const auto& [fp, data] : chunks) fps.push_back(fp);
  EXPECT_EQ(client.PutChunks(chunks).stored, 20u);
  ExpectIntegrityFailure(client, fps);
}

TEST(StorageClientIntegrityTest, HonestFetchPassesTheGate) {
  auto srv = std::make_unique<server::StorageServer>("honest");
  auto key = std::make_unique<server::StorageServer>("key");
  client::StorageClient client({ChannelTo(srv.get())}, ChannelTo(key.get()));

  auto chunks = MakeChunks(32, 12, 300);
  std::vector<chunk::Fingerprint> fps;
  for (const auto& [fp, data] : chunks) fps.push_back(fp);
  (void)client.PutChunks(chunks);
  auto fetched = client.GetChunks(fps);
  ASSERT_EQ(fetched.chunks.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ByteSpan got = fetched.chunks[i];
    EXPECT_EQ(Bytes(got.begin(), got.end()), chunks[i].second);
  }
}

class StripedClientTest : public ::testing::Test {
 protected:
  static constexpr int kServers = 4;
  static constexpr int kStripes = 3;

  StripedClientTest() : stripe_calls_(kServers * kStripes) {
    key_server_ = std::make_unique<server::StorageServer>("key");
    std::vector<std::vector<std::shared_ptr<net::RpcChannel>>> striped;
    for (int s = 0; s < kServers; ++s) {
      servers_.push_back(
          std::make_unique<server::StorageServer>("s" + std::to_string(s)));
      std::vector<std::shared_ptr<net::RpcChannel>> stripes;
      for (int c = 0; c < kStripes; ++c) {
        stripes.push_back(std::make_shared<CountingChannel>(
            ChannelTo(servers_.back().get()),
            &stripe_calls_[s * kStripes + c]));
      }
      striped.push_back(std::move(stripes));
    }
    client_ = std::make_unique<client::StorageClient>(
        std::move(striped), ChannelTo(key_server_.get()));
  }

  std::vector<std::unique_ptr<server::StorageServer>> servers_;
  std::unique_ptr<server::StorageServer> key_server_;
  std::vector<std::atomic<int>> stripe_calls_;
  std::unique_ptr<client::StorageClient> client_;
};

TEST_F(StripedClientTest, RoundTripAndStripeRotation) {
  auto chunks = MakeChunks(64, 13, 200);
  std::vector<chunk::Fingerprint> fps;
  for (const auto& [fp, data] : chunks) fps.push_back(fp);

  // Several batches so the round-robin cursor sweeps the stripes.
  for (int rep = 0; rep < kStripes * 2; ++rep) {
    auto stats = client_->PutChunks(chunks);
    if (rep == 0) {
      EXPECT_EQ(stats.stored, 64u);
    } else {
      EXPECT_EQ(stats.duplicates, 64u);
    }
  }
  auto fetched = client_->GetChunks(fps);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ByteSpan got = fetched.chunks[i];
    EXPECT_EQ(Bytes(got.begin(), got.end()), chunks[i].second);
  }

  // Every server was reached through more than one of its stripes.
  for (int s = 0; s < kServers; ++s) {
    int used = 0;
    for (int c = 0; c < kStripes; ++c) {
      if (stripe_calls_[s * kStripes + c].load() > 0) ++used;
    }
    EXPECT_GE(used, 2) << "server " << s;
  }
}

TEST_F(StripedClientTest, ConcurrentBatchesAggregateCorrectly) {
  // Distinct chunk sets per thread; totals must add up exactly regardless
  // of how the fan-out interleaves.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> stored{0}, dup{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto chunks = MakeChunks(kPerThread, 100 + t, 150);
      auto first = client_->PutChunks(chunks);
      auto second = client_->PutChunks(chunks);
      stored += first.stored + second.stored;
      dup += first.duplicates + second.duplicates;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stored.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(dup.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(StorageClientCtorTest, RejectsBadConfigurations) {
  auto key = std::make_unique<server::StorageServer>("key");
  auto key_ch = ChannelTo(key.get());
  EXPECT_THROW(client::StorageClient(
                   std::vector<std::shared_ptr<net::RpcChannel>>{}, key_ch),
               Error);
  auto srv = std::make_unique<server::StorageServer>("s");
  EXPECT_THROW(client::StorageClient({ChannelTo(srv.get())}, nullptr), Error);
  // Striped form: a server with zero channels is a config bug.
  std::vector<std::vector<std::shared_ptr<net::RpcChannel>>> striped;
  striped.push_back({});
  EXPECT_THROW(client::StorageClient(std::move(striped), key_ch), Error);
}

}  // namespace
}  // namespace reed
