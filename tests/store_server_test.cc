// Storage substrate + server tests: container packing, dedup index,
// object stores, recipes/key-state records, the full server wire protocol,
// and client-side sharding.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/storage_client.h"
#include "crypto/random.h"
#include "server/storage_server.h"
#include "store/recipe.h"
#include "test_dirs.h"

namespace reed {
namespace {

using crypto::DeterministicRng;
using testing::ScratchEngine;

// --------------------------- container store ---------------------------

TEST(ContainerStoreTest, AppendReadRoundTrip) {
  ScratchEngine fx(1024);
  store::ContainerStore& cs = fx.engine.containers();
  DeterministicRng rng(1);
  std::vector<std::pair<store::ChunkLocation, Bytes>> stored;
  for (int i = 0; i < 20; ++i) {
    Bytes data = rng.Generate(100 + i * 10);
    stored.emplace_back(cs.Append(data), data);
  }
  for (const auto& [loc, data] : stored) {
    EXPECT_EQ(cs.Read(loc), data);
  }
}

TEST(ContainerStoreTest, OpensNewContainerWhenFull) {
  ScratchEngine fx(1000);
  store::ContainerStore& cs = fx.engine.containers();
  DiscardResult(cs.Append(Bytes(600, 1)));
  EXPECT_EQ(cs.stats().containers, 1u);
  DiscardResult(cs.Append(Bytes(600, 2)));  // doesn't fit; new container
  EXPECT_EQ(cs.stats().containers, 2u);
  // Oversized chunk still stored (own container).
  auto loc = cs.Append(Bytes(5000, 3));
  EXPECT_EQ(cs.Read(loc).size(), 5000u);
}

TEST(ContainerStoreTest, InvalidReadsThrow) {
  ScratchEngine fx;
  store::ContainerStore& cs = fx.engine.containers();
  auto loc = cs.Append(Bytes(10, 1));
  store::ChunkLocation bad = loc;
  bad.container_id = 99;
  EXPECT_THROW(cs.Read(bad), Error);
  bad = loc;
  bad.length = 1000;
  EXPECT_THROW(cs.Read(bad), Error);
  EXPECT_THROW(DiscardResult(cs.Append({})), Error);
}

// --------------------------- index / object store ---------------------------

TEST(FingerprintIndexTest, InsertLookup) {
  ScratchEngine fx;
  store::FingerprintIndex& index = fx.engine.index();
  auto fp = chunk::Fingerprint::Of(ToBytes("chunk"));
  EXPECT_FALSE(index.Lookup(fp).has_value());
  EXPECT_TRUE(index.Insert(fp, {1, 2, 3}));
  EXPECT_FALSE(index.Insert(fp, {4, 5, 6}));  // duplicate rejected
  auto loc = index.Lookup(fp);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->container_id, 1u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(ObjectStoreTest, PutGetEraseAccounting) {
  ScratchEngine fx;
  store::ObjectStore& os = fx.engine.data_objects();
  os.Put("a", Bytes(100, 1));
  os.Put("b", Bytes(50, 2));
  EXPECT_EQ(os.total_bytes(), 150u);
  os.Put("a", Bytes(10, 3));  // overwrite shrinks accounting
  EXPECT_EQ(os.total_bytes(), 60u);
  EXPECT_EQ(os.Get("a"), Bytes(10, 3));
  EXPECT_TRUE(os.Contains("b"));
  EXPECT_TRUE(os.Erase("b"));
  EXPECT_FALSE(os.Erase("b"));
  EXPECT_EQ(os.total_bytes(), 10u);
  EXPECT_THROW(os.Get("missing"), Error);
}

TEST(ObjectStoreTest, PrefixAccounting) {
  ScratchEngine fx;
  store::ObjectStore& os = fx.engine.data_objects();
  os.Put("stub/f1", Bytes(100, 0));
  os.Put("stub/f2", Bytes(200, 0));
  os.Put("recipe/f1", Bytes(50, 0));
  EXPECT_EQ(os.TotalBytesWithPrefix("stub/"), 300u);
  EXPECT_EQ(os.TotalBytesWithPrefix("recipe/"), 50u);
  EXPECT_EQ(os.TotalBytesWithPrefix("nothing/"), 0u);
}

// The per-directory byte counters that replaced the O(n) scan must track
// overwrite (grow and shrink) and erase exactly, and must agree with scan
// semantics for non-directory prefixes.
TEST(ObjectStoreTest, PrefixAccountingSurvivesOverwriteAndErase) {
  ScratchEngine fx;
  store::ObjectStore& os = fx.engine.data_objects();
  os.Put("stub/f1", Bytes(100, 1));
  os.Put("stub/f2", Bytes(200, 2));
  os.Put("stub/f1", Bytes(700, 3));  // overwrite grows
  EXPECT_EQ(os.TotalBytesWithPrefix("stub/"), 900u);
  os.Put("stub/f2", Bytes(20, 4));   // overwrite shrinks
  EXPECT_EQ(os.TotalBytesWithPrefix("stub/"), 720u);
  EXPECT_TRUE(os.Erase("stub/f1"));
  EXPECT_EQ(os.TotalBytesWithPrefix("stub/"), 20u);
  EXPECT_FALSE(os.Erase("stub/f1"));  // double-erase changes nothing
  EXPECT_EQ(os.TotalBytesWithPrefix("stub/"), 20u);
  EXPECT_TRUE(os.Erase("stub/f2"));
  EXPECT_EQ(os.TotalBytesWithPrefix("stub/"), 0u);
  // The directory stays usable after draining to zero.
  os.Put("stub/f3", Bytes(5, 5));
  EXPECT_EQ(os.TotalBytesWithPrefix("stub/"), 5u);

  // Generic prefixes (not exactly one trailing-slash segment) keep scan
  // semantics and must agree with the counters where both apply.
  os.Put("stub-index", Bytes(11, 6));
  os.Put("recipe/f1", Bytes(50, 7));
  EXPECT_EQ(os.TotalBytesWithPrefix("stub"), 16u);   // stub/f3 + stub-index
  EXPECT_EQ(os.TotalBytesWithPrefix("stub/f3"), 5u);
  EXPECT_EQ(os.TotalBytesWithPrefix(""), 66u);       // everything
  EXPECT_EQ(os.total_bytes(), 66u);
}

// Many names across every shard: counters must equal a brute-force scan.
TEST(ObjectStoreTest, PrefixAccountingMatchesScanAcrossShards) {
  ScratchEngine fx;
  store::ObjectStore& os = fx.engine.data_objects();
  DeterministicRng rng(6);
  std::uint64_t stub_bytes = 0, recipe_bytes = 0;
  for (int i = 0; i < 200; ++i) {
    std::size_t n = 1 + (i * 7) % 97;
    if (i % 2 == 0) {
      os.Put("stub/obj" + std::to_string(i), rng.Generate(n));
      stub_bytes += n;
    } else {
      os.Put("recipe/obj" + std::to_string(i), rng.Generate(n));
      recipe_bytes += n;
    }
  }
  // Overwrite a third of them, erase a few.
  for (int i = 0; i < 200; i += 3) {
    std::string name =
        (i % 2 == 0 ? "stub/obj" : "recipe/obj") + std::to_string(i);
    std::uint64_t old = os.Get(name).size();
    os.Put(name, rng.Generate(40));
    (i % 2 == 0 ? stub_bytes : recipe_bytes) += 40 - old;
  }
  for (int i = 0; i < 200; i += 17) {
    std::string name =
        (i % 2 == 0 ? "stub/obj" : "recipe/obj") + std::to_string(i);
    std::uint64_t old = os.Get(name).size();
    EXPECT_TRUE(os.Erase(name));
    (i % 2 == 0 ? stub_bytes : recipe_bytes) -= old;
  }
  EXPECT_EQ(os.TotalBytesWithPrefix("stub/"), stub_bytes);
  EXPECT_EQ(os.TotalBytesWithPrefix("recipe/"), recipe_bytes);
  EXPECT_EQ(os.total_bytes(), stub_bytes + recipe_bytes);
}

// --------------------------- recipes ---------------------------

TEST(RecipeTest, SerializationRoundTrip) {
  store::FileRecipe recipe;
  recipe.file_id = "backup-day-1";
  recipe.file_size = 123456;
  recipe.scheme = 1;
  recipe.stub_size = 64;
  for (int i = 0; i < 5; ++i) {
    recipe.fingerprints.push_back(
        chunk::Fingerprint::Of(ToBytes("chunk" + std::to_string(i))));
    recipe.chunk_sizes.push_back(1000 + i);
  }
  Bytes blob = recipe.Serialize();
  store::FileRecipe back = store::FileRecipe::Deserialize(blob);
  EXPECT_EQ(back.file_id, recipe.file_id);
  EXPECT_EQ(back.file_size, recipe.file_size);
  EXPECT_EQ(back.scheme, recipe.scheme);
  EXPECT_EQ(back.stub_size, recipe.stub_size);
  EXPECT_EQ(back.fingerprints, recipe.fingerprints);
  EXPECT_EQ(back.chunk_sizes, recipe.chunk_sizes);
  blob.pop_back();
  EXPECT_THROW(store::FileRecipe::Deserialize(blob), Error);
}

TEST(RecipeTest, KeyStateRecordRoundTrip) {
  store::KeyStateRecord rec;
  rec.owner_id = "alice";
  rec.key_version = 7;
  rec.stub_key_version = 5;
  rec.policy = ToBytes("policy-bytes");
  rec.wrapped_state = ToBytes("abe-ciphertext");
  rec.group_wrap_id = "groupwrap/abc123";
  rec.derivation_public_key = ToBytes("rsa-pub");
  store::KeyStateRecord back = store::KeyStateRecord::Deserialize(rec.Serialize());
  EXPECT_EQ(back.owner_id, "alice");
  EXPECT_EQ(back.key_version, 7u);
  EXPECT_EQ(back.stub_key_version, 5u);
  EXPECT_EQ(back.policy, rec.policy);
  EXPECT_EQ(back.wrapped_state, rec.wrapped_state);
  EXPECT_EQ(back.group_wrap_id, rec.group_wrap_id);
  EXPECT_EQ(back.derivation_public_key, rec.derivation_public_key);
}

TEST(RecipeTest, ObfuscatedFileIds) {
  Bytes salt1 = ToBytes("salt-1"), salt2 = ToBytes("salt-2");
  std::string a = store::ObfuscateFileId("/home/alice/doc.txt", salt1);
  EXPECT_EQ(a, store::ObfuscateFileId("/home/alice/doc.txt", salt1));
  EXPECT_NE(a, store::ObfuscateFileId("/home/alice/doc.txt", salt2));
  EXPECT_NE(a, store::ObfuscateFileId("/home/alice/other.txt", salt1));
  EXPECT_EQ(a.size(), 64u);  // hex SHA-256
}

// --------------------------- storage server ---------------------------

TEST(StorageServerTest, DeduplicatesIdenticalChunks) {
  server::StorageServer srv;
  DeterministicRng rng(2);
  Bytes data = rng.Generate(1000);
  auto fp = chunk::Fingerprint::Of(data);

  auto r1 = srv.PutChunks({{fp, data}});
  EXPECT_EQ(r1.stored, 1u);
  EXPECT_EQ(r1.duplicates, 0u);
  auto r2 = srv.PutChunks({{fp, data}, {fp, data}});
  EXPECT_EQ(r2.stored, 0u);
  EXPECT_EQ(r2.duplicates, 2u);

  auto stats = srv.stats();
  EXPECT_EQ(stats.logical_chunks, 3u);
  EXPECT_EQ(stats.unique_chunks, 1u);
  EXPECT_EQ(stats.physical_bytes, 1000u);
  EXPECT_EQ(stats.logical_bytes, 3000u);
  EXPECT_EQ(srv.GetChunks({fp})[0], data);
}

// Regression: PutChunks used to drop FingerprintIndex::Insert's return
// value, so a lost lookup→append→insert race would silently orphan the
// appended copy. The compound step is now serialized under the ingest lock
// and a rejected insert throws. Hammer the same chunk from many threads:
// every call must succeed, and exactly one physical copy may exist.
TEST(StorageServerTest, ConcurrentIdenticalPutsStoreExactlyOneCopy) {
  server::StorageServer srv;
  DeterministicRng rng(3);
  Bytes data = rng.Generate(512);
  auto fp = chunk::Fingerprint::Of(data);

  constexpr int kThreads = 8;
  constexpr int kPutsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> stored{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPutsPerThread; ++i) {
        auto r = srv.PutChunks({{fp, data}});
        stored += r.stored;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(stored.load(), 1u);
  auto stats = srv.stats();
  EXPECT_EQ(stats.logical_chunks,
            static_cast<std::uint64_t>(kThreads) * kPutsPerThread);
  EXPECT_EQ(stats.unique_chunks, 1u);
  EXPECT_EQ(stats.physical_bytes, data.size());
  EXPECT_EQ(srv.GetChunks({fp})[0], data);
}

TEST(StorageServerTest, GetUnknownChunkThrows) {
  server::StorageServer srv;
  EXPECT_THROW(srv.GetChunks({chunk::Fingerprint::Of(ToBytes("nope"))}), Error);
}

TEST(StorageServerTest, ObjectStoresAreSeparate) {
  server::StorageServer srv;
  srv.PutObject(server::StoreId::kData, "x", ToBytes("data-store"));
  srv.PutObject(server::StoreId::kKey, "x", ToBytes("key-store"));
  EXPECT_EQ(srv.GetObject(server::StoreId::kData, "x"), ToBytes("data-store"));
  EXPECT_EQ(srv.GetObject(server::StoreId::kKey, "x"), ToBytes("key-store"));
  EXPECT_TRUE(srv.HasObject(server::StoreId::kData, "x"));
  EXPECT_FALSE(srv.HasObject(server::StoreId::kData, "y"));
}

TEST(StorageServerTest, WireProtocolRoundTrip) {
  server::StorageServer srv;
  DeterministicRng rng(3);
  Bytes data = rng.Generate(500);
  auto fp = chunk::Fingerprint::Of(data);

  // PutChunks via the wire.
  net::Writer put;
  put.U8(static_cast<std::uint8_t>(server::Opcode::kPutChunks));
  put.U32(1);
  put.Raw(fp.AsSpan());
  put.Blob(data);
  Bytes put_resp = srv.HandleRequest(put.Take());
  net::Reader pr(put_resp);
  EXPECT_EQ(pr.U8(), 0);
  EXPECT_EQ(pr.U32(), 0u);  // duplicates
  EXPECT_EQ(pr.U32(), 1u);  // stored

  // GetChunks via the wire.
  net::Writer get;
  get.U8(static_cast<std::uint8_t>(server::Opcode::kGetChunks));
  get.U32(1);
  get.Raw(fp.AsSpan());
  Bytes get_resp = srv.HandleRequest(get.Take());
  net::Reader gr(get_resp);
  EXPECT_EQ(gr.U8(), 0);
  EXPECT_EQ(gr.Blob(), data);
}

TEST(StorageServerTest, WireProtocolErrorsAreStatusFrames) {
  server::StorageServer srv;
  // Garbage request.
  Bytes garbage = {0xFF, 0x00};
  Bytes garbage_resp = srv.HandleRequest(garbage);
  net::Reader r(garbage_resp);
  EXPECT_EQ(r.U8(), 1);
  // Unknown object.
  net::Writer get;
  get.U8(static_cast<std::uint8_t>(server::Opcode::kGetObject));
  get.U8(0);
  get.Str("missing");
  Bytes get_resp = srv.HandleRequest(get.Take());
  net::Reader r2(get_resp);
  EXPECT_EQ(r2.U8(), 1);
  EXPECT_NE(r2.Str().find("missing"), std::string::npos);
}

// --------------------------- storage client (sharding) ---------------------------

class ShardedClusterTest : public ::testing::Test {
 protected:
  ShardedClusterTest() {
    for (int i = 0; i < 4; ++i) {
      servers_.push_back(std::make_unique<server::StorageServer>(
          "s" + std::to_string(i)));
    }
    key_server_ = std::make_unique<server::StorageServer>("key");
    std::vector<std::shared_ptr<net::RpcChannel>> channels;
    for (auto& s : servers_) {
      server::StorageServer* raw = s.get();
      channels.push_back(std::make_shared<net::LocalChannel>(
          [raw](ByteSpan req) { return raw->HandleRequest(req); }));
    }
    server::StorageServer* kraw = key_server_.get();
    client_ = std::make_unique<client::StorageClient>(
        std::move(channels),
        std::make_shared<net::LocalChannel>(
            [kraw](ByteSpan req) { return kraw->HandleRequest(req); }));
  }

  std::vector<std::unique_ptr<server::StorageServer>> servers_;
  std::unique_ptr<server::StorageServer> key_server_;
  std::unique_ptr<client::StorageClient> client_;
};

TEST_F(ShardedClusterTest, ChunksSpreadAcrossServersAndRoundTrip) {
  DeterministicRng rng(4);
  std::vector<std::pair<chunk::Fingerprint, Bytes>> chunks;
  std::vector<chunk::Fingerprint> fps;
  for (int i = 0; i < 100; ++i) {
    Bytes data = rng.Generate(200);
    auto fp = chunk::Fingerprint::Of(data);
    chunks.emplace_back(fp, data);
    fps.push_back(fp);
  }
  auto stats = client_->PutChunks(chunks);
  EXPECT_EQ(stats.stored, 100u);

  // All four servers should have received some chunks.
  for (auto& s : servers_) {
    EXPECT_GT(s->stats().unique_chunks, 0u) << s->name();
  }

  // Order-preserving gather.
  auto fetched = client_->GetChunks(fps);
  ASSERT_EQ(fetched.chunks.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    const ByteSpan got = fetched.chunks[i];
    EXPECT_EQ(Bytes(got.begin(), got.end()), chunks[i].second);
  }
}

TEST_F(ShardedClusterTest, DedupAcrossUploadsOnSameShard) {
  DeterministicRng rng(5);
  Bytes data = rng.Generate(300);
  auto fp = chunk::Fingerprint::Of(data);
  (void)client_->PutChunks({{fp, data}});
  auto stats = client_->PutChunks({{fp, data}});
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.stored, 0u);
}

TEST_F(ShardedClusterTest, KeyObjectsGoToKeyServer) {
  client_->PutObject(server::StoreId::kKey, "keystate/f", ToBytes("wrapped"));
  EXPECT_TRUE(key_server_->HasObject(server::StoreId::kKey, "keystate/f"));
  for (auto& s : servers_) {
    EXPECT_FALSE(s->HasObject(server::StoreId::kKey, "keystate/f"));
  }
  EXPECT_EQ(client_->GetObject(server::StoreId::kKey, "keystate/f"),
            ToBytes("wrapped"));
}

TEST_F(ShardedClusterTest, DataObjectsShardByName) {
  for (int i = 0; i < 20; ++i) {
    std::string name = "recipe/file-" + std::to_string(i);
    client_->PutObject(server::StoreId::kData, name, ToBytes("recipe"));
    EXPECT_TRUE(client_->HasObject(server::StoreId::kData, name));
  }
  std::size_t with_objects = 0;
  for (auto& s : servers_) {
    if (s->stats().data_object_bytes > 0) ++with_objects;
  }
  EXPECT_GE(with_objects, 2u);  // spread over multiple servers
}

}  // namespace
}  // namespace reed
