// Pipelined data-path equivalence + stress (DESIGN.md §10).
//
// The overlapped upload pipeline reorders WORK (encode of batch i+1 runs
// while batch i is on the wire) but must not reorder RESULTS: recipes,
// dedup statistics, and downloaded bytes have to match the serial path
// exactly. The first test pins that equivalence on twin same-seed systems;
// the UploadStream tests pin Upload (chunker task) against UploadChunked
// and the chunker and wrap tasks' failure paths; the window test pins the
// upload schedule each depth promises; the keygen tests pin the look-ahead
// keygen stage (its overlap, its request bytes, its failures); the rest
// hammer one shared cluster from many pipelined clients at once — sized to
// stay cheap enough for TSan, which is the point of the exercise.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "core/reed_system.h"
#include "crypto/random.h"
#include "keymanager/key_manager.h"
#include "keymanager/mle_key_client.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "server/storage_server.h"
#include "util/fault_inject.h"

namespace reed {
namespace {

using client::ClientOptions;
using client::ReedClient;
using core::ReedSystem;
using core::SystemOptions;
using crypto::DeterministicRng;

SystemOptions TwinSystemOptions() {
  SystemOptions opts;
  opts.key_manager.rsa_bits = 512;
  opts.derivation_key_bits = 512;
  opts.num_data_servers = 4;
  opts.rng_seed = 4242;
  return opts;
}

ClientOptions PipelinedOptions(std::size_t depth, std::size_t channels) {
  ClientOptions opts;
  opts.avg_chunk_size = 4096;
  opts.encryption_threads = 2;
  // Small key-manager batches (one per upload unit) force many pipeline
  // iterations even on small test files.
  opts.key_options.batch_size = 8;
  opts.pipeline.depth = depth;
  opts.pipeline.channels_per_server = channels;
  opts.rng_seed = 77;
  return opts;
}

Bytes TestFile(std::size_t size, std::uint64_t seed) {
  DeterministicRng rng(seed);
  return rng.Generate(size);
}

// Object lookup straight on the servers, bypassing the client: find the
// one data server holding `name` and return the blob.
Bytes FindDataObject(ReedSystem& system, const std::string& name) {
  for (std::size_t i = 0; i < system.data_server_count(); ++i) {
    if (system.data_server(i).HasObject(server::StoreId::kData, name)) {
      return system.data_server(i).GetObject(server::StoreId::kData, name);
    }
  }
  throw Error("test: object not found on any data server: " + name);
}

TEST(PipelineEquivalenceTest, SerialAndPipelinedProduceIdenticalResults) {
  // Twin deployments from the same seed: everything key-material-dependent
  // (OPRF keys, hence MLE keys, hence trimmed packages and their
  // fingerprints) is identical, so any divergence below is the pipeline's
  // fault.
  ReedSystem serial_sys(TwinSystemOptions());
  ReedSystem pipelined_sys(TwinSystemOptions());
  serial_sys.RegisterUser("alice");
  pipelined_sys.RegisterUser("alice");
  auto serial = serial_sys.CreateClient("alice", PipelinedOptions(1, 1));
  auto pipelined = pipelined_sys.CreateClient("alice", PipelinedOptions(3, 2));

  // Half the second file repeats the first — intra- and inter-file dedup.
  Bytes f1 = TestFile(256 * 1024, 9001);
  Bytes f2 = f1;
  Bytes tail = TestFile(128 * 1024, 9002);
  f2.insert(f2.end(), tail.begin(), tail.end());

  for (const auto& [id, data] :
       {std::pair<std::string, const Bytes*>{"f1", &f1}, {"f2", &f2}}) {
    auto rs = serial->Upload(id, *data, {"alice"});
    auto rp = pipelined->Upload(id, *data, {"alice"});
    EXPECT_EQ(rs.logical_bytes, rp.logical_bytes) << id;
    EXPECT_EQ(rs.chunk_count, rp.chunk_count) << id;
    EXPECT_EQ(rs.duplicate_chunks, rp.duplicate_chunks) << id;
    EXPECT_EQ(rs.stored_chunks, rp.stored_chunks) << id;
    EXPECT_EQ(rs.stored_bytes, rp.stored_bytes) << id;
    EXPECT_EQ(rs.stub_bytes, rp.stub_bytes) << id;

    // The recipe records chunk order: byte-identical blobs mean identical
    // fingerprint sequence AND identical chunk-size sequence.
    EXPECT_EQ(FindDataObject(serial_sys, "recipe/" + id),
              FindDataObject(pipelined_sys, "recipe/" + id))
        << id;

    EXPECT_EQ(serial->Download(id), *data) << id;
    EXPECT_EQ(pipelined->Download(id), *data) << id;
  }

  auto ss = serial_sys.TotalStats();
  auto ps = pipelined_sys.TotalStats();
  EXPECT_EQ(ss.logical_bytes, ps.logical_bytes);
  EXPECT_EQ(ss.physical_bytes, ps.physical_bytes);
  EXPECT_EQ(ss.logical_chunks, ps.logical_chunks);
  EXPECT_EQ(ss.unique_chunks, ps.unique_chunks);
  EXPECT_EQ(ss.stub_bytes, ps.stub_bytes);
}

TEST(UploadStreamTest, UploadMatchesUploadChunkedAtEveryDepth) {
  // Upload cuts its batches on the chunker task; UploadChunked takes them
  // from the refs it is given. Both run the one pipeline, so with the
  // client's own boundaries the recipes must be byte-identical.
  ReedSystem streamed_sys(TwinSystemOptions());
  ReedSystem chunked_sys(TwinSystemOptions());
  streamed_sys.RegisterUser("alice");
  chunked_sys.RegisterUser("alice");
  Bytes data = TestFile(300 * 1024 + 123, 9100);
  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    const std::string id = "stream-" + std::to_string(depth);
    auto streamed = streamed_sys.CreateClient("alice", PipelinedOptions(depth, 1));
    auto chunked = chunked_sys.CreateClient("alice", PipelinedOptions(depth, 1));
    auto rs = streamed->Upload(id, data, {"alice"});
    auto rc = chunked->UploadChunked(id, data, chunked->ChunkData(data),
                                     {"alice"});
    EXPECT_EQ(rs.chunk_count, chunked->ChunkData(data).size());
    EXPECT_EQ(rs.chunk_count, rc.chunk_count);
    EXPECT_EQ(rs.duplicate_chunks, rc.duplicate_chunks);
    EXPECT_EQ(rs.stored_chunks, rc.stored_chunks);
    EXPECT_EQ(rs.stored_bytes, rc.stored_bytes);
    EXPECT_EQ(rs.stub_bytes, rc.stub_bytes);
    EXPECT_EQ(FindDataObject(streamed_sys, "recipe/" + id),
              FindDataObject(chunked_sys, "recipe/" + id));
    EXPECT_EQ(streamed->Download(id), data);
    EXPECT_EQ(chunked->Download(id), data);
  }
}

#if defined(REED_FAULT_INJECT)
bool HasDataObject(ReedSystem& system, const std::string& name) {
  for (std::size_t i = 0; i < system.data_server_count(); ++i) {
    if (system.data_server(i).HasObject(server::StoreId::kData, name)) {
      return true;
    }
  }
  return false;
}

TEST(UploadStreamTest, ChunkerAndWrapFaultsPublishNothing) {
  ReedSystem system(TwinSystemOptions());
  system.RegisterUser("alice");
  auto client = system.CreateClient("alice", PipelinedOptions(3, 2));
  auto& inflight = obs::Registry::Global().GetGauge(
      "client.pipeline.inflight_batches");
  Bytes data = TestFile(256 * 1024, 9200);
  struct Case {
    const char* site;
    fault::Policy policy;
  };
  // NthHit(3) fails the chunker task cutting batch 2, with batches 0 and 1
  // already encoded and on the wire.
  const Case cases[] = {{"client.upload.chunk", fault::Policy::EveryHit()},
                        {"client.upload.chunk", fault::Policy::NthHit(3)},
                        {"client.upload.wrap", fault::Policy::EveryHit()}};
  int n = 0;
  for (const Case& c : cases) {
    const std::string id = "fault-" + std::to_string(n++);
    SCOPED_TRACE(id + " " + c.site);
    // NthHit counts from the last counter reset.
    fault::DisarmAll();
    fault::ResetCounters();
    std::string msg;
    {
      fault::ScopedFault armed(c.site, c.policy);
      try {
        (void)client->Upload(id, data, {"alice"});
      } catch (const Error& e) {
        msg = e.what();
      }
    }
    EXPECT_NE(msg.find(c.site), std::string::npos) << "got: " << msg;
    EXPECT_FALSE(HasDataObject(system, "recipe/" + id));
    EXPECT_FALSE(HasDataObject(system, "stub/" + id));
    EXPECT_FALSE(system.key_server().HasObject(server::StoreId::kKey,
                                               "keystate/" + id));
    EXPECT_EQ(inflight.value(), 0);

    // Disarmed, the same upload completes and round-trips.
    (void)client->Upload(id, data, {"alice"});
    EXPECT_EQ(client->Download(id), data);
  }
}
#endif

TEST(PipelineStressTest, ConcurrentIdenticalUploadsKeepDedupExact) {
  // Every client pushes the SAME content under its own file id, all at
  // once, through the deep pipeline. The ingest stripes must leave exactly
  // one stored copy of every chunk no matter how batches interleave.
  ReedSystem system(TwinSystemOptions());
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<ReedClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    std::string user = "user-" + std::to_string(c);
    system.RegisterUser(user);
    clients.push_back(system.CreateClient(user, PipelinedOptions(3, 2)));
  }

  Bytes shared = TestFile(256 * 1024, 31337);
  std::vector<client::UploadResult> results(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      results[c] = clients[c]->Upload("shared-" + std::to_string(c), shared,
                                      {"user-" + std::to_string(c)});
    });
  }
  for (auto& th : threads) th.join();

  const std::size_t chunk_count = results[0].chunk_count;
  std::size_t stored = 0, duplicates = 0;
  for (const auto& r : results) {
    EXPECT_EQ(r.chunk_count, chunk_count);
    stored += r.stored_chunks;
    duplicates += r.duplicate_chunks;
  }
  // Same content => same chunks; across all racing uploads each chunk is
  // stored exactly once, every other arrival counted as a duplicate.
  EXPECT_EQ(stored, chunk_count);
  EXPECT_EQ(duplicates, chunk_count * (kClients - 1));
  EXPECT_EQ(system.TotalStats().unique_chunks, chunk_count);

  // And everyone can read their copy back.
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(clients[c]->Download("shared-" + std::to_string(c)), shared);
  }
}

// Shared between the recording channels of one client: how many PutChunks
// and key-manager calls are in progress, the PutChunks peak, and whether a
// key-manager call ever ran while a PutChunks was in progress.
struct WindowRecord {
  std::atomic<int> puts{0};
  std::atomic<int> peak_puts{0};
  std::atomic<int> km_calls{0};
  std::atomic<bool> km_overlapped_put{false};
};

// Storage side: counts concurrent PutChunks, holding each one briefly so
// any overlap the schedule allows actually shows.
class PutRecordingChannel : public net::RpcChannel {
 public:
  PutRecordingChannel(std::shared_ptr<net::RpcChannel> inner,
                      WindowRecord& record)
      : inner_(std::move(inner)), record_(record) {}

  [[nodiscard]] Bytes Call(ByteSpan request) override {
    bool put = !request.empty() && request[0] == static_cast<std::uint8_t>(
                                       server::Opcode::kPutChunks);
    if (!put) return inner_->Call(request);
    int now = record_.puts.fetch_add(1) + 1;
    int peak = record_.peak_puts.load();
    while (now > peak && !record_.peak_puts.compare_exchange_weak(peak, now)) {
    }
    if (record_.km_calls.load() > 0) record_.km_overlapped_put = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Bytes response = inner_->Call(request);
    record_.puts.fetch_sub(1);
    return response;
  }

 private:
  std::shared_ptr<net::RpcChannel> inner_;
  WindowRecord& record_;
};

// Key-manager side: flags any GetKeys round trip that overlaps a PutChunks.
// Both channels raise their own counter before reading the other's, so an
// overlap is seen by at least one side.
class KmRecordingChannel : public net::RpcChannel {
 public:
  KmRecordingChannel(std::shared_ptr<net::RpcChannel> inner,
                     WindowRecord& record)
      : inner_(std::move(inner)), record_(record) {}

  [[nodiscard]] Bytes Call(ByteSpan request) override {
    record_.km_calls.fetch_add(1);
    if (record_.puts.load() > 0) record_.km_overlapped_put = true;
    Bytes response = inner_->Call(request);
    record_.km_calls.fetch_sub(1);
    return response;
  }

 private:
  std::shared_ptr<net::RpcChannel> inner_;
  WindowRecord& record_;
};

TEST(PipelineWindowTest, PutChunksInFlightStaysWithinDepthWindow) {
  DeterministicRng rng(31);
  keymanager::KeyManager::Options km_opts;
  km_opts.rsa_bits = 512;
  keymanager::KeyManager km(rsa::GenerateKeyPair(512, rng), km_opts);
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  auto abe = std::make_shared<const abe::CpAbe>(pairing);
  auto setup = abe->Setup(rng);
  auto access_key = abe->KeyGen(setup.pk, setup.mk, {"user:alice"}, rng);
  auto derivation = rsa::GenerateKeyPair(512, rng);

  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    // One data server, one stripe: every batch is exactly one PutChunks.
    server::StorageServer storage("window-" + std::to_string(depth));
    WindowRecord record;
    auto direct = std::make_shared<net::LocalChannel>(
        [&storage](ByteSpan req) { return storage.HandleRequest(req); });
    auto data_channel =
        std::make_shared<PutRecordingChannel>(direct, record);
    auto km_channel = std::make_shared<KmRecordingChannel>(
        std::make_shared<net::LocalChannel>(
            [&km](ByteSpan req) { return km.HandleRequest(req); }),
        record);
    auto storage_client = std::make_shared<client::StorageClient>(
        std::vector<std::shared_ptr<net::RpcChannel>>{data_channel}, direct);
    auto keys = std::make_shared<keymanager::MleKeyClient>(
        "alice", km.public_key(), km_channel,
        keymanager::MleKeyClient::Options{});
    ReedClient alice("alice", PipelinedOptions(depth, 1), storage_client, keys,
                     abe, setup.pk, access_key, derivation);

    // Fresh content: every batch misses the key cache, so every batch makes
    // a key-manager round trip.
    Bytes data = TestFile(256 * 1024, 600 + depth);
    auto result = alice.Upload("window", data, {"alice"});
    EXPECT_EQ(result.stored_chunks, result.chunk_count);
    EXPECT_EQ(alice.Download("window"), data);

    if (depth == 1) {
      EXPECT_EQ(record.peak_puts.load(), 1);
      EXPECT_FALSE(record.km_overlapped_put.load())
          << "depth 1 started a keygen while a batch was on the wire";
    } else {
      EXPECT_GE(record.peak_puts.load(), 1);
      EXPECT_LE(record.peak_puts.load(), static_cast<int>(depth - 1));
    }
  }
}

// Key material for clients built by hand (below), from one seeded set-up.
struct KeyMaterial {
  explicit KeyMaterial(std::uint64_t seed)
      : rng(seed),
        km(rsa::GenerateKeyPair(512, rng), ManagerOptions()),
        abe(std::make_shared<const abe::CpAbe>(
            std::make_shared<const pairing::TypeAPairing>(
                pairing::TypeAParams::Default()))),
        setup(abe->Setup(rng)),
        access_key(abe->KeyGen(setup.pk, setup.mk, {"user:alice"}, rng)),
        derivation(rsa::GenerateKeyPair(512, rng)) {}

  static keymanager::KeyManager::Options ManagerOptions() {
    keymanager::KeyManager::Options opts;
    opts.rsa_bits = 512;
    return opts;
  }

  DeterministicRng rng;
  keymanager::KeyManager km;
  std::shared_ptr<const abe::CpAbe> abe;
  abe::CpAbe::SetupResult setup;
  abe::PrivateKey access_key;
  rsa::RsaKeyPair derivation;
};

// Alice's client over one server that holds both data and key state (one
// PutChunks per unit), reaching the key manager through `km_channel`, so a
// test can record or corrupt the key manager's frames.
std::unique_ptr<ReedClient> HandBuiltClient(
    KeyMaterial& keys, server::StorageServer& storage,
    std::shared_ptr<net::RpcChannel> km_channel, const ClientOptions& options) {
  auto direct = std::make_shared<net::LocalChannel>(
      [&storage](ByteSpan req) { return storage.HandleRequest(req); });
  auto storage_client = std::make_shared<client::StorageClient>(
      std::vector<std::shared_ptr<net::RpcChannel>>{direct}, direct);
  auto mle = std::make_shared<keymanager::MleKeyClient>(
      "alice", keys.km.public_key(), std::move(km_channel),
      options.key_options);
  return std::make_unique<ReedClient>("alice", options, storage_client, mle,
                                      keys.abe, keys.setup.pk, keys.access_key,
                                      keys.derivation);
}

TEST(KeygenAheadTest, NextUnitsKeyManagerCallOverlapsThisUnitsEncode) {
  KeyMaterial keys(32);
  auto& encodes =
      obs::Registry::Global().GetHistogram("client.upload.encode_us");
  // Unit 0 is 32 chunks of 128 KiB, unit 1 one small chunk: the look-ahead
  // call for unit 1 needs one fingerprint and one blinding, so at depth >= 2
  // it starts long before unit 0's 4 MiB encode ends.
  constexpr std::size_t kUnit = 32;
  constexpr std::size_t kBig = 128 * 1024;
  Bytes data = TestFile(kUnit * kBig + 1000, 700);
  std::vector<chunk::ChunkRef> refs;
  for (std::size_t i = 0; i < kUnit; ++i) refs.push_back({i * kBig, kBig});
  refs.push_back({kUnit * kBig, 1000});

  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    server::StorageServer storage("ahead-" + std::to_string(depth));
    std::atomic<int> calls{0};
    std::atomic<bool> overlapped{false};
    std::uint64_t encoded_before = 0;
    auto km_channel = std::make_shared<net::LocalChannel>([&](ByteSpan req) {
      if (calls.fetch_add(1) == 1) {
        // Unit 1's call. Unit 0's encode has not finished while the encode
        // count stands still; hold the call until it moves, so that encode
        // cannot be waiting for this call.
        if (encodes.count() == encoded_before) overlapped = true;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (encodes.count() == encoded_before &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      return keys.km.HandleRequest(req);
    });
    ClientOptions opts = PipelinedOptions(depth, 1);
    opts.key_options.batch_size = kUnit;
    auto alice = HandBuiltClient(keys, storage, km_channel, opts);
    encoded_before = encodes.count();
    auto result = alice->UploadChunked("ahead", data, refs, {"alice"});
    EXPECT_EQ(result.stored_chunks, refs.size());
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(alice->Download("ahead"), data);
    if (depth == 1) {
      EXPECT_FALSE(overlapped.load())
          << "depth 1 ran unit 1's keygen under unit 0's encode";
    } else {
      EXPECT_TRUE(overlapped.load())
          << "unit 1's key-manager call waited for unit 0's encode";
    }
  }
}

TEST(KeygenAheadTest, RequestFramesMatchSerialGetKeysLoop) {
  // 600 fixed-size chunks: key-manager units of 256, 256 and 88.
  KeyMaterial keys(33);
  constexpr std::size_t kChunk = 512;
  constexpr std::size_t kChunks = 600;
  Bytes data = TestFile(kChunks * kChunk, 710);
  auto recording = [&keys](std::vector<Bytes>& frames) {
    return std::make_shared<net::LocalChannel>([&keys, &frames](ByteSpan req) {
      frames.emplace_back(req.begin(), req.end());
      return keys.km.HandleRequest(req);
    });
  };

  // The same units through a serial GetKeys loop, from an RNG with the
  // client's seed: its first 32 bytes seed the wrap task, the rest blind.
  ClientOptions opts = PipelinedOptions(1, 1);
  opts.avg_chunk_size = 0;
  opts.fixed_chunk_size = kChunk;
  opts.key_options = {};
  std::vector<Bytes> want;
  {
    keymanager::MleKeyClient serial("alice", keys.km.public_key(),
                                    recording(want), opts.key_options);
    DeterministicRng rng(opts.rng_seed);
    std::array<std::uint8_t, 32> wrap_seed;
    rng.Fill(wrap_seed);
    const std::size_t unit = serial.batch_size();
    for (std::size_t start = 0; start < kChunks; start += unit) {
      std::vector<chunk::Fingerprint> fps;
      for (std::size_t i = start; i < std::min(kChunks, start + unit); ++i) {
        fps.push_back(chunk::Fingerprint::Of(
            ByteSpan(data).subspan(i * kChunk, kChunk)));
      }
      (void)serial.GetKeys(fps, rng);
    }
  }
  ASSERT_EQ(want.size(), 3u);

  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    server::StorageServer storage("frames-" + std::to_string(depth));
    opts.pipeline.depth = depth;
    std::vector<Bytes> frames;
    auto alice = HandBuiltClient(keys, storage, recording(frames), opts);
    auto result = alice->Upload("pinned", data, {"alice"});
    EXPECT_EQ(result.chunk_count, kChunks);
    EXPECT_EQ(frames, want);
  }
}

TEST(KeygenAheadTest, LookAheadKeygenFailurePublishesNothing) {
  // Units of 8 chunks at depth 2: unit 1's keygen is the look-ahead beside
  // unit 0's encode, and it fails.
  KeyMaterial keys(34);
  auto& inflight = obs::Registry::Global().GetGauge(
      "client.pipeline.inflight_batches");
  const std::size_t nbytes = keys.km.public_key().ByteLength();
  Bytes data = TestFile(256 * 1024, 720);
  struct Case {
    const char* name;
    bool flip;  // else: fail GetKeys at its fault site, on its 2nd hit
  };
  std::vector<Case> cases = {{"flipped-signature", true}};
#if defined(REED_FAULT_INJECT)
  cases.push_back({"keymanager.get_keys", false});
#endif
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string id = std::string("ahead-") + c.name;
    server::StorageServer storage(id);
    std::atomic<int> calls{0};
    std::atomic<bool> lie{c.flip};
    auto km_channel = std::make_shared<net::LocalChannel>([&](ByteSpan req) {
      Bytes response = keys.km.HandleRequest(req);
      // Status byte, then one padded signature per element: flip the low
      // bit of the first signature in unit 1's response.
      if (lie && calls.fetch_add(1) == 1) response[nbytes] ^= 1;
      return response;
    });
    ClientOptions opts = PipelinedOptions(2, 1);
    auto alice = HandBuiltClient(keys, storage, km_channel, opts);
    std::string msg;
    {
#if defined(REED_FAULT_INJECT)
      fault::DisarmAll();
      fault::ResetCounters();
      std::optional<fault::ScopedFault> armed;
      if (!c.flip) armed.emplace(c.name, fault::Policy::NthHit(2));
#endif
      try {
        (void)alice->Upload(id, data, {"alice"});
      } catch (const Error& e) {
        msg = e.what();
      }
    }
    EXPECT_FALSE(msg.empty()) << "Upload did not throw";
    if (!c.flip) {
      EXPECT_NE(msg.find(c.name), std::string::npos) << msg;
    }
    EXPECT_FALSE(storage.HasObject(server::StoreId::kData, "recipe/" + id));
    EXPECT_FALSE(storage.HasObject(server::StoreId::kData, "stub/" + id));
    EXPECT_FALSE(storage.HasObject(server::StoreId::kKey, "keystate/" + id));
    EXPECT_EQ(inflight.value(), 0);

    // Only unit 0's keys were cached: an honest retry hits exactly its
    // chunks, and round-trips.
    lie = false;
    const auto before = alice->key_client().stats();
    auto result = alice->Upload(id, data, {"alice"});
    EXPECT_EQ(alice->key_client().stats().cache_hits - before.cache_hits,
              opts.key_options.batch_size);
    EXPECT_EQ(result.chunk_count,
              alice->key_client().stats().cache_misses - before.cache_misses +
                  opts.key_options.batch_size);
    EXPECT_EQ(alice->Download(id), data);
  }
}

TEST(PipelineStressTest, ConcurrentMixedUploadsAndDownloadsRoundTrip) {
  ReedSystem system(TwinSystemOptions());
  constexpr int kClients = 3;
  constexpr int kFilesPerClient = 3;
  std::vector<std::unique_ptr<ReedClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    std::string user = "user-" + std::to_string(c);
    system.RegisterUser(user);
    clients.push_back(system.CreateClient(user, PipelinedOptions(4, 2)));
  }

  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (int f = 0; f < kFilesPerClient; ++f) {
          std::string id =
              "file-" + std::to_string(c) + "-" + std::to_string(f);
          Bytes data = TestFile(96 * 1024 + f * 8 * 1024, 1000 + c * 10 + f);
          auto up = clients[c]->Upload(id, data, {"user-" + std::to_string(c)});
          if (up.logical_bytes != data.size()) {
            throw Error("logical byte mismatch for " + id);
          }
          // Immediate read-back while the other clients keep writing.
          if (clients[c]->Download(id) != data) {
            throw Error("round-trip mismatch for " + id);
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }

  // All-distinct content: nothing should have deduplicated away.
  auto stats = system.TotalStats();
  EXPECT_EQ(stats.unique_chunks, stats.logical_chunks);
}

}  // namespace
}  // namespace reed
