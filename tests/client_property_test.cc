// Property-style sweeps over the client pipeline: round-trips across file
// sizes / schemes / chunkings / stub sizes, failure injection on every
// stored object, and concurrent-client behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <tuple>

#include "core/reed_system.h"
#include "crypto/random.h"

namespace reed {
namespace {

using client::ClientOptions;
using core::ReedSystem;
using core::SystemOptions;
using crypto::DeterministicRng;

SystemOptions FastSystem(std::uint64_t seed) {
  SystemOptions opts;
  opts.key_manager.rsa_bits = 512;
  opts.derivation_key_bits = 512;
  opts.rng_seed = seed;
  return opts;
}

// One cluster shared by the sweeps, built on first use.
std::unique_ptr<ReedSystem> shared_system;

ReedSystem& SharedSystem() {
  if (!shared_system) {
    shared_system = std::make_unique<ReedSystem>(FastSystem(555));
    shared_system->RegisterUser("prop");
  }
  return *shared_system;
}

// Destroys the shared cluster after the last test, so its servers remove
// their scratch directories.
class SharedSystemTeardown : public ::testing::Environment {
 public:
  void TearDown() override { shared_system.reset(); }
};
[[maybe_unused]] ::testing::Environment* const kSharedSystemTeardown =
    ::testing::AddGlobalTestEnvironment(new SharedSystemTeardown);

// ---------------------------------------------------------------------
// Round-trip sweep: (scheme, avg chunk size, file size). File sizes hit
// chunking edge cases: below min chunk, exactly max chunk, unaligned.
// ---------------------------------------------------------------------
using RoundTripParam = std::tuple<aont::Scheme, std::size_t, std::size_t>;

class RoundTripSweep : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(RoundTripSweep, UploadDownloadPreservesContent) {
  auto [scheme, chunk_size, file_size] = GetParam();
  ClientOptions opts;
  opts.scheme = scheme;
  opts.avg_chunk_size = chunk_size;
  opts.rng_seed = 7;
  auto client = SharedSystem().CreateClient("prop", opts);

  DeterministicRng rng(file_size * 31 + chunk_size);
  Bytes file = rng.Generate(file_size);
  std::string id = "sweep-" + std::string(aont::SchemeName(scheme)) + "-" +
                   std::to_string(chunk_size) + "-" + std::to_string(file_size);
  auto result = client->Upload(id, file, {"prop"});
  EXPECT_EQ(result.logical_bytes, file.size());
  EXPECT_EQ(client->Download(id), file);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RoundTripSweep,
    ::testing::Combine(
        ::testing::Values(aont::Scheme::kBasic, aont::Scheme::kEnhanced),
        ::testing::Values(2048, 8192),
        ::testing::Values(1, 100, 2048, 16384, 16385, 100000, 1 << 20)),
    [](const auto& param_info) {
      return std::string(aont::SchemeName(std::get<0>(param_info.param))) +
             "_c" + std::to_string(std::get<1>(param_info.param)) + "_f" +
             std::to_string(std::get<2>(param_info.param));
    });

// ---------------------------------------------------------------------
// Stub-size sweep end to end.
// ---------------------------------------------------------------------
class StubSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StubSizeSweep, RoundTripWithCustomStub) {
  ClientOptions opts;
  opts.stub_size = GetParam();
  opts.rng_seed = 9;
  auto client = SharedSystem().CreateClient("prop", opts);
  DeterministicRng rng(GetParam());
  Bytes file = rng.Generate(200 * 1024);
  std::string id = "stub-" + std::to_string(GetParam());
  auto result = client->Upload(id, file, {"prop"});
  EXPECT_EQ(result.stub_bytes,
            result.chunk_count * GetParam() + 16 + 32);  // + IV + MAC
  EXPECT_EQ(client->Download(id), file);
}

INSTANTIATE_TEST_SUITE_P(StubSizes, StubSizeSweep,
                         ::testing::Values(32, 64, 128, 512));

// ---------------------------------------------------------------------
// Failure injection: corrupt each stored object kind; downloads must fail
// loudly, never return wrong data.
// ---------------------------------------------------------------------
class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() : system_(FastSystem(777)) {
    system_.RegisterUser("victim");
    ClientOptions opts;
    opts.rng_seed = 11;
    client_ = system_.CreateClient("victim", opts);
    DeterministicRng rng(12);
    file_ = rng.Generate(300 * 1024);
    DiscardResult(client_->Upload("target", file_, {"victim"}));
  }

  // Applies fn to the named object on whichever server holds it.
  void CorruptObject(server::StoreId store, const std::string& name,
                     const std::function<void(Bytes&)>& fn) {
    bool found = false;
    auto try_server = [&](server::StorageServer& srv) {
      if (srv.HasObject(store, name)) {
        Bytes blob = srv.GetObject(store, name);
        fn(blob);
        srv.PutObject(store, name, std::move(blob));
        found = true;
      }
    };
    for (std::size_t i = 0; i < system_.data_server_count(); ++i) {
      try_server(system_.data_server(i));
    }
    try_server(system_.key_server());
    ASSERT_TRUE(found) << "object not found: " << name;
  }

  ReedSystem system_;
  std::unique_ptr<client::ReedClient> client_;
  Bytes file_;
};

TEST_F(FailureInjectionTest, CorruptedStubFileDetected) {
  CorruptObject(server::StoreId::kData, "stub/target",
                [](Bytes& b) { b[b.size() / 2] ^= 0x01; });
  EXPECT_THROW(client_->Download("target"), Error);
}

TEST_F(FailureInjectionTest, CorruptedKeyStateDetected) {
  // Flip a byte in the middle of the record — inside the CP-ABE-wrapped
  // key state, whose MAC must catch it. (The record's trailing field is
  // the derivation public key, which is legitimately unused until a
  // version unwind, so corrupting the *last* byte would be harmless.)
  CorruptObject(server::StoreId::kKey, "keystate/target",
                [](Bytes& b) { b[b.size() / 2] ^= 0x01; });
  EXPECT_THROW(client_->Download("target"), Error);
}

TEST_F(FailureInjectionTest, TruncatedRecipeDetected) {
  CorruptObject(server::StoreId::kData, "recipe/target",
                [](Bytes& b) { b.resize(b.size() - 10); });
  EXPECT_THROW(client_->Download("target"), Error);
}

TEST_F(FailureInjectionTest, MissingObjectsSurfaceAsErrors) {
  for (std::size_t i = 0; i < system_.data_server_count(); ++i) {
    (void)system_.data_server(i);
  }
  EXPECT_THROW(client_->Download("never-uploaded"), Error);
  EXPECT_THROW(DiscardResult(client_->Rekey(
                   "never-uploaded", {"victim"}, client::RevocationMode::kLazy)),
               Error);
}

TEST_F(FailureInjectionTest, SwappedStubFilesDetected) {
  // Upload a second file, then swap the two stub files: the MACs are keyed
  // by different file keys, so both downloads must fail (not cross-read).
  DeterministicRng rng(13);
  Bytes other = rng.Generate(300 * 1024);
  DiscardResult(client_->Upload("other", other, {"victim"}));

  auto find_blob = [&](const std::string& name) -> Bytes {
    for (std::size_t i = 0; i < system_.data_server_count(); ++i) {
      if (system_.data_server(i).HasObject(server::StoreId::kData, name)) {
        return system_.data_server(i).GetObject(server::StoreId::kData, name);
      }
    }
    throw Error("not found");
  };
  Bytes stub_a = find_blob("stub/target");
  Bytes stub_b = find_blob("stub/other");
  CorruptObject(server::StoreId::kData, "stub/target",
                [&](Bytes& b) { b = stub_b; });
  CorruptObject(server::StoreId::kData, "stub/other",
                [&](Bytes& b) { b = stub_a; });
  EXPECT_THROW(client_->Download("target"), Error);
  EXPECT_THROW(client_->Download("other"), Error);
}

// ---------------------------------------------------------------------
// Concurrency: clients uploading in parallel against the same cluster.
// ---------------------------------------------------------------------
TEST(ConcurrencyTest, ParallelClientsShareDedupSafely) {
  ReedSystem system(FastSystem(888));
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<client::ReedClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    std::string user = "c" + std::to_string(i);
    system.RegisterUser(user);
    ClientOptions opts;
    opts.rng_seed = 100 + i;
    opts.encryption_threads = 1;
    clients.push_back(system.CreateClient(user, opts));
  }
  // All clients upload the SAME content concurrently — the dedup index
  // must end up with exactly one copy, with no lost updates or crashes.
  DeterministicRng rng(14);
  Bytes shared_file = rng.Generate(256 * 1024);

  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      DiscardResult(clients[i]->Upload("shared-" + std::to_string(i),
                                       shared_file, {"c" + std::to_string(i)}));
    });
  }
  for (auto& t : threads) t.join();

  auto stats = system.TotalStats();
  EXPECT_EQ(stats.logical_chunks, stats.unique_chunks * kClients);
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(clients[i]->Download("shared-" + std::to_string(i)), shared_file);
  }
}

TEST(ConcurrencyTest, InterleavedUploadAndDownload) {
  ReedSystem system(FastSystem(999));
  system.RegisterUser("rw");
  ClientOptions opts;
  opts.rng_seed = 21;
  auto writer = system.CreateClient("rw", opts);
  auto reader = system.CreateClient("rw", opts);

  DeterministicRng rng(22);
  Bytes file = rng.Generate(128 * 1024);
  DiscardResult(writer->Upload("hot-file", file, {"rw"}));

  std::thread uploader([&] {
    for (int i = 0; i < 5; ++i) {
      DiscardResult(writer->Upload("hot-file-" + std::to_string(i), file,
                                   {"rw"}));
    }
  });
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(reader->Download("hot-file"), file);
  }
  uploader.join();
}

// ---------------------------------------------------------------------
// Upload edge cases.
// ---------------------------------------------------------------------
TEST(UploadEdgeCaseTest, EmptyFileRejected) {
  auto client = SharedSystem().CreateClient("prop", ClientOptions{});
  EXPECT_THROW(DiscardResult(client->Upload("empty", {}, {"prop"})), Error);
}

TEST(UploadEdgeCaseTest, ReuploadOverwritesMetadata) {
  ClientOptions opts;
  opts.rng_seed = 31;
  auto client = SharedSystem().CreateClient("prop", opts);
  DeterministicRng rng(32);
  Bytes v1 = rng.Generate(100 * 1024);
  Bytes v2 = rng.Generate(120 * 1024);
  DiscardResult(client->Upload("versioned", v1, {"prop"}));
  DiscardResult(client->Upload("versioned", v2, {"prop"}));
  EXPECT_EQ(client->Download("versioned"), v2);
}

TEST(UploadEdgeCaseTest, UploaderAlwaysInPolicy) {
  // Uploading with an empty/foreign authorized list still leaves the
  // uploader able to read their own file.
  ClientOptions opts;
  opts.rng_seed = 33;
  auto client = SharedSystem().CreateClient("prop", opts);
  DeterministicRng rng(34);
  Bytes file = rng.Generate(64 * 1024);
  DiscardResult(client->Upload("own-file", file, {}));
  EXPECT_EQ(client->Download("own-file"), file);
}

}  // namespace
}  // namespace reed
