// Deployment-style wiring: the key manager and a 4+1 server cluster each
// served over real TCP sockets (here as threads; in production, separate
// machines), with two independent clients demonstrating cross-user dedup
// through the full wire protocol.
//
//   ./examples/multi_server_tcp
#include <cstdio>
#include <vector>

#include "abe/cpabe.h"
#include "client/reed_client.h"
#include "crypto/random.h"
#include "keymanager/key_manager.h"
#include "keymanager/mle_key_client.h"
#include "net/async_server.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "server/storage_server.h"
#include "util/stopwatch.h"

using namespace reed;

int main() {
  std::printf("=== REED over TCP: 1 key manager + 4 data servers + 1 key server ===\n\n");
  crypto::DeterministicRng rng(77);

  // --- services ---
  keymanager::KeyManager::Options km_opts;  // paper default: 1024-bit RSA
  keymanager::KeyManager km(km_opts, rng);
  std::vector<std::unique_ptr<server::StorageServer>> servers;
  for (int i = 0; i < 5; ++i) {
    servers.push_back(std::make_unique<server::StorageServer>(
        i < 4 ? "data-" + std::to_string(i) : "key-server"));
  }

  net::AsyncServer km_service(
      0, [&km](ByteSpan req) { return km.HandleRequest(req); });
  std::vector<std::unique_ptr<net::AsyncServer>> storage_services;
  for (auto& s : servers) {
    server::StorageServer* raw = s.get();
    storage_services.push_back(std::make_unique<net::AsyncServer>(
        0, [raw](ByteSpan req) { return raw->HandleRequest(req); }));
  }
  std::printf("key manager on tcp:%u, servers on tcp:", km_service.port());
  for (auto& svc : storage_services) std::printf(" %u", svc->port());
  std::printf("\n\n");

  // --- shared access-control authority ---
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  auto abe = std::make_shared<const abe::CpAbe>(pairing);
  auto setup = abe->Setup(rng);

  auto make_client = [&](const std::string& user) {
    std::vector<std::shared_ptr<net::RpcChannel>> data_channels;
    for (int i = 0; i < 4; ++i) {
      data_channels.push_back(std::make_shared<net::TcpChannel>(
          net::TcpTransport::Connect("127.0.0.1", storage_services[i]->port())));
    }
    auto key_channel = std::make_shared<net::TcpChannel>(
        net::TcpTransport::Connect("127.0.0.1", storage_services[4]->port()));
    auto storage = std::make_shared<client::StorageClient>(
        std::move(data_channels), key_channel);
    auto km_channel = std::make_shared<net::TcpChannel>(
        net::TcpTransport::Connect("127.0.0.1", km_service.port()));
    auto keys = std::make_shared<keymanager::MleKeyClient>(
        user, km.public_key(), km_channel, keymanager::MleKeyClient::Options{});
    client::ClientOptions copts;
    copts.rng_seed = std::hash<std::string>{}(user);
    return std::make_unique<client::ReedClient>(
        user, copts, storage, keys, abe, setup.pk,
        abe->KeyGen(setup.pk, setup.mk, {"user:" + user}, rng),
        rsa::GenerateKeyPair(1024, rng));
  };

  auto alice = make_client("alice");
  auto bob = make_client("bob");

  crypto::DeterministicRng data_rng(42);
  Bytes file = data_rng.Generate(8 << 20);

  Stopwatch sw;
  auto r1 = alice->Upload("shared-dataset", file, {"alice", "bob"});
  std::printf("alice uploads 8 MB over TCP: %zu chunks stored, %.1f MB/s\n",
              r1.stored_chunks, MbPerSec(r1.logical_bytes, sw.ElapsedSeconds()));

  sw.Reset();
  auto r2 = bob->Upload("bobs-copy", file, {"bob"});
  std::printf("bob uploads identical data:  %zu/%zu chunks deduplicated, %.1f MB/s\n",
              r2.duplicate_chunks, r2.chunk_count,
              MbPerSec(r2.logical_bytes, sw.ElapsedSeconds()));

  sw.Reset();
  Bytes fetched = bob->Download("shared-dataset");
  std::printf("bob downloads alice's file:  %s, %.1f MB/s\n",
              fetched == file ? "verified" : "MISMATCH",
              MbPerSec(fetched.size(), sw.ElapsedSeconds()));

  std::uint64_t physical = 0;
  for (int i = 0; i < 4; ++i) physical += servers[i]->stats().physical_bytes;
  std::printf("\ncluster stores %.1f MB physical for %.1f MB logical across 4 shards:",
              ToMiB(physical), ToMiB(r1.logical_bytes + r2.logical_bytes));
  for (int i = 0; i < 4; ++i) {
    std::printf(" [%s: %.1fMB]", servers[i]->name().c_str(),
                ToMiB(servers[i]->stats().physical_bytes));
  }
  std::printf("\n");
  return 0;
}
