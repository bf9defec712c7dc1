// ReedSystem — the facade that wires a whole REED deployment together:
// one key manager, N data servers + 1 key-store server (paper §VI default:
// 4 + 1), the CP-ABE authority, and per-user key material. Examples, tests
// and benchmarks build a system, register users, and obtain clients.
//
// The network between components is either free (unit tests) or a
// SimulatedLink modeling the paper's 1 Gb/s LAN (benchmarks).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "abe/cpabe.h"
#include "client/reed_client.h"
#include "keymanager/key_manager.h"
#include "net/link.h"
#include "server/storage_server.h"

namespace reed::core {

struct SystemOptions {
  keymanager::KeyManager::Options key_manager;
  std::size_t num_data_servers = 4;  // plus one key-store server (§VI)
  std::size_t derivation_key_bits = 1024;  // per-user key-regression RSA
  // 0 bandwidth disables network simulation.
  double bandwidth_bps = 0;
  double rtt_seconds = 0;
  // Disk-seek model for server reads (see StorageServer::Options); 0 = off.
  double disk_seek_seconds = 0;
  // 0 = seed from the OS; fixed seeds make whole-system runs reproducible.
  std::uint64_t rng_seed = 0;
  // Each server gets its own subdirectory (data-server-<i>/, key-server/)
  // under this path and recovers whatever it finds there on construction.
  // Empty = every server keeps its store in its own scratch directory
  // (StorageServer::Options::data_dir).
  std::string data_dir;
  store::DurabilityOptions durability;

  static SystemOptions PaperTestbed() {
    SystemOptions o;
    o.bandwidth_bps = 1e9;
    o.rtt_seconds = 150e-6;
    return o;
  }
};

class ReedSystem {
 public:
  explicit ReedSystem(const SystemOptions& options);

  // Issues the user's private access key (CP-ABE, attribute "user:<id>")
  // and derivation key pair (key regression). Idempotent per user.
  void RegisterUser(const std::string& user_id);

  [[nodiscard]] bool IsRegistered(const std::string& user_id) const;

  // Builds a client for a registered user. Each client gets its own MLE
  // key cache and channels (per paper, one client per user machine).
  [[nodiscard]] std::unique_ptr<client::ReedClient> CreateClient(
      const std::string& user_id, const client::ClientOptions& options);

  keymanager::KeyManager& key_manager() { return *key_manager_; }
  const abe::CpAbe& abe() const { return *abe_; }
  const abe::PublicKey& abe_public_key() const { return abe_setup_.pk; }
  // The key manager's NIC link (null when simulation is off). Each storage
  // server has its own link too — as on the paper's testbed, where every
  // machine hangs off the switch with its own 1 Gb/s port, so aggregate
  // throughput can exceed a single link (Fig. 7(c)).
  std::shared_ptr<net::SimulatedLink> link() const { return km_link_; }
  std::size_t data_server_count() const { return data_servers_.size(); }
  server::StorageServer& data_server(std::size_t i) { return *data_servers_.at(i); }
  server::StorageServer& key_server() { return *key_server_; }

  // Restarts every storage server from disk — Close() (checkpoint) first when
  // `checkpoint_first`, else a cold crash-recovery reopen. Server addresses
  // are stable, so existing clients and channels keep working. Callers must
  // be quiesced (no in-flight uploads).
  void ReopenServers(bool checkpoint_first);

  // Aggregated storage accounting across the cluster (drives Fig. 9).
  struct StorageStats {
    std::uint64_t logical_bytes = 0;   // pre-dedup trimmed-package bytes
    std::uint64_t physical_bytes = 0;  // post-dedup trimmed-package bytes
    std::uint64_t stub_bytes = 0;      // encrypted stub files (no dedup)
    std::uint64_t metadata_bytes = 0;  // recipes + key states
    std::uint64_t unique_chunks = 0;
    std::uint64_t logical_chunks = 0;
  };
  [[nodiscard]] StorageStats TotalStats() const;

  crypto::Rng& rng() { return rng_; }

 private:
  struct UserKeys {
    abe::PrivateKey access_key;
    rsa::RsaKeyPair derivation_keys;
  };

  SystemOptions options_;
  crypto::ChaChaRng rng_;
  std::shared_ptr<net::SimulatedLink> km_link_;
  std::vector<std::shared_ptr<net::SimulatedLink>> server_links_;
  std::shared_ptr<net::SimulatedLink> key_server_link_;
  std::shared_ptr<const pairing::TypeAPairing> pairing_;
  std::shared_ptr<const abe::CpAbe> abe_;
  abe::CpAbe::SetupResult abe_setup_;
  std::unique_ptr<keymanager::KeyManager> key_manager_;
  std::vector<std::unique_ptr<server::StorageServer>> data_servers_;
  std::unique_ptr<server::StorageServer> key_server_;
  std::map<std::string, UserKeys> users_;
};

}  // namespace reed::core
