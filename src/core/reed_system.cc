#include "core/reed_system.h"

#include <algorithm>

namespace reed::core {

namespace {
crypto::ChaChaRng MakeSystemRng(std::uint64_t seed) {
  if (seed == 0) return crypto::ChaChaRng(crypto::SecureRandom::Generate(32));
  return crypto::DeterministicRng(seed);
}
}  // namespace

ReedSystem::ReedSystem(const SystemOptions& options)
    : options_(options), rng_(MakeSystemRng(options.rng_seed)) {
  if (options_.num_data_servers == 0) {
    throw Error("ReedSystem: need at least one data server");
  }
  if (options_.bandwidth_bps > 0) {
    auto make_link = [&] {
      return std::make_shared<net::SimulatedLink>(options_.bandwidth_bps,
                                                  options_.rtt_seconds);
    };
    km_link_ = make_link();
    for (std::size_t i = 0; i < options_.num_data_servers; ++i) {
      server_links_.push_back(make_link());
    }
    key_server_link_ = make_link();
  }
  pairing_ = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  abe_ = std::make_shared<const abe::CpAbe>(pairing_);
  abe_setup_ = abe_->Setup(rng_);
  key_manager_ =
      std::make_unique<keymanager::KeyManager>(options_.key_manager, rng_);
  server::StorageServer::Options server_opts;
  server_opts.read_seek_seconds = options_.disk_seek_seconds;
  server_opts.durability = options_.durability;
  auto make_server = [&](const std::string& name) {
    // No cluster directory: each server picks its own scratch directory.
    server_opts.data_dir =
        options_.data_dir.empty() ? "" : options_.data_dir + "/" + name;
    return std::make_unique<server::StorageServer>(name, server_opts);
  };
  for (std::size_t i = 0; i < options_.num_data_servers; ++i) {
    data_servers_.push_back(make_server("data-server-" + std::to_string(i)));
  }
  key_server_ = make_server("key-server");
}

void ReedSystem::ReopenServers(bool checkpoint_first) {
  for (const auto& srv : data_servers_) {
    if (checkpoint_first) srv->Close();
    srv->Reopen();
  }
  if (checkpoint_first) key_server_->Close();
  key_server_->Reopen();
}

void ReedSystem::RegisterUser(const std::string& user_id) {
  if (users_.contains(user_id)) return;
  UserKeys keys{
      abe_->KeyGen(abe_setup_.pk, abe_setup_.mk, {"user:" + user_id}, rng_),
      rsa::GenerateKeyPair(options_.derivation_key_bits, rng_)};
  users_.emplace(user_id, std::move(keys));
}

bool ReedSystem::IsRegistered(const std::string& user_id) const {
  return users_.contains(user_id);
}

std::unique_ptr<client::ReedClient> ReedSystem::CreateClient(
    const std::string& user_id, const client::ClientOptions& options) {
  auto it = users_.find(user_id);
  if (it == users_.end()) {
    throw Error("ReedSystem: user not registered: " + user_id);
  }

  // A null link (no simulated network) makes the channel a direct call.
  auto make_channel = [](server::StorageServer* srv,
                         std::shared_ptr<net::SimulatedLink> link)
      -> std::shared_ptr<net::RpcChannel> {
    return std::make_shared<net::LocalChannel>(
        [srv](ByteSpan req) { return srv->HandleRequest(req); },
        std::move(link));
  };

  // Striped channels per server (DESIGN.md §10): the stripes of a simulated
  // server share its link, so striping buys RPC concurrency (several batches
  // in flight per server) without inventing bandwidth the link doesn't have.
  const std::size_t stripes =
      std::max<std::size_t>(1, options.pipeline.channels_per_server);
  std::vector<std::vector<std::shared_ptr<net::RpcChannel>>> data_channels;
  data_channels.reserve(data_servers_.size());
  for (std::size_t i = 0; i < data_servers_.size(); ++i) {
    std::vector<std::shared_ptr<net::RpcChannel>> server_stripes;
    server_stripes.reserve(stripes);
    for (std::size_t c = 0; c < stripes; ++c) {
      server_stripes.push_back(make_channel(
          data_servers_[i].get(),
          server_links_.empty() ? nullptr : server_links_[i]));
    }
    data_channels.push_back(std::move(server_stripes));
  }
  auto storage = std::make_shared<client::StorageClient>(
      std::move(data_channels),
      make_channel(key_server_.get(), key_server_link_));

  keymanager::KeyManager* km = key_manager_.get();
  auto km_channel = std::make_shared<net::LocalChannel>(
      [km](ByteSpan req) { return km->HandleRequest(req); }, km_link_);
  auto keys = std::make_shared<keymanager::MleKeyClient>(
      user_id, key_manager_->public_key(), std::move(km_channel),
      options.key_options);

  return std::make_unique<client::ReedClient>(
      user_id, options, std::move(storage), std::move(keys), abe_,
      abe_setup_.pk, it->second.access_key, it->second.derivation_keys);
}

ReedSystem::StorageStats ReedSystem::TotalStats() const {
  StorageStats total;
  for (const auto& srv : data_servers_) {
    auto s = srv->stats();
    total.logical_bytes += s.logical_bytes;
    total.physical_bytes += s.physical_bytes;
    total.logical_chunks += s.logical_chunks;
    total.unique_chunks += s.unique_chunks;
    std::uint64_t stub =
        srv->ObjectBytesWithPrefix(server::StoreId::kData, "stub/");
    total.stub_bytes += stub;
    total.metadata_bytes += s.data_object_bytes - stub;  // recipes etc.
  }
  total.metadata_bytes += key_server_->stats().key_object_bytes;
  return total;
}

}  // namespace reed::core
