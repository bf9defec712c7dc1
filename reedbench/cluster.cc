// The benchmark's deployment: durable storage servers and the key manager,
// each behind net::AsyncServer on loopback, reached through TcpChannels.
#include <filesystem>

#include "bench.h"
#include "net/tcp.h"
#include "rsa/rsa.h"

namespace reedbench {

using namespace reed;

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kUpload: return "upload";
    case OpKind::kRestore: return "restore";
    case OpKind::kRekeyLazy: return "rekey_lazy";
    case OpKind::kRekeyActive: return "rekey_active";
    case OpKind::kRekeyGroup: return "rekey_group";
  }
  return "?";
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

Bytes CountingChannel::Call(ByteSpan request) {
  counters_.calls.fetch_add(1, std::memory_order_relaxed);
  counters_.tx_bytes.fetch_add(request.size(), std::memory_order_relaxed);
  const std::uint32_t op = tracer_.enabled() ? tracer_.current_op() : 0;
  if (op == 0) {
    Bytes response = inner_->Call(request);
    counters_.rx_bytes.fetch_add(response.size(), std::memory_order_relaxed);
    return response;
  }
  Span span;
  span.id = tracer_.NewId();
  span.parent = op;
  span.op = op;
  span.kind = SpanKind::kRpc;
  span.endpoint = endpoint_;
  span.opcode = request.empty() ? 0 : request[0];
  span.start_ns = NowNs();
  counters_.inflight_span.store(span.id);
  Bytes response = inner_->Call(request);
  span.end_ns = NowNs();
  counters_.rx_bytes.fetch_add(response.size(), std::memory_order_relaxed);
  tracer_.Record(span);
  return response;
}

namespace {

// Server side of one endpoint: in a traced run, one handler span per request
// served during an op, parented to the client RPC span on the wire.
net::LocalChannel::Handler InstrumentHandler(net::LocalChannel::Handler inner,
                                             EndpointCounters& counters,
                                             Tracer& tracer,
                                             std::uint8_t endpoint) {
  if (!tracer.enabled()) return inner;
  return [inner = std::move(inner), &counters, &tracer,
          endpoint](ByteSpan request) {
    const std::uint32_t op = tracer.current_op();
    if (op == 0) return inner(request);
    Span span;
    span.id = tracer.NewId();
    span.parent = counters.inflight_span.load();
    span.op = op;
    span.kind = SpanKind::kHandler;
    span.endpoint = endpoint;
    span.opcode = request.empty() ? 0 : request[0];
    span.start_ns = NowNs();
    Bytes response = inner(request);
    span.end_ns = NowNs();
    tracer.Record(span);
    return response;
  };
}

// The front end `reed_serverd --async` runs, with its default loop and
// worker counts.
net::AsyncServer::Options FrontEndOptions() {
  net::AsyncServer::Options o;
  o.loops = 2;
  o.workers = 4;
  return o;
}

}  // namespace

Cluster::Cluster(std::uint64_t seed, const std::string& data_dir,
                 Tracer& tracer)
    : tracer_(tracer),
      data_dir_(data_dir),
      seed_(seed),
      rng_(DeriveSeed(seed, 1)) {
  abe_ = std::make_shared<const abe::CpAbe>(
      std::make_shared<const pairing::TypeAPairing>(
          pairing::TypeAParams::Default()));
  abe_setup_ = abe_->Setup(rng_);
  key_manager_ = std::make_unique<keymanager::KeyManager>(
      keymanager::KeyManager::Options{}, rng_);

  server::StorageServer::Options opts;
  opts.durability.fsync_policy = store::FsyncPolicy::kGrouped;
  opts.durability.group_commit_window = std::chrono::microseconds(500);
  for (std::size_t i = 0; i <= kNumDataServers; ++i) {
    std::string name = i < kNumDataServers
                           ? "data-server-" + std::to_string(i)
                           : std::string("key-server");
    opts.data_dir = data_dir_ + "/" + name;
    servers_.push_back(std::make_unique<server::StorageServer>(name, opts));
  }
  for (std::size_t e = 0; e < kNumEndpoints; ++e) {
    net::LocalChannel::Handler handler;
    if (e == kKeyManager) {
      keymanager::KeyManager* km = key_manager_.get();
      handler = [km](ByteSpan req) { return km->HandleRequest(req); };
    } else {
      server::StorageServer* srv = servers_[e].get();
      handler = [srv](ByteSpan req) { return srv->HandleRequest(req); };
    }
    fronts_.push_back(std::make_unique<net::AsyncServer>(
        0,
        InstrumentHandler(std::move(handler), counters_[e], tracer_,
                          static_cast<std::uint8_t>(e)),
        FrontEndOptions()));
  }

  owner_access_key_ = abe_->KeyGen(abe_setup_.pk, abe_setup_.mk,
                                   {"user:" + owner_id_}, rng_);
  owner_derivation_ = rsa::GenerateKeyPair(1024, rng_);
  owner_ = MakeClient(owner_id_, DeriveSeed(seed_, 2), /*counted=*/true,
                      owner_access_key_, owner_derivation_);
}

Cluster::~Cluster() {
  // Clients first (they hold connections), then the front ends (joined in
  // their destructors), then the servers they dispatch into.
  owner_.reset();
  fronts_.clear();
  servers_.clear();
}

std::shared_ptr<net::RpcChannel> Cluster::Connect(std::size_t endpoint,
                                                  bool counted) {
  auto tcp = std::make_shared<net::TcpChannel>(
      net::TcpTransport::Connect("127.0.0.1", fronts_[endpoint]->port()));
  if (!counted) return tcp;
  return std::make_shared<CountingChannel>(std::move(tcp),
                                           counters_[endpoint], tracer_,
                                           static_cast<std::uint8_t>(endpoint));
}

std::unique_ptr<client::ReedClient> Cluster::MakeClient(
    const std::string& user, std::uint64_t rng_seed, bool counted,
    abe::PrivateKey access_key, rsa::RsaKeyPair derivation) {
  std::vector<std::shared_ptr<net::RpcChannel>> data_channels;
  for (std::size_t i = 0; i < kNumDataServers; ++i) {
    data_channels.push_back(Connect(i, counted));
  }
  auto storage = std::make_shared<client::StorageClient>(
      std::move(data_channels), Connect(kKeyStore, counted));
  auto keys = std::make_shared<keymanager::MleKeyClient>(
      user, key_manager_->public_key(),
      std::vector<std::shared_ptr<net::RpcChannel>>{
          Connect(kKeyManager, counted)},
      keymanager::MleKeyClient::Options{});
  client::ClientOptions copts;
  copts.rng_seed = rng_seed;
  return std::make_unique<client::ReedClient>(
      user, copts, std::move(storage), std::move(keys), abe_, abe_setup_.pk,
      std::move(access_key), std::move(derivation));
}

std::unique_ptr<client::ReedClient> Cluster::ClientFor(
    const std::string& user) {
  if (!checker_derivation_) {
    checker_derivation_ =
        std::make_unique<rsa::RsaKeyPair>(rsa::GenerateKeyPair(1024, rng_));
  }
  abe::PrivateKey key =
      abe_->KeyGen(abe_setup_.pk, abe_setup_.mk, {"user:" + user}, rng_);
  return MakeClient(user, DeriveSeed(seed_, 3), /*counted=*/false,
                    std::move(key), *checker_derivation_);
}

std::shared_ptr<client::StorageClient> Cluster::AuditStorage() {
  std::vector<std::shared_ptr<net::RpcChannel>> data_channels;
  for (std::size_t i = 0; i < kNumDataServers; ++i) {
    data_channels.push_back(Connect(i, /*counted=*/false));
  }
  return std::make_shared<client::StorageClient>(
      std::move(data_channels), Connect(kKeyStore, /*counted=*/false));
}

std::vector<server::StorageServer*> Cluster::storage_servers() {
  std::vector<server::StorageServer*> out;
  for (auto& s : servers_) out.push_back(s.get());
  return out;
}

void Cluster::CloseStores() {
  for (auto& s : servers_) s->Close();
}

}  // namespace reedbench
