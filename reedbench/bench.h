// Shared declarations of the REED end-to-end benchmark: the span recorder,
// the instrumented channel/handler wrappers, the in-process durable cluster
// served over loopback sockets, and the per-run result record.
//
// Everything here sits outside the REED library: spans are taken around
// calls into each layer's public functions (ReedClient ops, RpcChannel::Call
// on the client side, StorageServer/KeyManager::HandleRequest on the server
// side), and the program's own obs::Registry counters are read as deltas.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "abe/cpabe.h"
#include "client/reed_client.h"
#include "keymanager/key_manager.h"
#include "net/async_server.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "server/storage_server.h"

namespace reedbench {

using reed::Bytes;
using reed::ByteSpan;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// SplitMix64: derives every sub-seed from the one --seed argument. Never
// returns 0, because a zero seed means "OS randomness" to the REED library.
[[nodiscard]] std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t {
  kUpload,
  kRestore,
  kRekeyLazy,
  kRekeyActive,
  kRekeyGroup,
};
[[nodiscard]] const char* OpKindName(OpKind kind);

enum class SpanKind : std::uint8_t { kOp, kRpc, kHandler };

// Endpoints 0-3 are the data servers, 4 the key-store server, 5 the key
// manager.
inline constexpr std::size_t kNumDataServers = 4;
inline constexpr std::size_t kKeyStore = 4;
inline constexpr std::size_t kKeyManager = 5;
inline constexpr std::size_t kNumEndpoints = 6;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root (an op span)
  std::uint32_t op = 0;      // id of the op span this work belongs to
  SpanKind kind = SpanKind::kOp;
  std::uint8_t endpoint = 0;  // kRpc / kHandler
  std::uint8_t opcode = 0;    // first request byte (server::Opcode)
  OpKind op_kind = OpKind::kUpload;  // kOp
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// In-memory span store. Only one op is in flight at a time, so the current
// op id is one atomic; RPC and handler spans that start while it is set
// belong to that op. Spans are appended under a mutex and written out when
// the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint32_t NewId() { return next_id_.fetch_add(1) + 1; }
  [[nodiscard]] std::uint32_t current_op() const { return current_op_.load(); }
  void set_current_op(std::uint32_t op) { current_op_.store(op); }
  void Record(const Span& span);
  [[nodiscard]] std::vector<Span> Take();

 private:
  const bool enabled_;
  std::atomic<std::uint32_t> next_id_{0};
  std::atomic<std::uint32_t> current_op_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Per-endpoint traffic counters, kept in every run (untraced too): they are
// plain relaxed atomics, the cost of a few nanoseconds per RPC.
struct EndpointCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> tx_bytes{0};
  std::atomic<std::uint64_t> rx_bytes{0};
  // Id of the client RPC span currently on the wire to this endpoint (each
  // endpoint has one serialized channel, so at most one is in flight).
  std::atomic<std::uint32_t> inflight_span{0};
};

// Client side of one endpoint: a TcpChannel wrapped with counters and, in a
// traced run, an RPC span per call.
class CountingChannel : public reed::net::RpcChannel {
 public:
  CountingChannel(std::shared_ptr<reed::net::RpcChannel> inner,
                  EndpointCounters& counters, Tracer& tracer,
                  std::uint8_t endpoint)
      : inner_(std::move(inner)),
        counters_(counters),
        tracer_(tracer),
        endpoint_(endpoint) {}

  [[nodiscard]] Bytes Call(ByteSpan request) override;

 private:
  std::shared_ptr<reed::net::RpcChannel> inner_;
  EndpointCounters& counters_;
  Tracer& tracer_;
  std::uint8_t endpoint_;
};

// ---------------------------------------------------------------------------
// The deployment
// ---------------------------------------------------------------------------

// 4 durable data servers + 1 durable key-store server + the key manager,
// each behind its own net::AsyncServer on loopback, plus the CP-ABE
// authority and the owner's keys. Construction is the timed part of
// set-up; destruction stops every front end and joins its threads.
class Cluster {
 public:
  Cluster(std::uint64_t seed, const std::string& data_dir, Tracer& tracer);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // The owner's client: built from public constructors over TcpChannels,
  // the way reedctl builds one. Only the owner's channels are counted.
  [[nodiscard]] reed::client::ReedClient& owner() { return *owner_; }
  [[nodiscard]] const std::string& owner_id() const { return owner_id_; }

  // An uncounted client for another user (revocation checks). Its ABE key
  // is issued on first use.
  [[nodiscard]] std::unique_ptr<reed::client::ReedClient> ClientFor(
      const std::string& user);

  // An uncounted storage client for the checks' direct object reads.
  [[nodiscard]] std::shared_ptr<reed::client::StorageClient> AuditStorage();

  [[nodiscard]] EndpointCounters& counters(std::size_t endpoint) {
    return counters_[endpoint];
  }
  [[nodiscard]] std::vector<reed::server::StorageServer*> storage_servers();
  [[nodiscard]] const std::string& data_dir() const { return data_dir_; }

  // Layer handles for the traced run's replay of rekey internals.
  [[nodiscard]] const reed::abe::CpAbe& abe() const { return *abe_; }
  [[nodiscard]] const reed::abe::PublicKey& abe_pk() const {
    return abe_setup_.pk;
  }
  [[nodiscard]] const reed::abe::PrivateKey& owner_access_key() const {
    return owner_access_key_;
  }
  [[nodiscard]] const reed::rsa::RsaKeyPair& owner_derivation() const {
    return owner_derivation_;
  }

  // Checkpoints every storage server (StorageServer::Close) so the bytes
  // under data_dir() are the steady-state footprint.
  void CloseStores();

 private:
  [[nodiscard]] std::shared_ptr<reed::net::RpcChannel> Connect(
      std::size_t endpoint, bool counted);
  [[nodiscard]] std::unique_ptr<reed::client::ReedClient> MakeClient(
      const std::string& user, std::uint64_t rng_seed, bool counted,
      reed::abe::PrivateKey access_key, reed::rsa::RsaKeyPair derivation);

  Tracer& tracer_;
  std::string data_dir_;
  std::string owner_id_ = "owner";
  std::uint64_t seed_;
  reed::crypto::DeterministicRng rng_;
  std::array<EndpointCounters, kNumEndpoints> counters_;
  std::shared_ptr<const reed::abe::CpAbe> abe_;
  reed::abe::CpAbe::SetupResult abe_setup_;
  std::unique_ptr<reed::keymanager::KeyManager> key_manager_;
  std::vector<std::unique_ptr<reed::server::StorageServer>> servers_;
  std::vector<std::unique_ptr<reed::net::AsyncServer>> fronts_;
  reed::abe::PrivateKey owner_access_key_;
  reed::rsa::RsaKeyPair owner_derivation_;
  std::unique_ptr<reed::client::ReedClient> owner_;
  // Shared by every checker client: they only download, which never uses
  // the derivation private key.
  std::unique_ptr<reed::rsa::RsaKeyPair> checker_derivation_;
};

// ---------------------------------------------------------------------------
// Per-run results
// ---------------------------------------------------------------------------

// One timed op, with the registry deltas and replayed layer timings the
// traced run attaches to it.
struct OpSample {
  OpKind kind = OpKind::kUpload;
  std::uint32_t span_id = 0;
  double wall_ms = 0;
  std::uint64_t logical_bytes = 0;  // uploads and restores
  std::uint64_t storage_tx_bytes = 0;  // sent to storage servers (uploads)
  std::map<std::string, double> layer;  // traced run only
};

struct RunResult {
  std::vector<OpSample> ops;
  std::vector<double> setup_s;
  std::vector<double> probe_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;
  std::uint64_t logical_bytes_stored = 0;  // every upload, preload included
  std::map<std::string, std::uint64_t> disk_bytes;  // segments/wal/checkpoint
  std::map<std::string, std::uint64_t> counts;  // determinism guard
  std::vector<Span> spans;
};

struct WorkloadArgs {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string work_dir;  // set-up data directories live under here
  std::string out_dir;   // span dumps and untraced end-to-end results
};

// Runs one workload end to end (set-ups, timed ops, checks). Never throws
// for an op failure: those are counted in `failed`.
[[nodiscard]] RunResult RunWorkload(const WorkloadArgs& args);

[[nodiscard]] bool IsWorkload(const std::string& name);

// Prints the human-readable report, the trace breakdown (traced runs) and,
// as the last line, the JSON result. Returns the process exit code.
int Report(const WorkloadArgs& args, const RunResult& result);

}  // namespace reedbench
