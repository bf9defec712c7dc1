// Client-side storage proxy: speaks the StorageServer wire protocol to a
// cluster of data servers plus one key-store server (paper §VI default:
// four data servers + one key server).
//
// Chunks are sharded across data servers by fingerprint, which preserves
// global dedup (identical trimmed packages always land on the same server)
// while spreading load — the multi-server parallelism of §V-B. Per-server
// requests fan out concurrently over an internal thread pool (each server
// has its own NIC on the paper's testbed, so batch wall time is the max of
// the per-server transfers, not their sum), and each server may be reached
// through a striped pool of channels so several batches can be in flight
// per server at once (DESIGN.md §10).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "chunk/fingerprint.h"
#include "net/rpc.h"
#include "server/storage_server.h"
#include "util/thread_pool.h"

namespace reed::client {

class StorageClient {
 public:
  // One channel per data server (no striping).
  StorageClient(std::vector<std::shared_ptr<net::RpcChannel>> data_servers,
                std::shared_ptr<net::RpcChannel> key_server);

  // Striped form: data_servers[s] holds N parallel channels to server s,
  // picked round-robin per call. Every inner vector must be non-empty.
  StorageClient(
      std::vector<std::vector<std::shared_ptr<net::RpcChannel>>> data_servers,
      std::shared_ptr<net::RpcChannel> key_server);

  std::size_t data_server_count() const { return data_servers_.size(); }

  struct PutStats {
    std::size_t duplicates = 0;
    std::size_t stored = 0;
    std::uint64_t stored_bytes = 0;
  };
  // Uploads one batch, one concurrent request per target server.
  // Thread-safe: concurrent batches share the fan-out pool and the striped
  // channels.
  [[nodiscard]] PutStats PutChunks(
      const std::vector<std::pair<chunk::Fingerprint, Bytes>>& chunks);

  // A GetChunks result without per-chunk copies: each server's response
  // frame, and one view per requested chunk, in request order, into the
  // frame that carried it. Move-only, so no view outlives its frame.
  struct FetchedChunks {
    FetchedChunks() = default;
    FetchedChunks(FetchedChunks&&) = default;
    FetchedChunks& operator=(FetchedChunks&&) = default;
    FetchedChunks(const FetchedChunks&) = delete;
    FetchedChunks& operator=(const FetchedChunks&) = delete;

    std::vector<Bytes> frames;
    std::vector<ByteSpan> chunks;
  };

  // Fetches chunks (order-preserving), gathering concurrently from the
  // owning servers. Every returned package is verified against the
  // requested fingerprint — a server returning tampered or swapped bytes
  // is detected here, before any decode work trusts them.
  [[nodiscard]] FetchedChunks GetChunks(const std::vector<chunk::Fingerprint>& fps);

  void PutObject(server::StoreId store, const std::string& name, ByteSpan value);
  [[nodiscard]] Bytes GetObject(server::StoreId store, const std::string& name);
  [[nodiscard]] bool HasObject(server::StoreId store, const std::string& name);

 private:
  // Round-robin stripe pick + in-flight accounting around one RPC.
  Bytes CallServer(std::size_t server, ByteSpan request);
  Bytes CallChannel(net::RpcChannel& channel, ByteSpan request);
  std::size_t ServerIndexForObject(server::StoreId store,
                                   const std::string& name) const;
  static void CheckStatus(net::Reader& r);

  // Runs task(s) for every server in `targets` on the fan-out pool,
  // rethrowing the first failure after all complete. A single target runs
  // inline — no handoff cost on the common unit-test path.
  template <typename F>
  void ForEachTarget(const std::vector<std::size_t>& targets, F&& task);

  std::vector<std::vector<std::shared_ptr<net::RpcChannel>>> data_servers_;
  std::shared_ptr<net::RpcChannel> key_server_;
  std::atomic<std::uint64_t> next_stripe_{0};
  ThreadPool pool_;
};

}  // namespace reed::client
