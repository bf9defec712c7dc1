// The REED server (paper §III-A, §V "Server"): server-side deduplication
// over trimmed packages plus blob storage for recipes, stub files, and —
// when acting as the key-store server — encrypted key states.
//
// Wire protocol (opcode byte + fields; see Handle* methods):
//   kPutChunks: upload a batch of (fingerprint, trimmed package); the server
//               stores only fingerprints it has never seen (dedup) and
//               reports which were duplicates.
//   kGetChunks: fetch trimmed packages by fingerprint.
//   kPutObject / kGetObject / kHasObject: named blobs in the data or key
//               store.
//   kGetStats:  dump the process-wide metrics registry (obs::Snapshot over
//               net/stats_wire.h) plus this server's storage gauges — the
//               payload behind `reedctl stats`.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "net/wire.h"
#include "store/durable_engine.h"
#include "util/file_io.h"
#include "util/thread_annotations.h"

namespace reed::server {

enum class Opcode : std::uint8_t {
  kPutChunks = 1,
  kGetChunks = 2,
  kPutObject = 3,
  kGetObject = 4,
  kHasObject = 5,
  kGetStats = 6,
};

enum class StoreId : std::uint8_t {
  kData = 0,  // recipes, stub files, file metadata
  kKey = 1,   // encrypted key states (paper's separate key store)
};

class StorageServer {
 public:
  struct Options {
    std::size_t container_capacity =
        store::ContainerStore::kDefaultContainerSize;
    // Disk model for reads: seek cost charged whenever consecutive chunk
    // reads switch containers. Backups fragment over days (new chunks land
    // in new containers interleaved with old ones), which is what degrades
    // restore speed in the paper's Fig. 10 / [Lillibridge FAST'13]. 0 = off.
    double read_seek_seconds = 0;
    // Containers, the fingerprint index, and both object stores persist
    // under this directory (DESIGN.md §12), and construction runs crash
    // recovery over whatever it finds there. Empty = a scratch directory
    // the server creates and removes in its destructor; it cannot outlive
    // the process, so it runs with FsyncPolicy::kNone whatever
    // `durability` says.
    std::string data_dir;
    store::DurabilityOptions durability;
  };

  explicit StorageServer(std::string name = "server");
  StorageServer(std::string name, Options options);
  ~StorageServer();

  const std::string& name() const { return name_; }

  // --- durable lifecycle (open happens in the constructor) ---

  // Drops all in-memory state and recovers from disk, exactly like a
  // process restart, while the object identity (and any channels pointing
  // at it) stays valid. Caller must be quiesced — this is a lifecycle
  // operation, not a data path.
  void Reopen();

  // Checkpoints the metadata plane and flushes everything so a subsequent
  // open replays nothing. The server remains usable.
  void Close();

  // Recovery statistics from the last open/Reopen.
  [[nodiscard]] store::DurableEngine::RecoveryStats RecoveryStats() const;

  // --- direct API (also reachable via HandleRequest) ---

  struct PutChunksResult {
    std::size_t duplicates = 0;
    std::size_t stored = 0;
    std::uint64_t stored_bytes = 0;
  };
  // Each (fingerprint, trimmed package) pair views bytes the caller keeps
  // alive for the call; only the chunks the dedup check keeps are copied,
  // into the container store.
  [[nodiscard]] PutChunksResult PutChunks(
      const std::vector<std::pair<chunk::Fingerprint, ByteSpan>>& chunks);

  // Throws Error if any fingerprint is unknown.
  [[nodiscard]] std::vector<Bytes> GetChunks(
      const std::vector<chunk::Fingerprint>& fps);

  void PutObject(StoreId store, const std::string& name, Bytes value);
  [[nodiscard]] Bytes GetObject(StoreId store, const std::string& name) const;
  [[nodiscard]] bool HasObject(StoreId store, const std::string& name) const;

  struct Stats {
    std::uint64_t logical_chunks = 0;   // chunks received (pre-dedup)
    std::uint64_t logical_bytes = 0;
    std::uint64_t unique_chunks = 0;    // chunks stored (post-dedup)
    std::uint64_t physical_bytes = 0;   // trimmed-package bytes stored
    std::uint64_t data_object_bytes = 0;
    std::uint64_t key_object_bytes = 0;
  };
  [[nodiscard]] Stats stats() const;

  // Storage-accounting helper: object bytes under a name prefix.
  [[nodiscard]] std::uint64_t ObjectBytesWithPrefix(StoreId store,
                                      std::string_view prefix) const {
    return StoreFor(store).TotalBytesWithPrefix(prefix);
  }

  // Wire entry point: status byte 0 = OK, 1 = error (+ message).
  [[nodiscard]] Bytes HandleRequest(ByteSpan request);

  // Cross-checks the dedup state after a failure: every index entry must
  // resolve to a readable container location (no dangling entries), and the
  // container store must hold exactly the indexed chunks/bytes (no orphaned
  // appends). Walks the whole index — a test/recovery facility, not a data
  // path. `ok` is false on the first violation, described in `detail`.
  struct ConsistencyReport {
    bool ok = true;
    std::string detail;
    std::uint64_t index_entries = 0;
    std::uint64_t index_bytes = 0;    // sum of indexed location lengths
    std::uint64_t stored_chunks = 0;  // container-store chunk count
    std::uint64_t stored_bytes = 0;   // container-store payload bytes
  };
  [[nodiscard]] ConsistencyReport CheckConsistency() const;

  // Order-independent digest over every stored trimmed package:
  // SHA-256 over the (fingerprint, payload) pairs sorted by fingerprint.
  // Recipes, stubs, and key states are deliberately excluded — this is the
  // model checker's oracle that a stub-only rekey left the package bytes on
  // this server bit-identical (paper §IV-A: revocation never rewrites
  // packages). Walks the whole index like CheckConsistency — a test/audit
  // facility, not a data path.
  [[nodiscard]] std::string PackageDigest() const;

 private:
  store::ObjectStore& StoreFor(StoreId id) const {
    return id == StoreId::kData ? engine_->data_objects()
                                : engine_->key_objects();
  }

  std::string name_;
  Options options_;
  // Set when Options::data_dir was empty; declared before engine_ so the
  // engine closes its files before the directory is removed.
  std::optional<util::ScratchDir> scratch_;
  // Reopen() rebuilds the engine in place with one pointer swap while the
  // StorageServer address — captured raw by in-process channels
  // (core::ReedSystem) — stays stable.
  std::unique_ptr<store::DurableEngine> engine_;

  // Serializes the dedup check-then-store step in PutChunks; see there.
  // index_ and containers_ lock themselves — the ingest stripes guard the
  // lookup→append→insert *compound*, not any single member. Striped by
  // fingerprint so concurrent sessions ingesting distinct chunks proceed in
  // parallel while two writers racing on the SAME fingerprint still
  // serialize (same stripe), preserving the one-copy dedup invariant.
  // Wrapped in a struct so each array element default-constructs with its
  // rank (Mutex is not copyable, so a braced array initializer cannot).
  struct IngestStripe {
    Mutex mu{LockRank::kServerIngest};
  };
  static constexpr std::size_t kIngestStripes = 16;
  std::array<IngestStripe, kIngestStripes> ingest_mu_;
  mutable Mutex stats_mu_{LockRank::kServerStats};
  std::uint64_t logical_chunks_ REED_GUARDED_BY(stats_mu_) = 0;
  std::uint64_t logical_bytes_ REED_GUARDED_BY(stats_mu_) = 0;
};

}  // namespace reed::server
