// Fingerprint index and named-object store.
//
// FingerprintIndex: the server-side dedup index over *trimmed package*
// fingerprints (paper §III-A) — maps fingerprint -> container location.
// ObjectStore: named blobs (file recipes, encrypted stub files, encrypted
// key states, metadata); the data store and the key store are two
// ObjectStore instances (paper §V "Storage backend" separates them).
//
// Both are sharded N-ways by key hash (DESIGN.md §10): AsyncServer's
// handler workers and the client's concurrent RPC fan-out hammer these maps
// from many threads at once, and a single mutex would serialize the whole
// data path. Each shard carries its own lock; cross-shard invariants do not
// exist (a key lives in exactly one shard), so the public API is unchanged
// and per-call results are identical to the unsharded store. Lock
// contention per store is observable via the store.*.shard_contention
// counters.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "chunk/fingerprint.h"
#include "store/container_store.h"
#include "util/thread_annotations.h"

namespace reed::store {

class Wal;

class FingerprintIndex {
 public:
  static constexpr std::size_t kNumShards = 8;

  // Every successful Insert/Erase appends a redo record to `wal` under the
  // shard lock (LockRank::kStoreWal ranks above kStoreShard), so recovery
  // replays mutations in per-shard apply order.
  explicit FingerprintIndex(Wal& wal) : wal_(wal) {}

  // Returns the existing location, or nullopt if the fingerprint is new.
  [[nodiscard]] std::optional<ChunkLocation> Lookup(
      const chunk::Fingerprint& fp) const;

  // Inserts a new mapping; returns false if already present. An ignored
  // false return means the caller stored a chunk body nothing will ever
  // reference — always check it.
  [[nodiscard]] bool Insert(const chunk::Fingerprint& fp,
                            const ChunkLocation& loc);

  // Drops a mapping; returns false if absent. Outside tests this is the
  // recovery reconciler's tool for dangling entries, not a data-path op.
  [[nodiscard]] bool Erase(const chunk::Fingerprint& fp);

  [[nodiscard]] std::size_t size() const;

  // Visits every entry, one shard at a time (the callback runs under that
  // shard's lock — keep it cheap and lock-free). Entries inserted or erased
  // concurrently in other shards may or may not be seen; used by
  // StorageServer::CheckConsistency and stats walks, not the data path.
  void ForEach(
      const std::function<void(const chunk::Fingerprint&, const ChunkLocation&)>&
          fn) const;

  // Recovery-only (DurableEngine, single-threaded): re-apply a checkpoint
  // or WAL record without re-logging it. ReplayInsert overwrites — WAL
  // records are replayed in order, so last-writer-wins converges on the
  // pre-crash state.
  void ReplayInsert(const chunk::Fingerprint& fp, const ChunkLocation& loc);
  void ReplayErase(const chunk::Fingerprint& fp);

 private:
  struct Shard {
    mutable Mutex mu{LockRank::kStoreShard};
    std::unordered_map<chunk::Fingerprint, ChunkLocation,
                       chunk::FingerprintHash>
        map REED_GUARDED_BY(mu);
  };

  // High bits pick the shard so the map's bucket hash (low bits) stays
  // decorrelated from shard membership.
  Shard& ShardFor(const chunk::Fingerprint& fp) const {
    return shards_[(chunk::FingerprintHash{}(fp) >> 56) % kNumShards];
  }

  Wal& wal_;
  mutable std::array<Shard, kNumShards> shards_;
};

class ObjectStore {
 public:
  static constexpr std::size_t kNumShards = 8;

  // `store_tag` distinguishes the data store from the key store inside the
  // one shared WAL (server::StoreId values).
  ObjectStore(Wal& wal, std::uint8_t store_tag)
      : wal_(wal), store_tag_(store_tag) {}

  void Put(const std::string& name, Bytes value);
  // Throws Error if absent.
  [[nodiscard]] Bytes Get(const std::string& name) const;
  [[nodiscard]] bool Contains(const std::string& name) const;
  // Returns false when no such object existed — a dropped false return
  // turns "delete failed" into "deleted", so callers must check.
  [[nodiscard]] bool Erase(const std::string& name);

  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  // Total value bytes of objects whose name starts with `prefix` (used for
  // storage accounting: "stub/", "recipe/", "keystate/"). Directory-shaped
  // prefixes ("stub/" — a single trailing-slash segment) are answered from
  // per-directory byte counters maintained by Put/Erase in O(shards);
  // arbitrary prefixes fall back to a scan with identical results.
  [[nodiscard]] std::uint64_t TotalBytesWithPrefix(std::string_view prefix) const;

  // Visits every object, one shard at a time (callback runs under that
  // shard's lock — keep it cheap). Checkpointing and the counter-vs-rescan
  // regression tests use this; it is not a data path.
  void ForEach(
      const std::function<void(const std::string&, const Bytes&)>& fn) const;

  // Recovery-only: re-apply checkpoint/WAL records without re-logging.
  void ReplayPut(const std::string& name, Bytes value);
  void ReplayErase(const std::string& name);

 private:
  struct Shard {
    mutable Mutex mu{LockRank::kStoreShard};
    std::unordered_map<std::string, Bytes> objects REED_GUARDED_BY(mu);
    std::uint64_t bytes REED_GUARDED_BY(mu) = 0;
    // Value bytes keyed by the name's leading directory ("stub/", "" for
    // slashless names). Bounded by the handful of name families the system
    // uses, not by object count.
    std::map<std::string, std::uint64_t, std::less<>> dir_bytes
        REED_GUARDED_BY(mu);
  };

  Shard& ShardFor(std::string_view name) const {
    return shards_[(std::hash<std::string_view>{}(name) >> 56) % kNumShards];
  }

  // Applies a put to `shard` and returns the value bytes delta; shared by
  // the logging and replay paths so the per-directory counters (the O(1)
  // prefix accounting) move identically under both.
  void PutLocked(Shard& shard, const std::string& name, Bytes value)
      REED_REQUIRES(shard.mu);
  bool EraseLocked(Shard& shard, const std::string& name)
      REED_REQUIRES(shard.mu);

  Wal& wal_;
  std::uint8_t store_tag_;
  mutable std::array<Shard, kNumShards> shards_;
};

}  // namespace reed::store
