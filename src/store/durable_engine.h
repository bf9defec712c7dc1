// DurableEngine: a StorageServer's store (DESIGN.md §12). Owns the WAL
// (metadata plane), the SegmentLog (data plane) and the index checkpoint,
// plus the four stores attached to them — containers, fingerprint index,
// data objects and key objects — and rebuilds those stores from disk on
// construction:
//
//   1. replay segment files -> ContainerStore (torn tail truncated by CRC);
//   2. load the checkpoint, if any, into index + object stores;
//   3. replay the WAL tail on top (idempotent, last-writer-wins);
//   4. reconcile the two planes: container chunks with no index entry
//      (append durable, insert lost) are discarded; index entries whose
//      location no longer resolves (insert durable, append torn) are
//      erased. After this step CheckConsistency holds BY CONSTRUCTION for
//      every possible crash point.
//
// Group commit: Commit() makes everything appended so far durable, syncing
// segments before the WAL (data before log) via the WAL pre-sync hook.
// Checkpoint() compacts index + object state into one atomically-renamed
// file and empties the WAL; the close path runs it so a clean reopen
// replays nothing.
#pragma once

#include <cstdint>
#include <string>

#include "store/container_store.h"
#include "store/durability.h"
#include "store/index.h"
#include "store/segment_log.h"
#include "store/wal.h"

namespace reed::store {

class DurableEngine {
 public:
  // Opens (creating if needed) the store directory, attaches the four
  // stores to its logs and recovers them from whatever it holds (steps 1-4
  // above). Recovery is single-threaded: the engine is ready to serve once
  // the constructor returns.
  DurableEngine(std::string dir, DurabilityOptions options,
                std::size_t container_capacity);

  [[nodiscard]] ContainerStore& containers() { return containers_; }
  [[nodiscard]] FingerprintIndex& index() { return index_; }
  [[nodiscard]] ObjectStore& data_objects() { return data_objects_; }
  [[nodiscard]] ObjectStore& key_objects() { return key_objects_; }
  [[nodiscard]] Wal& wal() { return wal_; }
  [[nodiscard]] SegmentLog& segments() { return segments_; }

  struct RecoveryStats {
    std::uint64_t replayed_records = 0;   // checkpoint + WAL + segment records
    std::uint64_t discarded_tail = 0;     // torn bytes truncated (WAL + seg)
    std::uint64_t segments_sealed = 0;    // sealed segments seen on replay
    std::uint64_t orphans_discarded = 0;  // unindexed chunks dropped
    std::uint64_t dangling_erased = 0;    // unreadable index entries dropped
  };

  // The group-commit durability point: called at the end of each mutating
  // batch (no caller locks held).
  void Commit();

  // Compacts index + objects into dir/index.ckpt (temp + fsync + rename)
  // and empties the WAL. Caller must be quiesced.
  void Checkpoint();

  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

 private:
  void Recover();
  void ApplyMetadataRecord(const RecordView& rec);
  ObjectStore& StoreForTag(std::uint8_t tag);

  const std::string dir_;
  const DurabilityOptions options_;
  SegmentLog segments_;
  Wal wal_;
  ContainerStore containers_;
  FingerprintIndex index_;
  ObjectStore data_objects_;
  ObjectStore key_objects_;
  RecoveryStats recovery_stats_;
};

// Tags the two object stores inside the shared WAL; values match
// server::StoreId so the records read naturally in dumps.
inline constexpr std::uint8_t kDataStoreTag = 0;
inline constexpr std::uint8_t kKeyStoreTag = 1;

}  // namespace reed::store
