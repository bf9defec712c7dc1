// Container store: unique trimmed packages are batched into fixed-capacity
// (4 MB, §V-B) containers before hitting the storage backend, amortizing
// backend I/O. Locations are stable (container id, offset, length) triples
// recorded by the fingerprint index and file recipes.
//
// Every append/discard is mirrored as a framed record in the SegmentLog's
// per-container segment files while the in-memory vector doubles as the
// read cache (the full store stays memory-resident; DESIGN.md §12). The
// Replay* methods are the recovery path — they rebuild the identical
// in-memory state from segment records WITHOUT re-logging, and verify that
// replayed locations land exactly where the original appends did.
#pragma once

#include <vector>

#include "util/bytes.h"
#include "util/thread_annotations.h"

namespace reed::store {

class SegmentLog;

struct ChunkLocation {
  std::uint32_t container_id = 0;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  bool operator==(const ChunkLocation&) const = default;
};

class ContainerStore {
 public:
  static constexpr std::size_t kDefaultContainerSize = 4u << 20;  // 4 MB

  ContainerStore(std::size_t container_capacity, SegmentLog& log);

  // Appends one chunk; opens a new container when the current one cannot
  // fit it. Chunks never span containers. Dropping the returned location
  // orphans the stored bytes (nothing can ever read them back).
  [[nodiscard]] ChunkLocation Append(ByteSpan data);

  // Reader-concurrent: restore sessions fan in many Read calls per server,
  // and none of them needs to exclude the others — only Append (which may
  // reallocate container storage) takes the writer side.
  [[nodiscard]] Bytes Read(const ChunkLocation& loc) const;

  // Rolls back an Append whose enclosing compound operation failed before
  // the location was published anywhere (index, recipe). A tail append is
  // physically truncated so the space is reused; an interior chunk (another
  // writer appended behind it meanwhile) is zeroed in place and carried as
  // unaccounted garbage, like log garbage awaiting compaction. Either way
  // stats() stops counting the chunk and its bytes, so a failed ingest
  // leaves no orphaned accounting (StorageServer::CheckConsistency).
  void Discard(const ChunkLocation& loc);

  struct Stats {
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;        // payload bytes stored
    std::uint64_t containers = 0;   // containers opened (incl. current)
  };
  [[nodiscard]] Stats stats() const;

  // --- recovery-only (DurableEngine, single-threaded, before serving) ---

  // Opens container `id` during replay; id 0 (created by the constructor)
  // is verified rather than opened.
  void ReplayBeginContainer(std::uint32_t id);
  // Re-applies a segment append/discard record; throws StoreError if the
  // replayed location disagrees with what the original operation recorded.
  void ReplayAppend(std::uint32_t container_id, std::uint32_t offset,
                    ByteSpan data);
  void ReplayDiscard(const ChunkLocation& loc);

 private:
  void DiscardLocked(const ChunkLocation& loc) REED_REQUIRES(mu_);

  std::size_t capacity_;
  SegmentLog& log_;
  mutable SharedMutex mu_{LockRank::kStoreContainer};
  std::vector<Bytes> containers_ REED_GUARDED_BY(mu_);
  Stats stats_ REED_GUARDED_BY(mu_);
};

}  // namespace reed::store
