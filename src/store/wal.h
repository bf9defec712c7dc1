// Write-ahead log for the metadata plane (DESIGN.md §12): fingerprint-index
// inserts/erases and object puts/erases — recipes, stub files, encrypted
// key states — all append framed records here, so a stub-only (lazy) rekey
// survives a restart exactly like a data write does.
//
// Appends are ordered under one mutex (LockRank::kStoreWal, acquired while
// the caller holds its shard lock); durability is a separate step with
// leader-based GROUP COMMIT: the first committer becomes leader, dwells for
// the configured window with no lock held — but only while another writer
// is in flight on this log, as PostgreSQL's commit_delay applies only with
// commit_siblings other transactions active — fires the pre-sync hook (the
// engine syncs container segments first — data before log), then fsyncs
// once for every append that landed meanwhile. Followers ride the leader's
// flush on a condvar.
//
// Construction scans the existing file, keeps the valid record prefix for
// the engine to replay, and physically truncates the torn tail (CRC-framed
// records make the cut point unambiguous).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "store/durability.h"
#include "store/log_format.h"
#include "util/file_io.h"
#include "util/thread_annotations.h"

namespace reed::store {

class Wal {
 public:
  Wal(std::string path, DurabilityOptions options);

  // Marks one writer — its appends and its Commit, e.g. one PutChunks batch
  // or one PutObject — as in flight for its lifetime. A group-commit leader
  // dwells only when some other writer is in flight, so a lone writer never
  // waits out the window.
  class Writer {
   public:
    explicit Writer(Wal& wal);
    ~Writer();
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;

   private:
    Wal& wal_;
  };

  // Frames and appends one record; returns its LSN (1-based, monotone).
  // The record is in the OS page cache after this call — it survives a
  // process kill, but only Commit makes it survive a machine crash.
  std::uint64_t Append(RecordType type, ByteSpan payload);

  // Blocks until every record with lsn' <= lsn is durable per the fsync
  // policy (kNone: returns immediately; Close still syncs).
  void Commit(std::uint64_t lsn);
  // Commit up to the most recent append.
  void CommitAll();

  // Unconditional fsync of everything appended so far, regardless of
  // policy. The close path and checkpointing use this.
  void Sync();

  // Post-checkpoint: drop all records (the checkpoint supersedes them).
  // Caller must be quiesced — no concurrent Append/Commit.
  void Reset();

  // Runs with no Wal lock held, immediately before each group fsync. The
  // engine hooks the segment-log sync here so chunk data always reaches
  // disk no later than the index records that point at it.
  void set_pre_sync_hook(std::function<void()> hook);

  // The valid record prefix found at construction, for engine replay; call
  // DropRecovered() afterwards to release the buffer.
  [[nodiscard]] const Bytes& recovered() const { return recovered_; }
  void DropRecovered();
  // Bytes of torn tail truncated at construction (0 if the log was clean).
  [[nodiscard]] std::uint64_t torn_tail_bytes() const {
    return torn_tail_bytes_;
  }

  [[nodiscard]] std::uint64_t last_lsn() const;

 private:
  // fsyncs the log file, counted and timed.
  void SyncFile();

  const DurabilityOptions options_;
  std::function<void()> pre_sync_hook_;  // set once before concurrent use

  mutable Mutex mu_{LockRank::kStoreWal};
  CondVar synced_cv_;
  // Written (appended) only under mu_; the group-commit leader fsyncs it
  // with NO lock held — concurrent write+fsync on one descriptor is safe at
  // the OS level and is exactly what lets followers keep appending during a
  // flush. Deliberately not GUARDED_BY for that reason.
  util::File file_;
  // Live Writer scopes. Read by the leader without the lock: a writer that
  // enters just after the read simply misses this flush's dwell.
  std::atomic<int> writers_{0};
  std::uint64_t next_lsn_ REED_GUARDED_BY(mu_) = 1;
  std::uint64_t synced_lsn_ REED_GUARDED_BY(mu_) = 0;
  bool sync_in_progress_ REED_GUARDED_BY(mu_) = false;

  Bytes recovered_;  // construction-time only; immutable afterwards
  std::uint64_t torn_tail_bytes_ = 0;
};

}  // namespace reed::store
