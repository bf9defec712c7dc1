#include "store/durable_engine.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/file_io.h"

namespace reed::store {
namespace {

constexpr const char* kCheckpointName = "index.ckpt";

// Recovery counters (ISSUE: store.recovery.*): resolved once, bumped only
// by the single-threaded recovery pass.
struct RecoveryMetrics {
  obs::Counter* replayed_records;
  obs::Counter* discarded_tail;
  obs::Counter* segments_sealed;
  obs::Counter* orphans_discarded;
  obs::Counter* dangling_erased;
  obs::Counter* checkpoints;
};

RecoveryMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static RecoveryMetrics m{
      &reg.GetCounter("store.recovery.replayed_records"),
      &reg.GetCounter("store.recovery.discarded_tail"),
      &reg.GetCounter("store.recovery.segments_sealed"),
      &reg.GetCounter("store.recovery.orphans_discarded"),
      &reg.GetCounter("store.recovery.dangling_erased"),
      &reg.GetCounter("store.checkpoint.writes"),
  };
  return m;
}

std::uint64_t LocKey(std::uint32_t container_id, std::uint32_t offset) {
  return (static_cast<std::uint64_t>(container_id) << 32) | offset;
}

// The store directory, created before the logs open files in it.
std::string CreatedDir(std::string dir) {
  util::CreateDirectories(dir);
  return dir;
}

}  // namespace

DurableEngine::DurableEngine(std::string dir, DurabilityOptions options,
                             std::size_t container_capacity)
    : dir_(CreatedDir(std::move(dir))),
      options_(options),
      segments_(dir_, options_),
      wal_(dir_ + "/wal.log", options_),
      containers_(container_capacity, segments_),
      index_(wal_),
      data_objects_(wal_, kDataStoreTag),
      key_objects_(wal_, kKeyStoreTag) {
  (void)Metrics();
  // Data before log: every group fsync of the WAL flushes the chunk
  // segments first, so no durable index record can point at lost bytes.
  wal_.set_pre_sync_hook([this] { segments_.Sync(); });
  Recover();
}

ObjectStore& DurableEngine::StoreForTag(std::uint8_t tag) {
  switch (tag) {
    case kDataStoreTag: return data_objects_;
    case kKeyStoreTag: return key_objects_;
    default: throw StoreError("DurableEngine: unknown object store tag");
  }
}

void DurableEngine::ApplyMetadataRecord(const RecordView& rec) {
  switch (rec.type) {
    case RecordType::kIndexInsert: {
      IndexInsertRecord r = DecodeIndexInsert(rec.payload);
      index_.ReplayInsert(r.fp, r.loc);
      return;
    }
    case RecordType::kIndexErase: {
      IndexEraseRecord r = DecodeIndexErase(rec.payload);
      index_.ReplayErase(r.fp);
      return;
    }
    case RecordType::kObjectPut: {
      ObjectPutRecord r = DecodeObjectPut(rec.payload);
      StoreForTag(r.store_tag).ReplayPut(r.name, std::move(r.value));
      return;
    }
    case RecordType::kObjectErase: {
      ObjectEraseRecord r = DecodeObjectErase(rec.payload);
      StoreForTag(r.store_tag).ReplayErase(r.name);
      return;
    }
    default:
      throw StoreError("DurableEngine: unexpected metadata record type");
  }
}

void DurableEngine::Recover() {
  // 1. Data plane: segment files -> containers. Track which locations hold
  // live (not-discarded) chunks so step 4 can cross-check the index.
  std::unordered_map<std::uint64_t, std::uint32_t> live;  // key -> length
  std::uint64_t torn = segments_.Replay(
      [&](std::uint32_t id) { containers_.ReplayBeginContainer(id); },
      [&](const RecordView& rec) {
        ++recovery_stats_.replayed_records;
        if (rec.type == RecordType::kSegmentAppend) {
          SegmentAppendRecord a = DecodeSegmentAppend(rec.payload);
          containers_.ReplayAppend(a.container_id, a.offset, a.data);
          live[LocKey(a.container_id, a.offset)] =
              static_cast<std::uint32_t>(a.data.size());
        } else {
          SegmentDiscardRecord d = DecodeSegmentDiscard(rec.payload);
          containers_.ReplayDiscard(d.loc);
          live.erase(LocKey(d.loc.container_id, d.loc.offset));
        }
      });
  recovery_stats_.discarded_tail += torn;
  recovery_stats_.segments_sealed = segments_.segments_sealed();

  // 2. Metadata plane, base state: the checkpoint. It was written with an
  // atomic rename, so it is either absent or complete — any malformation
  // inside is corruption beyond the crash-consistency contract and fails
  // recovery loudly (strict DecodeRecord).
  const std::string ckpt_path = dir_ + "/" + kCheckpointName;
  if (util::FileExists(ckpt_path)) {
    Bytes raw = util::ReadFileBytes(ckpt_path);
    std::size_t offset = 0;
    std::uint64_t applied = 0;
    bool complete = false;
    while (offset < raw.size()) {
      RecordView rec = DecodeRecord(raw, offset);
      offset += rec.encoded_size;
      if (rec.type == RecordType::kCheckpointFooter) {
        CheckpointFooterRecord footer = DecodeCheckpointFooter(rec.payload);
        if (footer.records != applied || offset != raw.size()) {
          throw StoreError("DurableEngine: checkpoint footer mismatch");
        }
        complete = true;
        break;
      }
      ApplyMetadataRecord(rec);
      ++applied;
      ++recovery_stats_.replayed_records;
    }
    if (!complete) {
      throw StoreError("DurableEngine: checkpoint missing footer");
    }
  }

  // 3. Metadata plane, tail: WAL records on top of the checkpoint. The Wal
  // constructor already cut the torn tail by CRC; what remains is valid and
  // replays idempotently (last writer wins per key).
  {
    const Bytes& tail = wal_.recovered();
    std::size_t offset = 0;
    while (offset < tail.size()) {
      RecordView rec = DecodeRecord(tail, offset);
      offset += rec.encoded_size;
      ApplyMetadataRecord(rec);
      ++recovery_stats_.replayed_records;
    }
    recovery_stats_.discarded_tail += wal_.torn_tail_bytes();
    wal_.DropRecovered();
  }

  // 4. Reconcile the planes. A crash can separate a chunk append from its
  // index insert in either direction; both divergences are repaired here,
  // which is what makes CheckConsistency hold for ANY kill point:
  //   * index entry with no matching live chunk -> erase the entry
  //     (insert survived, append lost to a torn segment tail);
  //   * live chunk with no index entry -> discard it via the normal logged
  //     path (append survived, insert lost to a torn WAL tail), so future
  //     replays see the same container offsets.
  std::vector<chunk::Fingerprint> dangling;
  index_.ForEach(
      [&](const chunk::Fingerprint& fp, const ChunkLocation& loc) {
        auto it = live.find(LocKey(loc.container_id, loc.offset));
        if (it == live.end() || it->second != loc.length) {
          dangling.push_back(fp);
        } else {
          live.erase(it);
        }
      });
  for (const chunk::Fingerprint& fp : dangling) {
    index_.ReplayErase(fp);
    ++recovery_stats_.dangling_erased;
  }
  std::vector<ChunkLocation> orphans;
  orphans.reserve(live.size());
  for (const auto& [key, length] : live) {
    orphans.push_back(ChunkLocation{static_cast<std::uint32_t>(key >> 32),
                                    static_cast<std::uint32_t>(key), length});
  }
  // Highest offsets first: tail orphans truncate (reusing the space) instead
  // of zeroing in place.
  std::sort(orphans.begin(), orphans.end(),
            [](const ChunkLocation& a, const ChunkLocation& b) {
              return LocKey(a.container_id, a.offset) >
                     LocKey(b.container_id, b.offset);
            });
  for (const ChunkLocation& loc : orphans) {
    containers_.Discard(loc);
    ++recovery_stats_.orphans_discarded;
  }

  Metrics().replayed_records->Add(recovery_stats_.replayed_records);
  Metrics().discarded_tail->Add(recovery_stats_.discarded_tail);
  Metrics().segments_sealed->Add(recovery_stats_.segments_sealed);
  Metrics().orphans_discarded->Add(recovery_stats_.orphans_discarded);
  Metrics().dangling_erased->Add(recovery_stats_.dangling_erased);
}

void DurableEngine::Commit() { wal_.CommitAll(); }

void DurableEngine::Checkpoint() {
  // Flush the data plane first so the checkpoint never outlives the chunk
  // bytes its index entries reference.
  if (options_.fsync_policy != FsyncPolicy::kNone) segments_.Sync();
  Bytes out;
  std::uint64_t records = 0;
  index_.ForEach([&](const chunk::Fingerprint& fp, const ChunkLocation& loc) {
    AppendRecord(out, RecordType::kIndexInsert, EncodeIndexInsert({fp, loc}));
    ++records;
  });
  data_objects_.ForEach([&](const std::string& name, const Bytes& value) {
    AppendRecord(out, RecordType::kObjectPut,
                 EncodeObjectPut({kDataStoreTag, name, value}));
    ++records;
  });
  key_objects_.ForEach([&](const std::string& name, const Bytes& value) {
    AppendRecord(out, RecordType::kObjectPut,
                 EncodeObjectPut({kKeyStoreTag, name, value}));
    ++records;
  });
  AppendRecord(out, RecordType::kCheckpointFooter,
               EncodeCheckpointFooter({records}));
  util::WriteFileAtomic(dir_, kCheckpointName, out);
  // The checkpoint supersedes every WAL record (it was written from state
  // that already includes them); an interposed crash is safe either way:
  // before the rename the old checkpoint + full WAL replay, after it the
  // new checkpoint absorbs the stale records idempotently.
  wal_.Reset();
  Metrics().checkpoints->Increment();
}

}  // namespace reed::store
