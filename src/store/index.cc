#include "store/index.h"

#include "store/store_error.h"
#include "store/wal.h"

#include "obs/metrics.h"
#include "util/fault_inject.h"
#include "util/schedule_fuzz.h"

namespace reed::store {
namespace {

// Dedup accounting (DESIGN.md §9): on the ingest path every lookup-hit is a
// duplicate chunk, so dedup ratio = hits / lookups there (restore-path
// lookups always hit and inflate both the same way). Cached pointers keep
// the per-chunk lookup/insert path allocation-free. The contention counters
// record how often a shard's fast-path try_lock missed (DESIGN.md §10).
struct IndexMetrics {
  obs::Counter* lookups;
  obs::Counter* hits;
  obs::Counter* inserts;
  obs::Counter* shard_contention;
};

IndexMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static IndexMetrics m{&reg.GetCounter("store.index.lookups"),
                        &reg.GetCounter("store.index.hits"),
                        &reg.GetCounter("store.index.inserts"),
                        &reg.GetCounter("store.index.shard_contention")};
  return m;
}

struct ObjectMetrics {
  obs::Counter* shard_contention;
};

ObjectMetrics& ObjMetrics() {
  auto& reg = obs::Registry::Global();
  static ObjectMetrics m{&reg.GetCounter("store.object.shard_contention")};
  return m;
}

using ShardLock = ContendedMutexLock<obs::Counter>;

// The leading directory of an object name: everything through the first
// '/', or "" for slashless names. "stub/f1" -> "stub/".
std::string_view DirOf(std::string_view name) {
  std::size_t slash = name.find('/');
  if (slash == std::string_view::npos) return std::string_view();
  return name.substr(0, slash + 1);
}

// A prefix answerable from the per-directory counters: one non-empty
// segment ending in its only '/'.
bool IsDirPrefix(std::string_view prefix) {
  return prefix.size() >= 2 && prefix.find('/') == prefix.size() - 1;
}

}  // namespace

std::optional<ChunkLocation> FingerprintIndex::Lookup(
    const chunk::Fingerprint& fp) const {
  REED_FAULT_POINT("store.index.lookup");
  Metrics().lookups->Increment();
  Shard& shard = ShardFor(fp);
  schedfuzz::Perturb("store.index.shard");
  ShardLock lock(shard.mu, *Metrics().shard_contention);
  auto it = shard.map.find(fp);
  if (it == shard.map.end()) return std::nullopt;
  Metrics().hits->Increment();
  return it->second;
}

bool FingerprintIndex::Insert(const chunk::Fingerprint& fp,
                              const ChunkLocation& loc) {
  REED_FAULT_POINT("store.index.insert");
  Metrics().inserts->Increment();
  Shard& shard = ShardFor(fp);
  schedfuzz::Perturb("store.index.shard");
  ShardLock lock(shard.mu, *Metrics().shard_contention);
  if (!shard.map.emplace(fp, loc).second) return false;
  // Logged under the shard lock: WAL order equals apply order per shard,
  // which is what makes last-writer-wins replay converge.
  DiscardResult(
      wal_.Append(RecordType::kIndexInsert, EncodeIndexInsert({fp, loc})));
  return true;
}

bool FingerprintIndex::Erase(const chunk::Fingerprint& fp) {
  Shard& shard = ShardFor(fp);
  ShardLock lock(shard.mu, *Metrics().shard_contention);
  if (shard.map.erase(fp) == 0) return false;
  DiscardResult(wal_.Append(RecordType::kIndexErase, EncodeIndexErase({fp})));
  return true;
}

std::size_t FingerprintIndex::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

void FingerprintIndex::ForEach(
    const std::function<void(const chunk::Fingerprint&, const ChunkLocation&)>&
        fn) const {
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [fp, loc] : shard.map) fn(fp, loc);
  }
}

void FingerprintIndex::ReplayInsert(const chunk::Fingerprint& fp,
                                    const ChunkLocation& loc) {
  Shard& shard = ShardFor(fp);
  MutexLock lock(shard.mu);
  shard.map[fp] = loc;
}

void FingerprintIndex::ReplayErase(const chunk::Fingerprint& fp) {
  Shard& shard = ShardFor(fp);
  MutexLock lock(shard.mu);
  shard.map.erase(fp);
}

void ObjectStore::PutLocked(Shard& shard, const std::string& name,
                            Bytes value) {
  // Overwrites keep the same name, hence the same directory counter.
  std::uint64_t& dir = shard.dir_bytes[std::string(DirOf(name))];
  auto it = shard.objects.find(name);
  if (it != shard.objects.end()) {
    shard.bytes -= it->second.size();
    dir -= it->second.size();
    it->second = std::move(value);
    shard.bytes += it->second.size();
    dir += it->second.size();
    return;
  }
  shard.bytes += value.size();
  dir += value.size();
  shard.objects.emplace(name, std::move(value));
}

bool ObjectStore::EraseLocked(Shard& shard, const std::string& name) {
  auto it = shard.objects.find(name);
  if (it == shard.objects.end()) return false;
  shard.bytes -= it->second.size();
  auto dir = shard.dir_bytes.find(DirOf(name));
  if (dir != shard.dir_bytes.end()) dir->second -= it->second.size();
  shard.objects.erase(it);
  return true;
}

void ObjectStore::Put(const std::string& name, Bytes value) {
  REED_FAULT_POINT("store.object.put");
  Shard& shard = ShardFor(name);
  schedfuzz::Perturb("store.object.shard");
  ShardLock lock(shard.mu, *ObjMetrics().shard_contention);
  // Encode the redo record before the apply consumes `value`; append it
  // under the shard lock so WAL order equals apply order (replay is
  // last-writer-wins per name).
  Bytes payload = EncodeObjectPut({store_tag_, name, value});
  PutLocked(shard, name, std::move(value));
  DiscardResult(wal_.Append(RecordType::kObjectPut, payload));
}

Bytes ObjectStore::Get(const std::string& name) const {
  REED_FAULT_POINT("store.object.get");
  Shard& shard = ShardFor(name);
  ShardLock lock(shard.mu, *ObjMetrics().shard_contention);
  auto it = shard.objects.find(name);
  if (it == shard.objects.end()) {
    throw StoreError("ObjectStore: no such object: " + name);
  }
  return it->second;
}

bool ObjectStore::Contains(const std::string& name) const {
  Shard& shard = ShardFor(name);
  ShardLock lock(shard.mu, *ObjMetrics().shard_contention);
  return shard.objects.contains(name);
}

bool ObjectStore::Erase(const std::string& name) {
  Shard& shard = ShardFor(name);
  ShardLock lock(shard.mu, *ObjMetrics().shard_contention);
  if (!EraseLocked(shard, name)) return false;
  DiscardResult(wal_.Append(RecordType::kObjectErase,
                            EncodeObjectErase({store_tag_, name})));
  return true;
}

std::size_t ObjectStore::count() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.objects.size();
  }
  return total;
}

std::uint64_t ObjectStore::total_bytes() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

std::uint64_t ObjectStore::TotalBytesWithPrefix(std::string_view prefix) const {
  std::uint64_t total = 0;
  if (IsDirPrefix(prefix)) {
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mu);
      auto it = shard.dir_bytes.find(prefix);
      if (it != shard.dir_bytes.end()) total += it->second;
    }
    return total;
  }
  // Generic prefixes (sub-name ranges, "") keep the scan semantics.
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [name, value] : shard.objects) {
      if (name.starts_with(prefix)) total += value.size();
    }
  }
  return total;
}

void ObjectStore::ForEach(
    const std::function<void(const std::string&, const Bytes&)>& fn) const {
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [name, value] : shard.objects) fn(name, value);
  }
}

void ObjectStore::ReplayPut(const std::string& name, Bytes value) {
  Shard& shard = ShardFor(name);
  MutexLock lock(shard.mu);
  PutLocked(shard, name, std::move(value));
}

void ObjectStore::ReplayErase(const std::string& name) {
  Shard& shard = ShardFor(name);
  MutexLock lock(shard.mu);
  DiscardResult(EraseLocked(shard, name));
}

}  // namespace reed::store
