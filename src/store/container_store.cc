#include "store/container_store.h"

#include "store/segment_log.h"
#include "store/store_error.h"

#include "obs/metrics.h"
#include "util/fault_inject.h"

namespace reed::store {
namespace {

// Process-wide write-path metrics, resolved once: Append stays
// allocation-free beyond its own payload copy.
struct ContainerMetrics {
  obs::Counter* appends;
  obs::Counter* bytes;
  obs::Counter* containers_opened;
  obs::Counter* discards;
};

ContainerMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static ContainerMetrics m{&reg.GetCounter("store.container.appends"),
                            &reg.GetCounter("store.container.bytes"),
                            &reg.GetCounter("store.container.opened"),
                            &reg.GetCounter("store.container.discards")};
  return m;
}

}  // namespace

ContainerStore::ContainerStore(std::size_t container_capacity, SegmentLog& log)
    : capacity_(container_capacity), log_(log) {
  if (capacity_ == 0) throw StoreError("ContainerStore: zero capacity");
  containers_.emplace_back();
  containers_.back().reserve(capacity_);
  stats_.containers = 1;
  Metrics().containers_opened->Increment();
}

ChunkLocation ContainerStore::Append(ByteSpan data) {
  // Before the lock: a firing must model "the write never happened", not a
  // torn container (Append under the lock is all-or-nothing anyway).
  REED_FAULT_POINT("store.container.append");
  if (data.empty()) throw StoreError("ContainerStore: empty chunk");
  WriterMutexLock lock(mu_);
  Bytes* current = &containers_.back();
  if (current->size() + data.size() > capacity_ && !current->empty()) {
    containers_.emplace_back();
    containers_.back().reserve(capacity_);
    ++stats_.containers;
    Metrics().containers_opened->Increment();
    current = &containers_.back();
    log_.Rotate(static_cast<std::uint32_t>(containers_.size() - 1));
  }
  ChunkLocation loc;
  loc.container_id = static_cast<std::uint32_t>(containers_.size() - 1);
  loc.offset = static_cast<std::uint32_t>(current->size());
  loc.length = static_cast<std::uint32_t>(data.size());
  reed::Append(*current, data);
  ++stats_.chunks;
  stats_.bytes += data.size();
  Metrics().appends->Increment();
  Metrics().bytes->Add(data.size());
  // Mirror to the segment log while the writer lock pins the (id, offset)
  // ordering — replay re-applies records in file order and must land every
  // chunk at the same logical coordinates.
  log_.AppendChunk(loc.container_id, loc.offset, data);
  return loc;
}

void ContainerStore::Discard(const ChunkLocation& loc) {
  WriterMutexLock lock(mu_);
  DiscardLocked(loc);
  Metrics().discards->Increment();
  log_.AppendDiscard(loc);
}

void ContainerStore::DiscardLocked(const ChunkLocation& loc) {
  if (loc.container_id >= containers_.size()) {
    throw StoreError("ContainerStore: discard of bad container id");
  }
  Bytes& container = containers_[loc.container_id];
  if (static_cast<std::size_t>(loc.offset) + loc.length > container.size()) {
    throw StoreError("ContainerStore: discard out of bounds");
  }
  if (loc.container_id == containers_.size() - 1 &&
      static_cast<std::size_t>(loc.offset) + loc.length == container.size()) {
    container.resize(loc.offset);
  } else {
    SecureZero(MutableByteSpan(container).subspan(loc.offset, loc.length));
  }
  --stats_.chunks;
  stats_.bytes -= loc.length;
}

Bytes ContainerStore::Read(const ChunkLocation& loc) const {
  ReaderMutexLock lock(mu_);
  if (loc.container_id >= containers_.size()) {
    throw StoreError("ContainerStore: bad container id");
  }
  const Bytes& container = containers_[loc.container_id];
  if (static_cast<std::size_t>(loc.offset) + loc.length > container.size()) {
    throw StoreError("ContainerStore: location out of bounds");
  }
  return Bytes(container.begin() + loc.offset,
               container.begin() + loc.offset + loc.length);
}

ContainerStore::Stats ContainerStore::stats() const {
  ReaderMutexLock lock(mu_);
  return stats_;
}

void ContainerStore::ReplayBeginContainer(std::uint32_t id) {
  WriterMutexLock lock(mu_);
  if (id == 0) {
    if (containers_.size() != 1 || !containers_[0].empty()) {
      throw StoreError("ContainerStore: replay into a non-fresh store");
    }
    return;
  }
  if (id != containers_.size()) {
    throw StoreError("ContainerStore: replay container id out of sequence");
  }
  // Replay bumps only the recovery counters (DurableEngine), never the
  // normal write-path metrics — a restart must not look like new writes.
  containers_.emplace_back();
  containers_.back().reserve(capacity_);
  ++stats_.containers;
}

void ContainerStore::ReplayAppend(std::uint32_t container_id,
                                  std::uint32_t offset, ByteSpan data) {
  WriterMutexLock lock(mu_);
  if (container_id != containers_.size() - 1) {
    throw StoreError("ContainerStore: replay append to non-current container");
  }
  Bytes& current = containers_.back();
  if (offset != current.size()) {
    throw StoreError("ContainerStore: replay append offset mismatch");
  }
  reed::Append(current, data);
  ++stats_.chunks;
  stats_.bytes += data.size();
}

void ContainerStore::ReplayDiscard(const ChunkLocation& loc) {
  WriterMutexLock lock(mu_);
  DiscardLocked(loc);
}

}  // namespace reed::store
