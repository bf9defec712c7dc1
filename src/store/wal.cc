#include "store/wal.h"

#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace reed::store {
namespace {

struct WalMetrics {
  obs::Counter* appends;
  obs::Counter* append_bytes;
  obs::Counter* syncs;
  obs::Counter* group_rides;  // commits satisfied by another leader's fsync
  obs::Counter* dwells;       // leaders that waited out the window
  obs::Histogram* sync_us;    // each log fsync, pre-sync hook excluded
};

WalMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static WalMetrics m{&reg.GetCounter("store.wal.appends"),
                      &reg.GetCounter("store.wal.append_bytes"),
                      &reg.GetCounter("store.wal.syncs"),
                      &reg.GetCounter("store.wal.group_rides"),
                      &reg.GetCounter("store.wal.dwells"),
                      &reg.GetHistogram("store.wal.sync_us")};
  return m;
}

}  // namespace

Wal::Wal(std::string path, DurabilityOptions options) : options_(options) {
  // Resolve metrics before any lock is ever taken (kObsRegistry ranks above
  // kStoreWal, but eager resolution keeps the hot path allocation-free).
  (void)Metrics();
  // Scan the existing log: the valid CRC-framed prefix becomes the replay
  // buffer; anything after it is a torn tail from a crash mid-append, cut
  // off physically so new appends start at a clean boundary.
  Bytes raw;
  if (util::FileExists(path)) raw = util::ReadFileBytes(path);
  std::size_t valid = 0;
  for (;;) {
    ScanResult scan = ScanRecord(raw, valid);
    if (scan.status != ScanStatus::kRecord) break;
    valid += scan.record.encoded_size;
  }
  torn_tail_bytes_ = raw.size() - valid;
  raw.resize(valid);
  recovered_ = std::move(raw);
  file_ = util::File::OpenAppend(path);
  if (file_.Size() != valid) file_.Truncate(valid);
}

Wal::Writer::Writer(Wal& wal) : wal_(wal) {
  wal_.writers_.fetch_add(1, std::memory_order_relaxed);
}

Wal::Writer::~Writer() {
  wal_.writers_.fetch_sub(1, std::memory_order_relaxed);
}

std::uint64_t Wal::Append(RecordType type, ByteSpan payload) {
  Bytes frame;
  frame.reserve(kRecordHeaderBytes + payload.size() + kRecordTrailerBytes);
  AppendRecord(frame, type, payload);
  Metrics().appends->Increment();
  Metrics().append_bytes->Add(frame.size());
  MutexLock lock(mu_);
  file_.Append(frame);
  return next_lsn_++;
}

void Wal::Commit(std::uint64_t lsn) {
  if (options_.fsync_policy == FsyncPolicy::kNone) return;
  for (;;) {
    {
      MutexLock lock(mu_);
      if (synced_lsn_ >= lsn) return;
      if (sync_in_progress_) {
        // Follower: ride the in-flight group fsync.
        Metrics().group_rides->Increment();
        synced_cv_.Wait(mu_, [this]() REED_REQUIRES(mu_) {
          return !sync_in_progress_;
        });
        if (synced_lsn_ >= lsn) return;
        continue;  // the leader's flush predates our append — take the lead
      }
      sync_in_progress_ = true;
    }
    // Leader, no lock held: if another writer is in flight, dwell so it
    // can pile on, then flush everything appended by the end of the window.
    if (options_.fsync_policy == FsyncPolicy::kGrouped &&
        options_.group_commit_window > std::chrono::microseconds::zero() &&
        writers_.load(std::memory_order_relaxed) > 1) {
      Metrics().dwells->Increment();
      std::this_thread::sleep_for(options_.group_commit_window);
    }
    std::uint64_t target;
    {
      MutexLock lock(mu_);
      target = next_lsn_ - 1;
    }
    // Data before log: chunk segments reach disk no later than the index
    // records pointing into them.
    if (pre_sync_hook_) pre_sync_hook_();
    SyncFile();
    {
      MutexLock lock(mu_);
      synced_lsn_ = target;
      sync_in_progress_ = false;
    }
    synced_cv_.NotifyAll();
  }
}

void Wal::CommitAll() { Commit(last_lsn()); }

void Wal::Sync() {
  if (pre_sync_hook_) pre_sync_hook_();
  std::uint64_t target;
  {
    MutexLock lock(mu_);
    target = next_lsn_ - 1;
  }
  SyncFile();
  {
    MutexLock lock(mu_);
    if (synced_lsn_ < target) synced_lsn_ = target;
  }
  synced_cv_.NotifyAll();
}

void Wal::SyncFile() {
  obs::ScopedTimer timer(*Metrics().sync_us);
  file_.Sync();
  Metrics().syncs->Increment();
}

void Wal::Reset() {
  MutexLock lock(mu_);
  file_.Truncate(0);
  file_.Sync();
  synced_lsn_ = next_lsn_ - 1;  // nothing outstanding: the log is empty
}

void Wal::set_pre_sync_hook(std::function<void()> hook) {
  pre_sync_hook_ = std::move(hook);
}

void Wal::DropRecovered() {
  recovered_.clear();
  recovered_.shrink_to_fit();
}

std::uint64_t Wal::last_lsn() const {
  MutexLock lock(mu_);
  return next_lsn_ - 1;
}

}  // namespace reed::store
