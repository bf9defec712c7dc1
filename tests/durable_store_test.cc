// Durable storage engine (DESIGN.md §12): record framing, WAL tail
// truncation, group commit, segment sealing, checkpointing, and full
// crash-shaped recovery through DurableEngine and StorageServer::Reopen.
// The SIGKILL-under-fault variants live in crash_recovery_test.cc; this
// suite covers the same machinery in-process at quick-tier speed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "chunk/fingerprint.h"
#include "obs/metrics.h"
#include "server/storage_server.h"
#include "store/durable_engine.h"
#include "store/log_format.h"
#include "store/segment_log.h"
#include "store/store_error.h"
#include "store/wal.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "test_dirs.h"

namespace reed {
namespace {

using server::StorageServer;
using server::StoreId;
using store::ChunkLocation;
using store::DurabilityOptions;
using store::RecordType;
using store::RecordView;
using store::StoreError;
using testing::FreshDir;

Bytes Pattern(std::size_t n, std::uint8_t salt) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 31 + salt) & 0xFF);
  }
  return out;
}

chunk::Fingerprint FpOf(const Bytes& data) {
  return chunk::Fingerprint::Of(ByteSpan(data));
}

TEST(Crc32Test, SeedChainingMatchesConcatenation) {
  Bytes a = Pattern(100, 1);
  Bytes b = Pattern(57, 2);
  Bytes ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(util::Crc32(ab), util::Crc32(b, util::Crc32(a)));
  EXPECT_NE(util::Crc32(a), util::Crc32(b));
  EXPECT_EQ(util::Crc32(ByteSpan()), 0u);
  // Chaining across every split point, unaligned ones included.
  for (std::size_t split = 0; split <= ab.size(); ++split) {
    ByteSpan all(ab);
    EXPECT_EQ(util::Crc32(all.subspan(split), util::Crc32(all.first(split))),
              util::Crc32(ab))
        << "split " << split;
  }
}

TEST(Crc32Test, CheckValue) {
  // The catalogued check value of CRC-32/ISO-HDLC (the zlib CRC).
  const Bytes check = ToBytes("123456789");
  EXPECT_EQ(util::Crc32(check), 0xCBF43926u);
  EXPECT_EQ(util::Crc32Bytewise(check), 0xCBF43926u);
}

TEST(Crc32Test, SliceBy8MatchesByteLoopAtEveryLengthAndOffset) {
  // Every length 0–1040 (the slice loop's tail 0–7 bytes at each) at every
  // start offset 0–8 (unaligned words), with and without a seed.
  Bytes buf = Pattern(1040 + 8, 5);
  for (std::size_t i = 0; i < buf.size(); i += 7) buf[i] ^= 0xA5;  // not periodic
  for (std::size_t offset = 0; offset <= 8; ++offset) {
    for (std::size_t len = 0; len <= 1040; ++len) {
      ByteSpan data = ByteSpan(buf).subspan(offset, len);
      ASSERT_EQ(util::Crc32(data), util::Crc32Bytewise(data))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(util::Crc32(data, 0x12345678u), util::Crc32Bytewise(data, 0x12345678u))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(LogFormatTest, RecordRoundtripAllTypes) {
  Bytes buf;
  store::AppendRecord(buf, RecordType::kIndexInsert,
                      store::EncodeIndexInsert(
                          {FpOf(Pattern(8, 3)), ChunkLocation{1, 2, 3}}));
  store::AppendRecord(buf, RecordType::kObjectPut,
                      store::EncodeObjectPut({1, "stub/f1", Pattern(20, 4)}));
  store::AppendRecord(buf, RecordType::kSegmentAppend,
                      store::EncodeSegmentAppend({7, 40, Pattern(16, 5)}));

  std::size_t offset = 0;
  RecordView r1 = store::DecodeRecord(buf, offset);
  EXPECT_EQ(r1.type, RecordType::kIndexInsert);
  store::IndexInsertRecord ins = store::DecodeIndexInsert(r1.payload);
  EXPECT_EQ(ins.fp, FpOf(Pattern(8, 3)));
  EXPECT_EQ(ins.loc, (ChunkLocation{1, 2, 3}));
  offset += r1.encoded_size;

  RecordView r2 = store::DecodeRecord(buf, offset);
  store::ObjectPutRecord put = store::DecodeObjectPut(r2.payload);
  EXPECT_EQ(put.store_tag, 1);
  EXPECT_EQ(put.name, "stub/f1");
  EXPECT_EQ(put.value, Pattern(20, 4));
  offset += r2.encoded_size;

  RecordView r3 = store::DecodeRecord(buf, offset);
  store::SegmentAppendRecord app = store::DecodeSegmentAppend(r3.payload);
  EXPECT_EQ(app.container_id, 7u);
  EXPECT_EQ(app.offset, 40u);
  EXPECT_EQ(Bytes(app.data.begin(), app.data.end()), Pattern(16, 5));
  EXPECT_EQ(offset + r3.encoded_size, buf.size());
}

TEST(LogFormatTest, ScanDetectsTornTailAtEveryTruncationOffset) {
  Bytes buf;
  store::AppendRecord(buf, RecordType::kIndexErase,
                      store::EncodeIndexErase({FpOf(Pattern(4, 6))}));
  const std::size_t first = buf.size();
  store::AppendRecord(buf, RecordType::kObjectErase,
                      store::EncodeObjectErase({0, "recipe/f2"}));

  // Whole buffer scans clean.
  auto full = store::ScanRecord(buf, first);
  ASSERT_EQ(full.status, store::ScanStatus::kRecord);
  EXPECT_EQ(store::ScanRecord(buf, first + full.record.encoded_size).status,
            store::ScanStatus::kEnd);

  // Every proper prefix of the second record is torn, never fatal.
  for (std::size_t cut = first; cut < buf.size(); ++cut) {
    Bytes torn(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    auto r = store::ScanRecord(torn, first);
    if (cut == first) {
      EXPECT_EQ(r.status, store::ScanStatus::kEnd);
    } else {
      EXPECT_EQ(r.status, store::ScanStatus::kTorn) << "cut at " << cut;
    }
  }

  // A bit flip anywhere in the record is torn too (CRC or magic breaks) —
  // except inside the length field, where a larger forged length reads as
  // an incomplete (also torn) record and a smaller one misframes into a
  // CRC mismatch. All of them must scan as kTorn, never decode garbage.
  for (std::size_t i = first; i < buf.size(); ++i) {
    Bytes flipped = buf;
    flipped[i] ^= 0x20;
    auto r = store::ScanRecord(flipped, first);
    EXPECT_EQ(r.status, store::ScanStatus::kTorn) << "flip at " << i;
  }
}

TEST(LogFormatTest, StrictDecodeThrowsTyped) {
  Bytes buf;
  store::AppendRecord(buf, RecordType::kObjectPut,
                      store::EncodeObjectPut({0, "x", Pattern(4, 7)}));
  buf.back() ^= 0xFF;  // break the CRC
  EXPECT_THROW((void)store::DecodeRecord(buf, 0), StoreError);
  EXPECT_THROW((void)store::DecodeRecord(Bytes{0x52}, 0), StoreError);
  EXPECT_THROW((void)store::DecodeIndexInsert(ByteSpan()), StoreError);
}

TEST(WalTest, RecoversValidPrefixAndTruncatesTornTail) {
  const std::string dir = FreshDir("wal_torn");
  util::CreateDirectories(dir);
  const std::string path = dir + "/wal.log";
  {
    store::Wal wal(path, DurabilityOptions{});
    EXPECT_EQ(wal.Append(RecordType::kIndexErase,
                         store::EncodeIndexErase({FpOf(Pattern(4, 8))})),
              1u);
    EXPECT_EQ(wal.Append(RecordType::kObjectErase,
                         store::EncodeObjectErase({0, "a"})),
              2u);
    wal.CommitAll();
  }
  // Simulate a torn write: append half a record's worth of garbage.
  {
    util::File f = util::File::OpenAppend(path);
    Bytes garbage = {0x52, 0x45, 0x44, 0x31, 0x02};  // magic + type, no more
    f.Append(garbage);
  }
  const std::uint64_t dirty_size = util::File::OpenRead(path).Size();
  store::Wal wal(path, DurabilityOptions{});
  EXPECT_EQ(wal.torn_tail_bytes(), 5u);
  EXPECT_EQ(util::File::OpenRead(path).Size(), dirty_size - 5);
  // Both records survive in the recovered buffer, in order.
  std::size_t offset = 0;
  RecordView r1 = store::DecodeRecord(wal.recovered(), offset);
  EXPECT_EQ(r1.type, RecordType::kIndexErase);
  offset += r1.encoded_size;
  RecordView r2 = store::DecodeRecord(wal.recovered(), offset);
  EXPECT_EQ(r2.type, RecordType::kObjectErase);
  EXPECT_EQ(offset + r2.encoded_size, wal.recovered().size());
  // New appends continue after the truncated tail with fresh LSNs.
  EXPECT_EQ(wal.Append(RecordType::kObjectErase,
                       store::EncodeObjectErase({0, "b"})),
            1u);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, GroupCommitMakesAppendsDurableUnderEveryPolicy) {
  for (store::FsyncPolicy policy :
       {store::FsyncPolicy::kNone, store::FsyncPolicy::kGrouped,
        store::FsyncPolicy::kAlways}) {
    const std::string dir = FreshDir("wal_commit");
    util::CreateDirectories(dir);
    DurabilityOptions opts;
    opts.fsync_policy = policy;
    opts.group_commit_window = std::chrono::microseconds(100);
    store::Wal wal(dir + "/wal.log", opts);
    std::uint64_t last = 0;
    for (int i = 0; i < 16; ++i) {
      last = wal.Append(RecordType::kObjectErase,
                        store::EncodeObjectErase({0, std::to_string(i)}));
    }
    wal.Commit(last);
    wal.CommitAll();  // idempotent
    store::Wal reopened(dir + "/wal.log", opts);
    EXPECT_EQ(reopened.torn_tail_bytes(), 0u);
    std::size_t offset = 0, records = 0;
    while (offset < reopened.recovered().size()) {
      offset += store::DecodeRecord(reopened.recovered(), offset).encoded_size;
      ++records;
    }
    EXPECT_EQ(records, 16u);
    std::filesystem::remove_all(dir);
  }
}

std::uint64_t WalCounter(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

TEST(WalTest, LoneWriterNeverDwells) {
  // With nobody else in flight the window could only delay the commit: a
  // lone writer's leader fsyncs at once, however wide the window.
  const std::string dir = FreshDir("wal_lone");
  util::CreateDirectories(dir);
  DurabilityOptions opts;
  opts.fsync_policy = store::FsyncPolicy::kGrouped;
  opts.group_commit_window = std::chrono::milliseconds(200);
  store::Wal wal(dir + "/wal.log", opts);
  const std::uint64_t dwells = WalCounter("store.wal.dwells");
  const std::uint64_t syncs = WalCounter("store.wal.syncs");
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    store::Wal::Writer writing(wal);
    wal.Commit(wal.Append(RecordType::kObjectErase,
                          store::EncodeObjectErase({0, std::to_string(i)})));
  }
  EXPECT_EQ(WalCounter("store.wal.dwells"), dwells);
  EXPECT_EQ(WalCounter("store.wal.syncs"), syncs + 4);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(800));
  std::filesystem::remove_all(dir);
}

TEST(WalTest, ConcurrentWritersDwellAndRide) {
  const std::string dir = FreshDir("wal_concurrent");
  util::CreateDirectories(dir);
  DurabilityOptions opts;
  opts.fsync_policy = store::FsyncPolicy::kGrouped;
  opts.group_commit_window = std::chrono::milliseconds(2);
  store::Wal wal(dir + "/wal.log", opts);
  const std::uint64_t dwells = WalCounter("store.wal.dwells");
  const std::uint64_t rides = WalCounter("store.wal.group_rides");
  constexpr int kThreads = 4;
  constexpr int kCommits = 20;
  // Every writer holds its first record, appended and in flight, at the
  // latch, so the first leader always finds the others in flight however
  // late the threads start on a loaded host.
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &start, t] {
      for (int i = 0; i < kCommits; ++i) {
        store::Wal::Writer writing(wal);
        const std::uint64_t lsn = wal.Append(
            RecordType::kObjectErase,
            store::EncodeObjectErase({0, std::to_string(t * kCommits + i)}));
        if (i == 0) start.arrive_and_wait();
        wal.Commit(lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(WalCounter("store.wal.dwells"), dwells);
  EXPECT_GT(WalCounter("store.wal.group_rides"), rides);
  store::Wal reopened(dir + "/wal.log", opts);
  std::size_t offset = 0, records = 0;
  while (offset < reopened.recovered().size()) {
    offset += store::DecodeRecord(reopened.recovered(), offset).encoded_size;
    ++records;
  }
  EXPECT_EQ(records, static_cast<std::size_t>(kThreads * kCommits));
  std::filesystem::remove_all(dir);
}

TEST(StorageServerDurableTest, SingleWriterCommitsNeverDwell) {
  // One writer at a time, as a rekey's PutObject calls are: every commit
  // is fsynced (and timed) without a dwell.
  const std::string dir = FreshDir("server_lone_writer");
  StorageServer::Options opts;
  opts.data_dir = dir;
  opts.durability.fsync_policy = store::FsyncPolicy::kGrouped;
  opts.durability.group_commit_window = std::chrono::milliseconds(50);
  StorageServer server("srv", opts);
  obs::Histogram& sync_us =
      obs::Registry::Global().GetHistogram("store.wal.sync_us");
  const std::uint64_t dwells = WalCounter("store.wal.dwells");
  const std::uint64_t timed = sync_us.count();
  for (int i = 0; i < 3; ++i) {
    server.PutObject(StoreId::kKey, "keystate/f" + std::to_string(i),
                     Pattern(32, static_cast<std::uint8_t>(i)));
  }
  Bytes data = Pattern(300, 9);
  (void)server.PutChunks({{FpOf(data), data}});
  EXPECT_EQ(WalCounter("store.wal.dwells"), dwells);
  EXPECT_EQ(sync_us.count(), timed + 4);
  server.Close();
  std::filesystem::remove_all(dir);
}

TEST(StorageServerDurableTest, IngestStageTimersRecordOncePerBatch) {
  const std::string dir = FreshDir("server_ingest_timers");
  StorageServer::Options opts;
  opts.data_dir = dir;
  StorageServer server("srv", opts);
  auto& reg = obs::Registry::Global();
  obs::Histogram* stages[] = {&reg.GetHistogram("server.ingest.index_us"),
                              &reg.GetHistogram("server.ingest.append_us"),
                              &reg.GetHistogram("server.ingest.wal_append_us"),
                              &reg.GetHistogram("server.ingest.commit_wait_us")};
  std::vector<std::uint64_t> counts;
  for (obs::Histogram* h : stages) counts.push_back(h->count());
  std::vector<Bytes> payloads;
  for (int i = 0; i < 16; ++i) {
    payloads.push_back(Pattern(8192, static_cast<std::uint8_t>(i)));
  }
  std::vector<std::pair<chunk::Fingerprint, ByteSpan>> batch;
  for (const Bytes& data : payloads) batch.emplace_back(FpOf(data), data);
  EXPECT_EQ(server.PutChunks(batch).stored, batch.size());
  const std::uint64_t appended_us = stages[1]->sum();
  const std::uint64_t inserted_us = stages[2]->sum();
  // All duplicates: one more sample per stage, and no time in the append
  // or the insert, which a duplicate never reaches.
  EXPECT_EQ(server.PutChunks(batch).duplicates, batch.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(stages[i]->count(), counts[i] + 2) << "stage " << i;
  }
  EXPECT_EQ(stages[1]->sum(), appended_us);
  EXPECT_EQ(stages[2]->sum(), inserted_us);
  server.Close();
  std::filesystem::remove_all(dir);
}

// Engine tests pack chunks into small containers so rotations happen.
constexpr std::size_t kSmallContainers = 256;

TEST(DurableEngineTest, RecoversChunksObjectsAndIndexAcrossReopen) {
  const std::string dir = FreshDir("engine_roundtrip");
  std::vector<Bytes> chunks;
  std::vector<ChunkLocation> locs;
  {
    store::DurableEngine fx(dir, {}, kSmallContainers);
    for (int i = 0; i < 10; ++i) {
      chunks.push_back(Pattern(100 + static_cast<std::size_t>(i), 9));
      locs.push_back(fx.containers().Append(chunks.back()));
      ASSERT_TRUE(fx.index().Insert(FpOf(chunks.back()), locs.back()));
    }
    fx.data_objects().Put("recipe/f1", Pattern(64, 10));
    fx.key_objects().Put("keystate/f1", Pattern(48, 11));
    fx.Commit();
  }
  store::DurableEngine fx(dir, {}, kSmallContainers);
  EXPECT_GT(fx.recovery_stats().replayed_records, 0u);
  EXPECT_EQ(fx.recovery_stats().orphans_discarded, 0u);
  EXPECT_EQ(fx.recovery_stats().dangling_erased, 0u);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    auto loc = fx.index().Lookup(FpOf(chunks[i]));
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(*loc, locs[i]);
    EXPECT_EQ(fx.containers().Read(*loc), chunks[i]);
  }
  EXPECT_EQ(fx.data_objects().Get("recipe/f1"), Pattern(64, 10));
  EXPECT_EQ(fx.key_objects().Get("keystate/f1"), Pattern(48, 11));
  // Replayed appends land exactly where the originals did.
  Bytes next = Pattern(33, 12);
  ChunkLocation resumed = fx.containers().Append(next);
  EXPECT_GT(resumed.offset + 0u, 0u);
  EXPECT_EQ(fx.containers().Read(resumed), next);
  std::filesystem::remove_all(dir);
}

TEST(DurableEngineTest, SegmentRotationSealsAndRecovers) {
  const std::string dir = FreshDir("engine_seal");
  std::vector<Bytes> chunks;
  {
    // 64-byte containers force a rotation roughly every chunk.
    store::DurableEngine fx(dir, {}, /*container_capacity=*/64);
    for (int i = 0; i < 6; ++i) {
      chunks.push_back(Pattern(50, static_cast<std::uint8_t>(13 + i)));
      ASSERT_TRUE(fx.index().Insert(FpOf(chunks.back()),
                                    fx.containers().Append(chunks.back())));
    }
    fx.Commit();
    EXPECT_GE(fx.segments().segments_sealed(), 5u);
  }
  store::DurableEngine fx(dir, {}, 64);
  EXPECT_GE(fx.recovery_stats().segments_sealed, 5u);
  for (const Bytes& c : chunks) {
    auto loc = fx.index().Lookup(FpOf(c));
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(fx.containers().Read(*loc), c);
  }
  std::filesystem::remove_all(dir);
}

TEST(DurableEngineTest, CheckpointEmptiesWalAndRecoveryReplaysNothing) {
  const std::string dir = FreshDir("engine_ckpt");
  Bytes chunk = Pattern(80, 20);
  {
    store::DurableEngine fx(dir, {}, kSmallContainers);
    ASSERT_TRUE(fx.index().Insert(FpOf(chunk), fx.containers().Append(chunk)));
    fx.data_objects().Put("stub/f9", Pattern(32, 21));
    fx.Checkpoint();
  }
  EXPECT_EQ(util::File::OpenRead(dir + "/wal.log").Size(), 0u);
  EXPECT_TRUE(util::FileExists(dir + "/index.ckpt"));
  store::DurableEngine fx(dir, {}, kSmallContainers);
  auto loc = fx.index().Lookup(FpOf(chunk));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(fx.containers().Read(*loc), chunk);
  EXPECT_EQ(fx.data_objects().Get("stub/f9"), Pattern(32, 21));
  std::filesystem::remove_all(dir);
}

TEST(DurableEngineTest, ReconcilesDanglingIndexEntryFromTornSegmentTail) {
  const std::string dir = FreshDir("engine_dangling");
  Bytes kept = Pattern(40, 22);
  Bytes lost = Pattern(44, 23);
  std::uint64_t cut;
  {
    store::DurableEngine fx(dir, {}, kSmallContainers);
    ASSERT_TRUE(fx.index().Insert(FpOf(kept), fx.containers().Append(kept)));
    cut = util::File::OpenRead(dir + "/seg-000000.log").Size();
    ASSERT_TRUE(fx.index().Insert(FpOf(lost), fx.containers().Append(lost)));
    fx.Commit();
  }
  // Crash shape: the second chunk's segment record is torn away while its
  // index insert survived in the WAL.
  {
    util::File f = util::File::OpenAppend(dir + "/seg-000000.log");
    f.Truncate(cut);
  }
  store::DurableEngine fx(dir, {}, kSmallContainers);
  EXPECT_EQ(fx.recovery_stats().dangling_erased, 1u);
  EXPECT_FALSE(fx.index().Lookup(FpOf(lost)).has_value());
  auto loc = fx.index().Lookup(FpOf(kept));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(fx.containers().Read(*loc), kept);
  std::filesystem::remove_all(dir);
}

TEST(DurableEngineTest, ReconcilesOrphanChunkFromTornWalTail) {
  const std::string dir = FreshDir("engine_orphan");
  Bytes kept = Pattern(40, 24);
  Bytes orphan = Pattern(44, 25);
  std::uint64_t cut;
  {
    store::DurableEngine fx(dir, {}, kSmallContainers);
    ASSERT_TRUE(fx.index().Insert(FpOf(kept), fx.containers().Append(kept)));
    cut = util::File::OpenRead(dir + "/wal.log").Size();
    // Append lands in the segment log; its index insert is then torn away.
    ASSERT_TRUE(
        fx.index().Insert(FpOf(orphan), fx.containers().Append(orphan)));
    fx.Commit();
  }
  {
    util::File f = util::File::OpenAppend(dir + "/wal.log");
    f.Truncate(cut);
  }
  store::DurableEngine fx(dir, {}, kSmallContainers);
  EXPECT_EQ(fx.recovery_stats().orphans_discarded, 1u);
  EXPECT_FALSE(fx.index().Lookup(FpOf(orphan)).has_value());
  auto stats = fx.containers().stats();
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(stats.bytes, kept.size());
  // The repaired state survives ANOTHER reopen: the orphan discard went
  // through the logged path, so replay offsets stay aligned.
  Bytes more = Pattern(20, 26);
  ASSERT_TRUE(fx.index().Insert(FpOf(more), fx.containers().Append(more)));
  fx.Commit();
  std::filesystem::remove_all(dir);
}

TEST(DurableEngineTest, RepairedStateIsStableAcrossASecondReopen) {
  const std::string dir = FreshDir("engine_stable");
  Bytes kept = Pattern(40, 27);
  Bytes orphan = Pattern(44, 28);
  std::uint64_t cut;
  {
    store::DurableEngine fx(dir, {}, kSmallContainers);
    ASSERT_TRUE(fx.index().Insert(FpOf(kept), fx.containers().Append(kept)));
    cut = util::File::OpenRead(dir + "/wal.log").Size();
    ASSERT_TRUE(
        fx.index().Insert(FpOf(orphan), fx.containers().Append(orphan)));
    fx.Commit();
  }
  {
    util::File f = util::File::OpenAppend(dir + "/wal.log");
    f.Truncate(cut);
  }
  // The first recovery repairs; the second must find nothing left to repair.
  { store::DurableEngine fx(dir, {}, kSmallContainers); }
  store::DurableEngine fx(dir, {}, kSmallContainers);
  EXPECT_EQ(fx.recovery_stats().orphans_discarded, 0u);
  EXPECT_EQ(fx.recovery_stats().dangling_erased, 0u);
  EXPECT_EQ(fx.containers().stats().chunks, 1u);
  std::filesystem::remove_all(dir);
}

TEST(DurableEngineTest, ObjectEraseReplaysAndPrefixCountersMatchRescan) {
  const std::string dir = FreshDir("engine_obj_erase");
  {
    store::DurableEngine fx(dir, {}, kSmallContainers);
    fx.data_objects().Put("stub/a", Pattern(100, 60));
    fx.data_objects().Put("stub/b", Pattern(50, 61));
    fx.data_objects().Put("recipe/a", Pattern(25, 62));
    fx.data_objects().Put("stub/a", Pattern(10, 63));  // overwrite shrinks
    ASSERT_TRUE(fx.data_objects().Erase("stub/b"));
    EXPECT_FALSE(fx.data_objects().Erase("stub/missing"));
    fx.Commit();
  }
  store::DurableEngine fx(dir, {}, kSmallContainers);
  EXPECT_FALSE(fx.data_objects().Contains("stub/b"));
  EXPECT_EQ(fx.data_objects().Get("stub/a"), Pattern(10, 63));
  // The O(1) per-directory counters must equal a full rescan after replay.
  std::uint64_t rescan = 0;
  fx.data_objects().ForEach([&](const std::string& name, const Bytes& value) {
    if (name.starts_with("stub/")) rescan += value.size();
  });
  EXPECT_EQ(fx.data_objects().TotalBytesWithPrefix("stub/"), rescan);
  EXPECT_EQ(rescan, 10u);
  EXPECT_EQ(fx.data_objects().total_bytes(), 35u);
  std::filesystem::remove_all(dir);
}

TEST(StorageServerDurableTest, ReopenPreservesChunksObjectsAndDedup) {
  const std::string dir = FreshDir("server_reopen");
  StorageServer::Options opts;
  opts.data_dir = dir;
  StorageServer server("srv", opts);

  std::vector<Bytes> payloads;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back(Pattern(200, static_cast<std::uint8_t>(30 + i)));
  }
  std::vector<std::pair<chunk::Fingerprint, ByteSpan>> batch;
  for (const Bytes& data : payloads) batch.emplace_back(FpOf(data), data);
  auto put = server.PutChunks(batch);
  EXPECT_EQ(put.stored, batch.size());
  server.PutObject(StoreId::kData, "stub/f1", Pattern(64, 40));
  server.PutObject(StoreId::kKey, "keystate/f1", Pattern(32, 41));

  server.Reopen();

  auto report = server.CheckConsistency();
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_GT(server.RecoveryStats().replayed_records, 0u);
  std::vector<chunk::Fingerprint> fps;
  for (const auto& [fp, data] : batch) fps.push_back(fp);
  std::vector<Bytes> got = server.GetChunks(fps);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], payloads[i]);
  }
  EXPECT_EQ(server.GetObject(StoreId::kData, "stub/f1"), Pattern(64, 40));
  EXPECT_EQ(server.GetObject(StoreId::kKey, "keystate/f1"), Pattern(32, 41));
  // Dedup state survived: the same batch is now all duplicates.
  auto again = server.PutChunks(batch);
  EXPECT_EQ(again.duplicates, batch.size());
  EXPECT_EQ(again.stored, 0u);

  // A clean close checkpoints; the next open replays only segment records.
  server.Close();
  server.Reopen();
  EXPECT_TRUE(server.CheckConsistency().ok);
  std::filesystem::remove_all(dir);
}

// A server built with no data_dir keeps its store in a scratch directory:
// it survives a clean Close+Reopen and a cold Reopen like any other store,
// and is gone once the server is destroyed.
TEST(StorageServerDurableTest, ScratchDirServerReopensAndCleansUp) {
  // The server makes its scratch directory under the temp directory, which
  // honours TMPDIR: point it at an empty directory for the constructor, so
  // the scratch directory is the only entry there.
  const std::string tmp = FreshDir("scratch_tmp");
  util::CreateDirectories(tmp);
  auto entries = [&tmp] {
    auto it = std::filesystem::directory_iterator(tmp);
    return std::distance(begin(it), end(it));
  };
  {
    const char* saved = std::getenv("TMPDIR");
    const std::string old_tmpdir = saved != nullptr ? saved : "";
    ::setenv("TMPDIR", tmp.c_str(), 1);
    StorageServer server("scratch");
    if (saved != nullptr) {
      ::setenv("TMPDIR", old_tmpdir.c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
    EXPECT_EQ(entries(), 1);
    std::vector<Bytes> payloads;
    for (int i = 0; i < 4; ++i) {
      payloads.push_back(Pattern(300, static_cast<std::uint8_t>(70 + i)));
    }
    std::vector<std::pair<chunk::Fingerprint, ByteSpan>> batch;
    for (const Bytes& data : payloads) batch.emplace_back(FpOf(data), data);
    ASSERT_EQ(server.PutChunks(batch).stored, batch.size());
    server.PutObject(StoreId::kData, "stub/f1", Pattern(64, 80));
    server.PutObject(StoreId::kData, "recipe/f1", Pattern(24, 81));
    server.PutObject(StoreId::kKey, "keystate/f1", Pattern(32, 82));
    const std::uint64_t stub_bytes =
        server.ObjectBytesWithPrefix(StoreId::kData, "stub/");
    EXPECT_EQ(stub_bytes, 64u);

    for (bool checkpoint_first : {true, false}) {
      SCOPED_TRACE(checkpoint_first ? "Close+Reopen" : "cold Reopen");
      if (checkpoint_first) server.Close();
      server.Reopen();
      EXPECT_GT(server.RecoveryStats().replayed_records, 0u);
      auto report = server.CheckConsistency();
      EXPECT_TRUE(report.ok) << report.detail;
      EXPECT_EQ(server.PutChunks(batch).duplicates, batch.size());
      std::vector<chunk::Fingerprint> fps;
      for (const auto& [fp, data] : batch) fps.push_back(fp);
      EXPECT_EQ(server.GetChunks(fps), payloads);
      EXPECT_EQ(server.GetObject(StoreId::kData, "stub/f1"), Pattern(64, 80));
      EXPECT_EQ(server.GetObject(StoreId::kKey, "keystate/f1"),
                Pattern(32, 82));
      EXPECT_EQ(server.ObjectBytesWithPrefix(StoreId::kData, "stub/"),
                stub_bytes);
      EXPECT_EQ(server.ObjectBytesWithPrefix(StoreId::kData, "recipe/"), 24u);
    }
  }
  EXPECT_EQ(entries(), 0) << "the scratch directory outlived its server";
  std::filesystem::remove_all(tmp);
}

// Regression (per-prefix byte counters across recovery): replayed puts,
// overwrites, and erases must move the per-directory counters exactly like
// the original ops did, so TotalBytesWithPrefix matches a full rescan.
TEST(StorageServerDurableTest, PrefixByteCountersSurviveRecoveryReplay) {
  const std::string dir = FreshDir("server_prefix");
  StorageServer::Options opts;
  opts.data_dir = dir;
  StorageServer server("srv", opts);
  server.PutObject(StoreId::kData, "stub/f1", Pattern(100, 50));
  server.PutObject(StoreId::kData, "stub/f2", Pattern(60, 51));
  server.PutObject(StoreId::kData, "recipe/f1", Pattern(40, 52));
  server.PutObject(StoreId::kData, "stub/f1", Pattern(30, 53));  // overwrite
  server.PutObject(StoreId::kData, "noslash", Pattern(10, 54));

  server.Reopen();

  EXPECT_EQ(server.ObjectBytesWithPrefix(StoreId::kData, "stub/"), 90u);
  EXPECT_EQ(server.ObjectBytesWithPrefix(StoreId::kData, "recipe/"), 40u);
  // The generic-prefix path rescans; both answers must agree.
  EXPECT_EQ(server.ObjectBytesWithPrefix(StoreId::kData, "stub/"),
            server.ObjectBytesWithPrefix(StoreId::kData, "stub"));
  EXPECT_EQ(server.ObjectBytesWithPrefix(StoreId::kData, ""), 140u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace reed
