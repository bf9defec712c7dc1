// Lock ranking: the static half of REED's deadlock-freedom argument.
//
// Every mutex in src/ declares a LockRank at its declaration site
// (tools/lint/lock_lint.py enforces this). The discipline is a total order:
// a thread may only acquire a lock whose rank is STRICTLY GREATER than the
// rank of every lock it already holds. Ranks grow "downward" through the
// layering DAG — outermost locks (server request handling) carry the lowest
// ranks, leaf locks that everything may nest under (the obs registry, the
// serialized wire channels) carry the highest. Two locks of the same rank
// must never be held together: striped/sharded peers (ingest stripes, index
// shards) share a rank precisely because the code releases each before
// taking the next.
//
// The order is checked two ways:
//   * at runtime under -DREED_DEADLOCK_DETECT=ON (util/deadlock.h): any
//     acquisition that violates rank order or closes a cycle in the
//     acquired-after graph is reported with both acquisition sites, even if
//     the schedule never actually deadlocks;
//   * statically by tools/lint/lock_lint.py, which rejects unranked mutex
//     declarations in src/.
//
// kUnranked opts a lock out of the rank check only (tests, fixtures); it
// still participates in cycle detection. The numeric gaps are deliberate:
// new modules slot in without renumbering (DESIGN.md §8 keeps the table).
#pragma once

#include <array>
#include <cstdint>

namespace reed {

enum class LockRank : std::uint16_t {
  kUnranked = 0,

  // server: outermost band — locks taken while servicing a request, before
  // descending into store/.
  kServerStats = 100,   // StorageServer::stats_mu_
  kServerIngest = 110,  // StorageServer ingest stripes (peers: never nested)

  // store: nested under the ingest stripes on the write path.
  kStoreShard = 200,      // FingerprintIndex / ObjectStore shard locks
  kStoreContainer = 210,  // ContainerStore reader/writer lock
  // Durable-store leaves of the store band: the segment log is written
  // under the container writer lock, the WAL under index/object shard
  // locks — both must rank above every lock that feeds them records.
  kStoreSegment = 240,  // SegmentLog file state
  kStoreWal = 250,      // Wal append/commit state

  // keymanager
  kKeyManagerState = 300,  // KeyManager buckets_ + stats_

  // abe
  kAbeAttrCache = 350,  // CpAbe memos (attribute points, e(g,g))

  // util components shared across modules
  kThreadPool = 400,   // ThreadPool queue + condvar mutex
  kLruCache = 410,     // LruCache (MLE key cache)
  kRateLimiter = 420,  // TokenBucket

  // crypto
  kCryptoRng = 450,  // process-wide secure RNG

  // net bookkeeping (not the wire itself)
  kNetLink = 510,       // SimulatedLink bandwidth model
  kNetAsyncLoop = 520,  // AsyncServer per-loop handoff/completion queues
  kNetTenantMap = 530,  // AsyncServer tenant -> TokenBucket map

  // fault injection: site registration happens lazily at the first
  // traversal of a REED_FAULT_POINT, which may sit anywhere on the data
  // path — near-leaf for the same reason as the obs registry.
  kFaultRegistry = 590,

  // observability: metric registration happens lazily under data locks all
  // over the tree, so the registry must be acquirable while holding almost
  // anything — hence the near-leaf rank.
  kObsRegistry = 600,

  // leaf: wire-serialization locks (IoSerialMutex) that are intentionally
  // held across blocking socket I/O. Nothing may be acquired under them;
  // the max rank enforces exactly that.
  kIoChannel = 700,
};

// Stable dotted names, used for the obs histograms ("lock.<name>.wait_us")
// and the deadlock reports.
constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
      return "unranked";
    case LockRank::kServerStats:
      return "server.stats";
    case LockRank::kServerIngest:
      return "server.ingest";
    case LockRank::kStoreShard:
      return "store.shard";
    case LockRank::kStoreContainer:
      return "store.container";
    case LockRank::kStoreSegment:
      return "store.segment";
    case LockRank::kStoreWal:
      return "store.wal";
    case LockRank::kKeyManagerState:
      return "keymanager.state";
    case LockRank::kAbeAttrCache:
      return "abe.attr_cache";
    case LockRank::kThreadPool:
      return "util.thread_pool";
    case LockRank::kLruCache:
      return "util.lru_cache";
    case LockRank::kRateLimiter:
      return "util.rate_limiter";
    case LockRank::kCryptoRng:
      return "crypto.rng";
    case LockRank::kNetLink:
      return "net.link";
    case LockRank::kNetAsyncLoop:
      return "net.async_loop";
    case LockRank::kNetTenantMap:
      return "net.tenant_map";
    case LockRank::kFaultRegistry:
      return "util.fault_registry";
    case LockRank::kObsRegistry:
      return "obs.registry";
    case LockRank::kIoChannel:
      return "net.io_channel";
  }
  return "unknown";
}

// Every rank except kUnranked, for eager metric registration
// (obs/lock_metrics.cc resolves one wait + one held histogram per rank).
inline constexpr std::array<LockRank, 18> kAllLockRanks = {
    LockRank::kServerStats,     LockRank::kServerIngest,
    LockRank::kStoreShard,      LockRank::kStoreContainer,
    LockRank::kStoreSegment,    LockRank::kStoreWal,
    LockRank::kKeyManagerState, LockRank::kAbeAttrCache,
    LockRank::kThreadPool,      LockRank::kLruCache,
    LockRank::kRateLimiter,     LockRank::kCryptoRng,
    LockRank::kNetLink,         LockRank::kNetAsyncLoop,
    LockRank::kNetTenantMap,    LockRank::kFaultRegistry,
    LockRank::kObsRegistry,     LockRank::kIoChannel,
};

}  // namespace reed
