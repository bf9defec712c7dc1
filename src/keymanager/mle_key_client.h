// Client-side MLE key acquisition (paper §V "Key manager" + §V-B
// optimizations): blinds fingerprints, batches requests (default 256
// per-chunk requests per round trip), and caches keys in a byte-budgeted
// LRU (default 512 MB) keyed by fingerprint.
//
// Adjacent backup uploads share most chunks, so the cache turns repeat
// uploads from key-manager-bound into network-bound — the effect Fig. 7
// measures.
//
// An MleKeyClient serves one caller at a time. Within a GetKeys call it
// draws blinding factors serially from the caller's RNG, inverts each
// batch's factors with one inversion (Montgomery's trick), then blinds and
// unblinds each batch across its own pool (one thread per core), handing
// each task whole lane groups of eight chunks on the IFMA kernel
// (BlindSignatureClient::BlindBatch / UnblindBatch).
#pragma once

#include <memory>

#include "chunk/fingerprint.h"
#include "keymanager/key_manager.h"
#include "net/rpc.h"
#include "rsa/blind_signature.h"
#include "util/lru_cache.h"
#include "util/secret.h"
#include "util/thread_pool.h"

namespace reed::keymanager {

class MleKeyClient {
 public:
  struct Options {
    std::size_t batch_size = 256;           // per-chunk requests per batch
    std::size_t key_cache_bytes = 512u << 20;  // 512 MB (paper §V-B)
    bool enable_cache = true;
  };

  MleKeyClient(std::string client_id, rsa::RsaPublicKey manager_key,
               std::shared_ptr<net::RpcChannel> channel,
               const Options& options);

  // Replicated key managers for availability (paper §III-A: "our design
  // can be generalized for multiple key managers"). All replicas hold the
  // same system-wide key pair, so any of them produces identical MLE keys;
  // the client fails over in order when a replica is unreachable.
  MleKeyClient(std::string client_id, rsa::RsaPublicKey manager_key,
               std::vector<std::shared_ptr<net::RpcChannel>> replicas,
               const Options& options);

  // Blinds and unblinds with `blind_client`, on its lane kernel; the
  // constructors above build one for the manager's key on the kernel this
  // CPU detects. Tests pass one forced onto a kernel to compare the paths.
  MleKeyClient(std::string client_id, rsa::BlindSignatureClient blind_client,
               std::vector<std::shared_ptr<net::RpcChannel>> replicas,
               const Options& options);

  // Returns one 32-byte MLE key per fingerprint, in order. Cache hits are
  // served locally; misses are blinded and batched to the key manager.
  // Keys are Secret end to end: they are never uploaded or logged (paper
  // §IV-D — decryption needs only trimmed package + stub).
  [[nodiscard]] std::vector<Secret> GetKeys(const std::vector<chunk::Fingerprint>& fps,
                              crypto::Rng& rng);

  [[nodiscard]] Secret GetKey(const chunk::Fingerprint& fp, crypto::Rng& rng);

  // Fingerprints per key-manager round trip: a GetKeys call over at most
  // this many fingerprints sends at most one request.
  [[nodiscard]] std::size_t batch_size() const { return options_.batch_size; }

  // Clears the key cache (the trace experiment resets it between users).
  void ClearCache();

  struct Stats {
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t failovers = 0;
  };
  [[nodiscard]] Stats stats() const { return stats_; }

 private:
  // Calls the first healthy replica; throws only when all fail (or the
  // request is rejected for a non-transport reason, e.g. rate limiting).
  [[nodiscard]] Bytes CallWithFailover(ByteSpan request);

  std::string client_id_;
  rsa::BlindSignatureClient blind_client_;
  std::vector<std::shared_ptr<net::RpcChannel>> replicas_;
  Options options_;
  // Entry cost: 32-byte fingerprint key + 32-byte MLE key + bookkeeping.
  // Secret values wipe themselves on LRU eviction.
  LruCache<chunk::Fingerprint, Secret, chunk::FingerprintHash> cache_;
  Stats stats_;
  // Blinding/unblinding pool. Declared last so its workers are joined
  // before anything they read is destroyed.
  ThreadPool pool_;
};

}  // namespace reed::keymanager
