#include "keymanager/mle_key_client.h"

#include <future>
#include <optional>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/fault_inject.h"

namespace reed::keymanager {

namespace {
// LRU accounting charge per cached key: fingerprint + key + node overhead.
constexpr std::size_t kCacheEntryCost = 32 + 32 + 64;

// Process-wide mirrors of the per-instance Stats, plus per-batch OPRF
// timings: blinding (factor draws + blinding), the wire round trip alone,
// and unblinding (unblind + verify). Counters batch their adds per GetKeys
// call, never per chunk.
struct OprfClientMetrics {
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* batches;
  obs::Counter* failovers;
  obs::Counter* swallowed_failovers;
  obs::Histogram* blind_us;
  obs::Histogram* roundtrip_us;
  obs::Histogram* unblind_us;
};

OprfClientMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static OprfClientMetrics m{
      &reg.GetCounter("oprf.client.cache_hits"),
      &reg.GetCounter("oprf.client.cache_misses"),
      &reg.GetCounter("oprf.client.batches"),
      &reg.GetCounter("oprf.client.failovers"),
      &reg.GetCounter("errors.swallowed.oprf_failover"),
      &reg.GetHistogram("oprf.client.blind_us"),
      &reg.GetHistogram("oprf.client.roundtrip_us"),
      &reg.GetHistogram("oprf.client.unblind_us")};
  return m;
}
}  // namespace

MleKeyClient::MleKeyClient(std::string client_id,
                           rsa::RsaPublicKey manager_key,
                           std::shared_ptr<net::RpcChannel> channel,
                           const Options& options)
    : MleKeyClient(std::move(client_id), std::move(manager_key),
                   std::vector<std::shared_ptr<net::RpcChannel>>{
                       std::move(channel)},
                   options) {}

MleKeyClient::MleKeyClient(
    std::string client_id, rsa::RsaPublicKey manager_key,
    std::vector<std::shared_ptr<net::RpcChannel>> replicas,
    const Options& options)
    : MleKeyClient(std::move(client_id),
                   rsa::BlindSignatureClient(std::move(manager_key)),
                   std::move(replicas), options) {}

MleKeyClient::MleKeyClient(
    std::string client_id, rsa::BlindSignatureClient blind_client,
    std::vector<std::shared_ptr<net::RpcChannel>> replicas,
    const Options& options)
    : client_id_(std::move(client_id)),
      blind_client_(std::move(blind_client)),
      replicas_(std::move(replicas)),
      options_(options),
      cache_(options.enable_cache ? options.key_cache_bytes : 0,
             kCacheEntryCost),
      pool_(std::thread::hardware_concurrency()) {
  if (options_.batch_size == 0) {
    throw KeyManagerError("MleKeyClient: batch size must be positive");
  }
  if (replicas_.empty()) {
    throw KeyManagerError("MleKeyClient: need at least one key-manager replica");
  }
}

Bytes MleKeyClient::CallWithFailover(ByteSpan request) {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    try {
      return replicas_[i]->Call(request);
    } catch (const Error&) {
      // Transport-level failure: the next replica holds the same keys.
      // (Application-level rejections arrive as status frames, not
      // exceptions, so they are never retried here.) The last replica's
      // failure rethrows — only the masked intermediate failures are
      // swallowed, and each one is counted.
      if (i + 1 == replicas_.size()) throw;
      ++stats_.failovers;
      Metrics().failovers->Increment();
      Metrics().swallowed_failovers->Increment();
    }
  }
  throw KeyManagerError("MleKeyClient: unreachable");
}

std::vector<Secret> MleKeyClient::GetKeys(
    const std::vector<chunk::Fingerprint>& fps, crypto::Rng& rng) {
  REED_FAULT_POINT("keymanager.get_keys");
  std::vector<Secret> keys(fps.size());
  // One blinded element per distinct missing fingerprint: `missing` holds
  // each one's first index, and a repeat within the call takes that key.
  std::vector<std::size_t> missing;
  missing.reserve(fps.size());
  std::vector<std::pair<std::size_t, std::size_t>> repeats;  // (index, first)
  std::unordered_map<chunk::Fingerprint, std::size_t, chunk::FingerprintHash>
      first_miss;
  std::size_t misses = 0;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    std::optional<Secret> hit;
    if (options_.enable_cache) hit = cache_.Get(fps[i]);
    if (hit) {
      keys[i] = std::move(*hit);
      continue;
    }
    ++misses;
    auto [it, fresh] = first_miss.emplace(fps[i], i);
    if (fresh) {
      missing.push_back(i);
    } else {
      repeats.emplace_back(i, it->second);
    }
  }
  stats_.cache_hits += fps.size() - misses;
  stats_.cache_misses += misses;
  Metrics().cache_hits->Add(fps.size() - misses);
  Metrics().cache_misses->Add(misses);

  std::size_t modulus_bytes = blind_client_.manager_key().ByteLength();
  for (std::size_t start = 0; start < missing.size();
       start += options_.batch_size) {
    std::size_t n = std::min(missing.size() - start, options_.batch_size);

    // Factors are drawn serially and in order (the RNG is not thread-safe,
    // and this keeps the request bytes those of a serial Blind loop) and
    // inverted together with one inversion. Blinding needs only r, so the
    // pool blinds the lane groups of `width` chunks while one of its
    // threads inverts.
    obs::ScopedTimer blind_timer(*Metrics().blind_us);
    std::vector<BigInt> factors;
    factors.reserve(n);
    std::vector<ByteSpan> batch_fps;
    batch_fps.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      factors.push_back(blind_client_.DrawFactor(rng));
      batch_fps.push_back(fps[missing[start + i]].AsSpan());
    }
    std::vector<std::optional<BigInt>> inverses;
    std::future<void> inverted =
        pool_.Submit([&] { inverses = blind_client_.InvertFactors(factors); });
    std::vector<rsa::BlindedRequest> requests(n);
    const std::size_t width = blind_client_.width();
    const std::size_t groups = (n + width - 1) / width;
    auto group = [&](std::size_t g) {
      std::size_t lo = g * width;
      return std::pair(lo, std::min(width, n - lo));
    };
    try {
      pool_.ParallelFor(groups, [&](std::size_t g) {
        auto [lo, count] = group(g);
        blind_client_.BlindBatch(std::span(batch_fps).subspan(lo, count),
                                 std::span(factors).subspan(lo, count),
                                 std::span(requests).subspan(lo, count));
      });
    } catch (...) {
      inverted.wait();  // it reads `factors` and writes `inverses`
      throw;
    }
    inverted.get();
    std::vector<BigInt> blinded;
    blinded.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (inverses[i]) {
        requests[i].r_inv = std::move(*inverses[i]);
      } else {
        // A factor sharing a prime with N: draw again.
        requests[i] = blind_client_.Blind(batch_fps[i], rng);
      }
      blinded.push_back(requests[i].blinded);
    }
    (void)blind_timer.Stop();

    Bytes request = KeyManager::EncodeRequest(client_id_, blinded, modulus_bytes);
    obs::ScopedTimer rpc_timer(*Metrics().roundtrip_us);
    Bytes response = CallWithFailover(request);
    (void)rpc_timer.Stop();
    std::vector<BigInt> sigs =
        KeyManager::DecodeResponse(response, modulus_bytes, blinded.size());
    ++stats_.batches_sent;
    Metrics().batches->Increment();

    // A signature that fails s^e == h throws out of ParallelFor before any
    // key of this batch reaches `keys` or the cache.
    obs::ScopedTimer unblind_timer(*Metrics().unblind_us);
    std::vector<Secret> batch_keys(n);
    pool_.ParallelFor(groups, [&](std::size_t g) {
      auto [lo, count] = group(g);
      blind_client_.UnblindBatch(std::span(requests).subspan(lo, count),
                                 std::span(sigs).subspan(lo, count),
                                 std::span(batch_keys).subspan(lo, count));
    });
    (void)unblind_timer.Stop();
    for (std::size_t i = 0; i < n; ++i) {
      if (options_.enable_cache) cache_.Put(fps[missing[start + i]], batch_keys[i]);
      keys[missing[start + i]] = std::move(batch_keys[i]);
    }
  }
  for (const auto& [index, first] : repeats) keys[index] = keys[first];
  return keys;
}

Secret MleKeyClient::GetKey(const chunk::Fingerprint& fp, crypto::Rng& rng) {
  return GetKeys({fp}, rng).front();
}

void MleKeyClient::ClearCache() { cache_.Clear(); }

}  // namespace reed::keymanager
