#include "keymanager/key_manager.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>

#include "obs/metrics.h"
#include "util/fault_inject.h"

namespace reed::keymanager {
namespace {

// Process-wide OPRF serving metrics: batch count, signatures issued,
// rate-limit rejections, and per-batch signing latency. The per-signature
// cost is sign_us / signatures. A batch is signed in lane groups of the
// signer's width (8 on the IFMA kernel, 1 on the scalar path); idle_lanes
// counts the padded lanes of short groups, so idle_lanes / (lane_groups ·
// width) is the share of lane work that small batches waste.
struct OprfServerMetrics {
  obs::Counter* batches;
  obs::Counter* signatures;
  obs::Counter* rejected;
  obs::Counter* lane_groups;
  obs::Counter* idle_lanes;
  obs::Histogram* sign_us;
};

OprfServerMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static OprfServerMetrics m{&reg.GetCounter("oprf.server.batches"),
                             &reg.GetCounter("oprf.server.signatures"),
                             &reg.GetCounter("oprf.server.rejected"),
                             &reg.GetCounter("oprf.server.lane_groups"),
                             &reg.GetCounter("oprf.server.idle_lanes"),
                             &reg.GetHistogram("oprf.server.sign_us")};
  return m;
}

}  // namespace

KeyManager::KeyManager(const Options& options, crypto::Rng& rng)
    : KeyManager(rsa::GenerateKeyPair(options.rsa_bits, rng), options) {}

KeyManager::KeyManager(rsa::RsaKeyPair keys, const Options& options)
    : options_(options),
      server_(std::move(keys.priv)),
      epoch_(std::chrono::steady_clock::now()),
      pool_(std::thread::hardware_concurrency()) {}

std::vector<BigInt> KeyManager::SignBatch(const std::string& client_id,
                                          const std::vector<BigInt>& blinded) {
  REED_FAULT_POINT("keymanager.sign_batch");
  if (options_.rate_limit_per_sec > 0) {
    TokenBucket* bucket;
    {
      MutexLock lock(mu_);
      auto& slot = buckets_[client_id];
      if (!slot) {
        slot = std::make_unique<TokenBucket>(options_.rate_limit_per_sec,
                                             options_.rate_limit_burst);
      }
      bucket = slot.get();
    }
    double now = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - epoch_)
                     .count();
    if (!bucket->TryAcquire(now, static_cast<double>(blinded.size()))) {
      MutexLock lock(mu_);
      ++stats_.rejected;
      Metrics().rejected->Increment();
      throw RateLimitedError("KeyManager: client " + client_id +
                             " exceeded its key-generation budget");
    }
  }

  // An out-of-range element fails the whole batch before any signing, so
  // the stats below stay untouched and no error has to cross the pool.
  for (const BigInt& b : blinded) server_.CheckBlinded(b);
  std::vector<BigInt> signatures(blinded.size());
  // One pool task per lane group: a group of up to `width` values costs one
  // exponentiation per CRT half.
  const std::size_t width = server_.width();
  const std::size_t groups = (blinded.size() + width - 1) / width;
  {
    obs::ScopedTimer sign_timer(*Metrics().sign_us);
    pool_.ParallelFor(groups, [&](std::size_t g) {
      std::size_t start = g * width;
      std::size_t count = std::min(width, blinded.size() - start);
      server_.SignBatch(std::span(blinded).subspan(start, count),
                        std::span(signatures).subspan(start, count));
    });
  }
  {
    MutexLock lock(mu_);
    ++stats_.batches;
    stats_.signatures += signatures.size();
  }
  Metrics().batches->Increment();
  Metrics().signatures->Add(signatures.size());
  Metrics().lane_groups->Add(groups);
  Metrics().idle_lanes->Add(groups * width - blinded.size());
  return signatures;
}

KeyManager::Stats KeyManager::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

Bytes KeyManager::EncodeRequest(const std::string& client_id,
                                const std::vector<BigInt>& blinded,
                                std::size_t modulus_bytes) {
  net::Writer w;
  w.Str(client_id);
  w.U32(static_cast<std::uint32_t>(blinded.size()));
  for (const BigInt& b : blinded) {
    w.Raw(b.ToBytesPadded(modulus_bytes));
  }
  return w.Take();
}

Bytes KeyManager::HandleRequest(ByteSpan request) {
  std::size_t nbytes = server_.public_key().ByteLength();
  net::Writer resp;
  try {
    net::Reader r(request);
    std::string client_id = r.Str();
    std::uint32_t count = r.U32();
    if (static_cast<std::uint64_t>(count) * nbytes > r.remaining()) {
      throw KeyManagerError("batch count exceeds payload");
    }
    std::vector<BigInt> blinded;
    blinded.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      blinded.push_back(BigInt::FromBytes(r.RawView(nbytes)));
    }
    r.ExpectEnd();

    std::vector<BigInt> sigs = SignBatch(client_id, blinded);
    resp.U8(0);
    for (const BigInt& s : sigs) resp.Raw(s.ToBytesPadded(nbytes));
    return resp.Take();
  } catch (const RateLimitedError& e) {
    resp.U8(1);
    resp.Str(e.what());
    return resp.Take();
  } catch (const Error& e) {
    resp.U8(2);
    resp.Str(e.what());
    return resp.Take();
  }
}

std::vector<BigInt> KeyManager::DecodeResponse(ByteSpan response,
                                               std::size_t modulus_bytes,
                                               std::size_t expected_count) {
  net::Reader r(response);
  std::uint8_t status = r.U8();
  if (status == 1) {
    throw RateLimitedError("KeyManager: rate limited: " + r.Str());
  }
  if (status != 0) {
    throw KeyManagerError("KeyManager: request rejected: " + r.Str());
  }
  std::vector<BigInt> sigs;
  sigs.reserve(expected_count);
  for (std::size_t i = 0; i < expected_count; ++i) {
    sigs.push_back(BigInt::FromBytes(r.RawView(modulus_bytes)));
  }
  r.ExpectEnd();
  return sigs;
}

}  // namespace reed::keymanager
