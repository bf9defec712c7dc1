// The REED key manager (paper §III-A, §V "Key manager").
//
// A dedicated, fully trusted service holding the system-wide RSA key pair.
// Clients send *batches* of blinded chunk fingerprints (batching amortizes
// round trips — Fig. 5(b)); the manager answers with blind signatures,
// rate-limited per client identity to blunt online brute-force attacks.
// The manager never learns fingerprints (OPRF obliviousness) and never
// stores anything per chunk. Each batch is signed across a pool with one
// thread per core.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "rsa/blind_signature.h"
#include "util/rate_limiter.h"
#include "util/thread_pool.h"
#include "util/thread_annotations.h"

namespace reed::keymanager {

using bigint::BigInt;

// Typed error for the key-management layer: malformed batches, rejected
// requests, replica exhaustion. Deriving from reed::Error keeps existing
// `catch (const Error&)` sites working while letting clients discriminate
// key-manager failures (possibly retryable against another replica) from
// storage or wire ones.
class KeyManagerError : public Error {
 public:
  using Error::Error;
};

class RateLimitedError : public KeyManagerError {
 public:
  using KeyManagerError::KeyManagerError;
};

class KeyManager {
 public:
  struct Options {
    std::size_t rsa_bits = 1024;  // paper §V: 1024-bit RSA
    // Per-client request budget; <= 0 disables rate limiting. The unit is
    // per-chunk key-generation requests (not batches).
    double rate_limit_per_sec = 0;
    double rate_limit_burst = 0;
  };

  // Generates the system-wide key pair at construction.
  KeyManager(const Options& options, crypto::Rng& rng);
  // Adopts an existing key pair (e.g. restored from the key store).
  KeyManager(rsa::RsaKeyPair keys, const Options& options);

  const rsa::RsaPublicKey& public_key() const { return server_.public_key(); }
  const Options& options() const { return options_; }

  // Signs a batch of blinded fingerprints for `client_id`, in order, across
  // the signing pool. Throws RateLimitedError when the client exceeds its
  // budget. Safe to call from several threads at once.
  [[nodiscard]] std::vector<BigInt> SignBatch(const std::string& client_id,
                                const std::vector<BigInt>& blinded);

  // Wire entry point: parses a request frame, answers with a response
  // frame. Status byte 0 = OK, 1 = rate limited, 2 = malformed.
  [[nodiscard]] Bytes HandleRequest(ByteSpan request);

  struct Stats {
    std::uint64_t batches = 0;
    std::uint64_t signatures = 0;
    std::uint64_t rejected = 0;
  };
  [[nodiscard]] Stats stats() const;

  // --- wire helpers shared with the client side ---
  [[nodiscard]] static Bytes EncodeRequest(const std::string& client_id,
                                           const std::vector<BigInt>& blinded,
                                           std::size_t modulus_bytes);
  [[nodiscard]] static std::vector<BigInt> DecodeResponse(
      ByteSpan response, std::size_t modulus_bytes,
      std::size_t expected_count);

 private:
  Options options_;
  rsa::BlindSignatureServer server_;
  mutable Mutex mu_{LockRank::kKeyManagerState};
  // Bucket pointers are stable once created (values are unique_ptrs that
  // are never erased), so SignBatch may rate-limit outside the lock.
  std::unordered_map<std::string, std::unique_ptr<TokenBucket>> buckets_
      REED_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point epoch_;
  Stats stats_ REED_GUARDED_BY(mu_);
  // Signing pool, sized to the core count. Declared last so its workers
  // are joined before anything they read is destroyed.
  ThreadPool pool_;
};

}  // namespace reed::keymanager
