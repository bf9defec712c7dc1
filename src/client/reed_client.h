// The REED client (paper §III-A, §IV-D, §V "Client"): the software layer a
// user machine runs to upload, download, and rekey files.
//
// Upload pipeline (DESIGN.md §10), over units of one key-manager batch
// (256 chunks by default): a chunker task cuts unit k+2, a keygen task runs
// unit k+1 through chunk fingerprinting → OPRF MLE keygen (with key cache),
// the producer runs unit k through basic/enhanced CAONT encryption
// (multi-threaded, trimmed-package fingerprinting folded into the encode
// workers), and up to depth-1 earlier units are on the wire as batched
// uploads of trimmed packages (PipelineOptions.depth). A wrap task
// CP-ABE-encrypts a fresh key state for
// the whole upload; it is joined before the stub file is encrypted, then
// recipe, encrypted stub file and wrapped key state are written in order.
// Download pipeline: key state (CP-ABE decrypt + key-regression unwind) →
// recipe → chunks + stub file (next fetch batch prefetched while the pool
// decodes the current one) → CAONT revert → reassembly, aborting on any
// tampered chunk.
// Rekeying: wind the key state forward, re-wrap it under the new policy;
// active revocation additionally re-encrypts the stub file — never the
// trimmed packages.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "abe/cpabe.h"
#include "aont/reed_cipher.h"
#include "chunk/chunker.h"
#include "client/storage_client.h"
#include "keymanager/mle_key_client.h"
#include "rsa/key_regression.h"
#include "store/recipe.h"
#include "util/thread_pool.h"

namespace reed::client {

// Overlapped data-path knobs (DESIGN.md §10). depth is the number of upload
// units allowed in flight at once: the producer thread encodes unit k while
// the keygen of unit k+1 runs and up to depth-1 earlier units are on the
// wire. depth = 1 is the same pipeline with a window of one: each unit is
// stored before the next one's keygen starts, so keygen, encode and
// transfer strictly alternate. On
// download, depth >= 2 prefetches the next fetch batch while the pool
// decodes the current one.
struct PipelineOptions {
  std::size_t depth = 2;
  // Parallel RPC channels per data server (striped round-robin), so several
  // in-flight batches can target the same server concurrently. Consumed by
  // core::ReedSystem::CreateClient when it builds the StorageClient.
  std::size_t channels_per_server = 1;
};

struct ClientOptions {
  aont::Scheme scheme = aont::Scheme::kEnhanced;
  std::size_t stub_size = aont::kDefaultStubSize;
  // Variable-size (Rabin) chunking with this average; 0 selects fixed-size
  // chunking at `fixed_chunk_size`.
  std::size_t avg_chunk_size = 8 * 1024;
  std::size_t fixed_chunk_size = 8 * 1024;
  std::size_t encryption_threads = 2;  // paper §VI-A.2
  PipelineOptions pipeline;
  keymanager::MleKeyClient::Options key_options;
  // Non-empty: file identifiers are obfuscated with this salted hash before
  // they reach the cloud (paper §IV-D: "obfuscate sensitive metadata
  // information, such as the file pathname, by encoding it via a salted
  // hash"). All clients sharing files must use the same salt.
  Bytes file_id_salt;
  // 0 = seed the client RNG from the OS; tests pin a seed.
  std::uint64_t rng_seed = 0;
};

enum class RevocationMode { kLazy, kActive };

struct UploadResult {
  std::uint64_t logical_bytes = 0;
  std::size_t chunk_count = 0;
  std::size_t duplicate_chunks = 0;
  std::size_t stored_chunks = 0;
  std::uint64_t stored_bytes = 0;  // unique trimmed-package bytes
  std::uint64_t stub_bytes = 0;    // encrypted stub file size
};

struct RekeyResult {
  std::uint64_t new_version = 0;
  bool stub_reencrypted = false;
  std::uint64_t stub_bytes = 0;
};

class ReedClient {
 public:
  ReedClient(std::string user_id, ClientOptions options,
             std::shared_ptr<StorageClient> storage,
             std::shared_ptr<keymanager::MleKeyClient> keys,
             std::shared_ptr<const abe::CpAbe> abe, abe::PublicKey abe_pk,
             abe::PrivateKey access_key, rsa::RsaKeyPair derivation_keys);

  const std::string& user_id() const { return user_id_; }
  const ClientOptions& options() const { return options_; }
  keymanager::MleKeyClient& key_client() { return *keys_; }

  // Uploads `data` as `file_id`, readable by `authorized_users` (the file
  // policy is an OR over their identifiers; the uploader is always added).
  [[nodiscard]] UploadResult Upload(const std::string& file_id, ByteSpan data,
                      const std::vector<std::string>& authorized_users);

  // Upload with caller-supplied chunk boundaries. The trace-driven
  // experiment (§VI-B) reconstructs chunks from trace records and feeds
  // them directly past the chunking module. Runs the same pipeline as
  // Upload, fed from `refs` instead of the chunker.
  [[nodiscard]] UploadResult UploadChunked(const std::string& file_id, ByteSpan data,
                             const std::vector<chunk::ChunkRef>& refs,
                             const std::vector<std::string>& authorized_users);

  // Downloads and reassembles a file; throws if this user is not
  // authorized or any chunk fails its integrity check.
  [[nodiscard]] Bytes Download(const std::string& file_id);

  // Rekeys `file_id` with a new authorized-user set. Only the owner may
  // rekey. kActive also re-encrypts the stub file under the new file key.
  [[nodiscard]] RekeyResult Rekey(const std::string& file_id,
                    const std::vector<std::string>& authorized_users,
                    RevocationMode mode);

  // Group rekeying (paper §IV-D poses per-group rekeying as future work):
  // rekeys many files under one new policy with a SINGLE CP-ABE encryption.
  // A fresh group wrap key is CP-ABE-encrypted once; each file's wound key
  // state is then wrapped symmetrically under it. Cost: O(users) + O(files)
  // symmetric work, instead of O(users x files).
  [[nodiscard]] std::vector<RekeyResult> RekeyGroup(
      const std::vector<std::string>& file_ids,
      const std::vector<std::string>& authorized_users, RevocationMode mode);

  // Encryption-only path (no upload) — used by the Fig. 6 benchmark.
  [[nodiscard]] std::vector<aont::SealedChunk> EncryptChunks(
      ByteSpan data, const std::vector<chunk::ChunkRef>& refs,
      const std::vector<Secret>& mle_keys);

  // Chunking helper exposing the client's configured chunker.
  [[nodiscard]] std::vector<chunk::ChunkRef> ChunkData(ByteSpan data);

  // --- observable-state accessors (tests/model differential checker) ---
  // Not storage ops: tools/lint/model_lint.py requires every public
  // CamelCase method here to either appear in the model generator's op
  // table or carry a `model-observable` marker — a new client op cannot
  // ship unchecked.

  // The stored key-state record for `file_id` as the cloud holds it:
  // versions, owner, policy, envelope. Public metadata only (the wrapped
  // state stays sealed), diffed against the reference model after every op.
  [[nodiscard]] store::KeyStateRecord InspectKeyStateRecord(
      const std::string& file_id);  // model-observable

  // The unwrapped current key state (requires this user to satisfy the
  // record's policy). Security-oracle facility: a snapshot taken before a
  // rekey must fail to decrypt the re-encrypted stub file afterwards. Never
  // crosses the wire — the state stays in process, like Download's own use.
  [[nodiscard]] rsa::KeyState InspectKeyState(
      const std::string& file_id);  // model-observable

 private:
  // Yields the next chunk of the file being uploaded, nullopt after the last.
  using ChunkSource = std::function<std::optional<chunk::ChunkRef>()>;

  // The one upload pipeline behind Upload and UploadChunked. `next_chunk` is
  // called only from the chunker task, one unit at a time.
  UploadResult UploadStream(const std::string& file_id, ByteSpan data,
                            ChunkSource next_chunk,
                            const std::vector<std::string>& authorized_users);

  // The identifier actually sent to the cloud (salted hash when
  // obfuscation is configured).
  std::string StorageId(const std::string& file_id) const;
  store::KeyStateRecord FetchKeyStateRecord(const std::string& storage_id);
  // CP-ABE-decrypts the record's key state. A group-wrapped record needs
  // its group's wrap key; `wrap_keys`, when given, memoises those by wrap id
  // for the length of one caller (RekeyGroup), so each group blob is fetched
  // and decrypted once per call.
  rsa::KeyState UnwrapKeyState(
      const store::KeyStateRecord& record,
      std::map<std::string, Secret>* wrap_keys = nullptr);

  std::string user_id_;
  ClientOptions options_;
  std::shared_ptr<StorageClient> storage_;
  std::shared_ptr<keymanager::MleKeyClient> keys_;
  std::shared_ptr<const abe::CpAbe> abe_;
  abe::PublicKey abe_pk_;
  abe::PrivateKey access_key_;
  rsa::KeyRegressionOwner regression_owner_;
  aont::ReedCipher cipher_;
  // Pure and const, so the chunker task reads it without a lock.
  std::unique_ptr<const chunk::Chunker> chunker_;
  ThreadPool pool_;
  crypto::ChaChaRng rng_;
};

}  // namespace reed::client
