#include "client/reed_client.h"

#include <algorithm>
#include <array>
#include <deque>
#include <future>
#include <optional>
#include <span>
#include <utility>

#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "util/fault_inject.h"
#include "util/schedule_fuzz.h"

namespace reed::client {

namespace {

// Pipeline stage tracing (DESIGN.md §9): one histogram per upload/download
// stage, matching the cost attribution in the paper's Figs. 5-7. Timings are
// recorded per batch (or per file operation), never per chunk, and the
// metric pointers are resolved once per process — nothing here allocates on
// the data path. The stage timers of the producer thread (chunking, encode,
// wrap, metadata) run one after another, so they add up to no more than the
// upload's wall time: chunking_us and wrap_us time only the producer's wait
// on the chunker and wrap tasks (wrap also covers the stub-file encryption
// after the join). Work on other threads has its own timers — the chunker
// task's busy time in chunker_us, the keygen task's fingerprint_us and
// keygen_us, each consumer's PutChunks in store_us — and overlaps the
// producer's (DESIGN.md §10). Only durations and byte counts are recorded;
// all Secret material stays inside the stages.
struct StageMetrics {
  obs::Histogram* chunking_us;
  obs::Histogram* chunker_us;
  obs::Histogram* fingerprint_us;
  obs::Histogram* keygen_us;
  obs::Histogram* encode_us;
  obs::Histogram* wrap_us;
  obs::Histogram* store_us;
  obs::Histogram* metadata_us;
  obs::Counter* upload_files;
  obs::Counter* upload_bytes;
  obs::Counter* upload_chunks;
  obs::Counter* upload_duplicates;
  obs::Histogram* unwrap_us;
  obs::Histogram* recipe_us;
  obs::Histogram* fetch_us;
  obs::Histogram* decode_us;
  obs::Counter* download_files;
  obs::Counter* download_bytes;
  obs::Counter* fetch_bytes;
  obs::Gauge* pipeline_inflight;
  // Rekey stages, one sample per file (a group's one wrap-key encrypt and
  // put land in wrap_us and store_us too): the key-state fetch, the unwrap
  // (CP-ABE decrypt, or a group wrap key's), the key-regression wind, the
  // re-wrap, the active stub re-encryption (fetch, decrypt, encrypt, put),
  // and the key-state put.
  obs::Histogram* rekey_fetch_us;
  obs::Histogram* rekey_unwrap_us;
  obs::Histogram* rekey_wind_us;
  obs::Histogram* rekey_wrap_us;
  obs::Histogram* rekey_stub_us;
  obs::Histogram* rekey_store_us;
};

StageMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static StageMetrics m{
      &reg.GetHistogram("client.upload.chunking_us"),
      &reg.GetHistogram("client.upload.chunker_us"),
      &reg.GetHistogram("client.upload.fingerprint_us"),
      &reg.GetHistogram("client.upload.keygen_us"),
      &reg.GetHistogram("client.upload.encode_us"),
      &reg.GetHistogram("client.upload.wrap_us"),
      &reg.GetHistogram("client.upload.store_us"),
      &reg.GetHistogram("client.upload.metadata_us"),
      &reg.GetCounter("client.upload.files"),
      &reg.GetCounter("client.upload.logical_bytes"),
      &reg.GetCounter("client.upload.chunks"),
      &reg.GetCounter("client.upload.duplicate_chunks"),
      &reg.GetHistogram("client.download.unwrap_us"),
      &reg.GetHistogram("client.download.recipe_us"),
      &reg.GetHistogram("client.download.fetch_us"),
      &reg.GetHistogram("client.download.decode_us"),
      &reg.GetCounter("client.download.files"),
      &reg.GetCounter("client.download.bytes"),
      &reg.GetCounter("client.download.fetch_bytes"),
      &reg.GetGauge("client.pipeline.inflight_batches"),
      &reg.GetHistogram("client.rekey.fetch_us"),
      &reg.GetHistogram("client.rekey.unwrap_us"),
      &reg.GetHistogram("client.rekey.wind_us"),
      &reg.GetHistogram("client.rekey.wrap_us"),
      &reg.GetHistogram("client.rekey.stub_us"),
      &reg.GetHistogram("client.rekey.store_us")};
  return m;
}

// fn(), timed into `hist`.
template <typename Fn>
auto Timed(obs::Histogram& hist, Fn&& fn) {
  obs::ScopedTimer timer(hist);
  return fn();
}

crypto::ChaChaRng MakeClientRng(std::uint64_t seed) {
  if (seed == 0) {
    Bytes s = crypto::SecureRandom::Generate(32);
    return crypto::ChaChaRng(s);
  }
  return crypto::DeterministicRng(seed);
}

// Variable-size (Rabin) chunking at the configured average; an average of
// 0 selects fixed-size chunks.
std::unique_ptr<const chunk::Chunker> MakeChunker(const ClientOptions& o) {
  if (o.avg_chunk_size == 0) {
    return std::make_unique<chunk::FixedSizeChunker>(o.fixed_chunk_size);
  }
  return std::make_unique<chunk::RabinChunker>(
      chunk::PaperChunking(o.avg_chunk_size));
}

std::string RecipeName(const std::string& file_id) { return "recipe/" + file_id; }
std::string StubName(const std::string& file_id) { return "stub/" + file_id; }
std::string StateName(const std::string& file_id) { return "keystate/" + file_id; }

// The only two sanctioned secret -> public crossings in the tree
// (DESIGN.md §8). Ciphertext produced by the aont/abe layers stays
// Secret-typed until the uploader makes the policy call that it is safe on
// the wire; these helpers are that call, one per crossing.

// Crossing 1: the stub file, AES-CTR + HMAC ciphertext under the renewable
// file key (paper §IV-A — re-encrypting this blob is the whole cost of
// active revocation).
Bytes PublicStubCiphertext(const Secret& sealed_stub_file) {
  return Declassify(sealed_stub_file,
                    "AES-CTR+HMAC ciphertext under the file key; "
                    "stub-file upload (crossing 1 of 2)");
}

// Crossing 2: the key-state envelope — CP-ABE under the file policy, or the
// symmetric wrap-key blob whose key is itself CP-ABE-protected (§IV-C).
Bytes PublicKeyStateEnvelope(const Secret& wrapped) {
  return Declassify(wrapped,
                    "CP-ABE / wrap-key envelope over the key state; "
                    "key-store upload (crossing 2 of 2)");
}

// The chunks refs[begin, end) of `data`, as views: one pool partition's
// batch.
std::vector<ByteSpan> ChunkViews(ByteSpan data,
                                 std::span<const chunk::ChunkRef> refs,
                                 std::size_t begin, std::size_t end) {
  std::vector<ByteSpan> views;
  views.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    views.push_back(data.subspan(refs[i].offset, refs[i].length));
  }
  return views;
}

}  // namespace

ReedClient::ReedClient(std::string user_id, ClientOptions options,
                       std::shared_ptr<StorageClient> storage,
                       std::shared_ptr<keymanager::MleKeyClient> keys,
                       std::shared_ptr<const abe::CpAbe> abe,
                       abe::PublicKey abe_pk, abe::PrivateKey access_key,
                       rsa::RsaKeyPair derivation_keys)
    : user_id_(std::move(user_id)),
      options_(options),
      storage_(std::move(storage)),
      keys_(std::move(keys)),
      abe_(std::move(abe)),
      abe_pk_(std::move(abe_pk)),
      access_key_(std::move(access_key)),
      regression_owner_(std::move(derivation_keys)),
      cipher_(options.scheme, options.stub_size),
      chunker_(MakeChunker(options)),
      pool_(options.encryption_threads),
      rng_(MakeClientRng(options.rng_seed)) {
  if (!storage_ || !keys_ || !abe_) {
    throw Error("ReedClient: missing dependency");
  }
}

std::string ReedClient::StorageId(const std::string& file_id) const {
  if (options_.file_id_salt.empty()) return file_id;
  return store::ObfuscateFileId(file_id, options_.file_id_salt);
}

std::vector<chunk::ChunkRef> ReedClient::ChunkData(ByteSpan data) {
  return chunker_->Split(data);
}

store::KeyStateRecord ReedClient::InspectKeyStateRecord(
    const std::string& file_id) {
  return FetchKeyStateRecord(StorageId(file_id));
}

rsa::KeyState ReedClient::InspectKeyState(const std::string& file_id) {
  return UnwrapKeyState(FetchKeyStateRecord(StorageId(file_id)));
}

std::vector<aont::SealedChunk> ReedClient::EncryptChunks(
    ByteSpan data, const std::vector<chunk::ChunkRef>& refs,
    const std::vector<Secret>& mle_keys) {
  if (refs.size() != mle_keys.size()) {
    throw Error("ReedClient: chunk/key count mismatch");
  }
  std::vector<aont::SealedChunk> sealed(refs.size());
  pool_.ParallelForRanges(refs.size(), [&](std::size_t begin, std::size_t end) {
    cipher_.EncryptMany(ChunkViews(data, refs, begin, end),
                        std::span(mle_keys).subspan(begin, end - begin),
                        std::span(sealed).subspan(begin, end - begin));
  });
  return sealed;
}

UploadResult ReedClient::Upload(const std::string& file_id, ByteSpan data,
                                const std::vector<std::string>& authorized_users) {
  if (data.empty()) throw Error("ReedClient::Upload: empty file");
  return UploadStream(
      file_id, data,
      [this, data, cut = std::size_t{0}]() mutable
          -> std::optional<chunk::ChunkRef> {
        if (cut == data.size()) return std::nullopt;
        chunk::ChunkRef ref{cut, chunker_->Cut(data.subspan(cut))};
        cut += ref.length;
        return ref;
      },
      authorized_users);
}

UploadResult ReedClient::UploadChunked(
    const std::string& file_id, ByteSpan data,
    const std::vector<chunk::ChunkRef>& refs,
    const std::vector<std::string>& authorized_users) {
  if (refs.empty()) throw Error("ReedClient::Upload: no chunks");
  return UploadStream(
      file_id, data,
      [&refs, next = std::size_t{0}]() mutable
          -> std::optional<chunk::ChunkRef> {
        if (next == refs.size()) return std::nullopt;
        return refs[next++];
      },
      authorized_users);
}

UploadResult ReedClient::UploadStream(
    const std::string& file_id, ByteSpan data, ChunkSource next_chunk,
    const std::vector<std::string>& authorized_users) {
  const std::string sid = StorageId(file_id);
  StageMetrics& m = Metrics();

  // The key-state wrap needs only a fresh state and the file policy, so a
  // wrap task produces it while the data flows. rng_ is not thread-safe:
  // the task draws from a child generator seeded from 32 bytes of it.
  std::vector<std::string> users = authorized_users;
  if (std::find(users.begin(), users.end(), user_id_) == users.end()) {
    users.push_back(user_id_);
  }
  const abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);
  struct WrappedState {
    rsa::KeyState state;
    Secret envelope;
  };
  std::array<std::uint8_t, 32> wrap_seed;
  rng_.Fill(wrap_seed);
  // std::async futures join in their destructor, so an exception on the
  // producer side waits for the wrap (and the chunker and consumer tasks
  // below) before unwinding past what they read.
  std::future<WrappedState> wrap = std::async(
      std::launch::async,
      [this, &policy,
       rng = crypto::ChaChaRng(wrap_seed)]() mutable -> WrappedState {
        REED_FAULT_POINT("client.upload.wrap");
        schedfuzz::Perturb("client.upload.wrap");
        rsa::KeyState state = regression_owner_.GenesisState(rng);
        Secret envelope = abe_->EncryptBytes(
            abe_pk_, policy, state.Serialize(regression_owner_.public_key()),
            rng);
        return {std::move(state), std::move(envelope)};
      });
  SecureZero(wrap_seed);

  // Four-stage pipeline over units of at most one key-manager batch
  // (MleKeyClient::batch_size() chunks, so a unit never needs two OPRF round
  // trips): the chunker task cuts unit k+2, a keygen task fingerprints unit
  // k+1 on the encryption pool and runs its GetKeys, this thread encodes and
  // assembles unit k, and up to depth-1 earlier units ride the wire on
  // consumer tasks. Recipe order, stub order, and dedup stats are
  // byte-identical across depths: assembly happens here in unit order, and
  // per-chunk dedup outcomes are order-independent (the server's ingest
  // stripes make lookup+insert atomic per fingerprint).
  //
  // Thread discipline: keys_ (MleKeyClient) and rng_ are NOT thread-safe.
  // While the loop runs only the keygen task touches them, one task at a
  // time: each starts after the previous one's future was read, so the
  // future hands them on, and this thread takes rng_ back once the loop is
  // over. Consumer tasks see only public-typed trimmed packages and the
  // thread-safe StorageClient.
  store::FileRecipe recipe;
  recipe.file_id = sid;
  recipe.file_size = data.size();
  recipe.scheme = static_cast<std::uint8_t>(options_.scheme);
  recipe.stub_size = static_cast<std::uint32_t>(options_.stub_size);
  // Each unit's stubs in their own exactly-sized buffer, joined once the
  // chunk count is known, so no growing Secret leaves copies behind.
  std::vector<Secret> unit_stubs;

  UploadResult result;
  result.logical_bytes = data.size();

  const std::size_t depth = std::max<std::size_t>(1, options_.pipeline.depth);
  // Each future's paired GaugeGuard drops the inflight gauge on an unwind.
  std::deque<std::pair<std::future<StorageClient::PutStats>, obs::GaugeGuard>>
      inflight;
  auto harvest = [&] {
    schedfuzz::Perturb("client.upload.harvest");
    std::future<StorageClient::PutStats> done =
        std::move(inflight.front().first);
    obs::GaugeGuard guard = std::move(inflight.front().second);
    inflight.pop_front();
    // get() rethrows a consumer-task failure; `guard` still releases.
    StorageClient::PutStats stats = done.get();
    result.duplicate_chunks += stats.duplicates;
    result.stored_chunks += stats.stored;
    result.stored_bytes += stats.stored_bytes;
  };

  // Cuts one unit: chunks until it holds a key-manager batch, so unit
  // boundaries do not depend on where the chunks come from. An empty unit
  // means the file is done.
  using Unit = std::vector<chunk::ChunkRef>;
  auto cut_unit = [&next_chunk, &m, unit_chunks = keys_->batch_size()] {
    REED_FAULT_POINT("client.upload.chunk");
    schedfuzz::Perturb("client.upload.chunk");
    obs::ScopedTimer busy_timer(*m.chunker_us);
    Unit unit;
    while (unit.size() < unit_chunks) {
      std::optional<chunk::ChunkRef> ref = next_chunk();
      if (!ref) break;
      unit.push_back(*ref);
    }
    return unit;
  };

  // Chunk fingerprints, parallel over the encryption pool (SHA-256 is the
  // serial bottleneck the paper parallelizes away in §V-B), then
  // server-aided MLE key generation (batched OPRF + cache). Kept off the
  // chunker task, whose serial cut is the bottleneck stage when the key
  // cache hides keygen.
  struct KeyedUnit {
    Unit refs;
    std::vector<Secret> keys;
  };
  auto keygen_unit = [this, data, &m](Unit refs) -> KeyedUnit {
    schedfuzz::Perturb("client.upload.keygen");
    obs::ScopedTimer fp_timer(*m.fingerprint_us);
    std::vector<chunk::Fingerprint> fps(refs.size());
    pool_.ParallelForRanges(refs.size(), [&](std::size_t begin, std::size_t end) {
      chunk::Fingerprint::OfMany(ChunkViews(data, refs, begin, end),
                                 std::span(fps).subspan(begin, end - begin));
    });
    (void)fp_timer.Stop();
    std::vector<Secret> keys =
        Timed(*m.keygen_us, [&] { return keys_->GetKeys(fps, rng_); });
    return {std::move(refs), std::move(keys)};
  };

  std::future<Unit> next_cut = std::async(std::launch::async, cut_unit);
  // Takes the next cut unit, starts cutting the one after it, and hands the
  // unit to a keygen task. An invalid future means the file is done.
  auto start_keygen = [&]() -> std::future<KeyedUnit> {
    obs::ScopedTimer chunk_timer(*m.chunking_us);
    Unit refs = next_cut.get();
    (void)chunk_timer.Stop();
    if (refs.empty()) return {};
    next_cut = std::async(std::launch::async, cut_unit);
    return std::async(std::launch::async, keygen_unit, std::move(refs));
  };
  // Depth 1 overlaps nothing: the next unit's keygen starts only once this
  // unit is stored. Deeper pipelines run exactly one unit's keygen ahead,
  // under this unit's encode.
  const bool keygen_ahead = depth >= 2;
  std::future<KeyedUnit> keyed = start_keygen();
  while (keyed.valid()) {
    // get() rethrows a keygen-task failure.
    const KeyedUnit unit = keyed.get();
    if (keygen_ahead) keyed = start_keygen();
    const Unit& refs = unit.refs;
    const std::size_t n = refs.size();
    result.chunk_count += n;

    // CAONT encode, with the trimmed-package fingerprints folded into the
    // same parallel partition that produced the packages (no second serial
    // SHA-256 pass). Each partition makes one EncryptMany and one batch of
    // package fingerprints, so the hashing runs at lane width.
    REED_FAULT_POINT("client.upload.encode");
    obs::ScopedTimer encode_timer(*m.encode_us);
    std::vector<aont::SealedChunk> sealed(n);
    std::vector<chunk::Fingerprint> package_fps(n);
    pool_.ParallelForRanges(n, [&](std::size_t begin, std::size_t end) {
      const std::span<aont::SealedChunk> out =
          std::span(sealed).subspan(begin, end - begin);
      cipher_.EncryptMany(ChunkViews(data, refs, begin, end),
                          std::span(unit.keys).subspan(begin, end - begin),
                          out);
      std::vector<ByteSpan> packages;
      packages.reserve(out.size());
      for (const aont::SealedChunk& c : out) packages.push_back(c.trimmed_package);
      chunk::Fingerprint::OfMany(
          packages, std::span(package_fps).subspan(begin, end - begin));
    });
    (void)encode_timer.Stop();
    schedfuzz::Perturb("client.upload.encode");

    // In-order assembly (Secret::Append is sequential by design).
    std::vector<std::pair<chunk::Fingerprint, Bytes>> batch;
    batch.reserve(n);
    Secret stubs;
    stubs.Reserve(n * options_.stub_size);
    for (std::size_t i = 0; i < n; ++i) {
      recipe.fingerprints.push_back(package_fps[i]);
      recipe.chunk_sizes.push_back(static_cast<std::uint32_t>(refs[i].length));
      stubs.Append(sealed[i].stub);
      batch.emplace_back(package_fps[i], std::move(sealed[i].trimmed_package));
    }
    unit_stubs.push_back(std::move(stubs));

    // Window: at most depth-1 units stay on the wire while the next one is
    // produced. Depth 1 is a window of one: its unit is harvested before
    // the next keygen starts, so keygen, encode and transfer alternate.
    while (!inflight.empty() && inflight.size() >= depth - 1) harvest();
    obs::GaugeGuard guard(*m.pipeline_inflight);
    inflight.emplace_back(
        std::async(std::launch::async,
                   [storage = storage_, &m,
                    moved = std::move(batch)]() -> StorageClient::PutStats {
                     // Fires on the consumer thread; surfaces at harvest()
                     // via the future.
                     REED_FAULT_POINT("client.upload.store");
                     schedfuzz::Perturb("client.upload.store");
                     obs::ScopedTimer store_timer(*m.store_us);
                     return storage->PutChunks(moved);
                   }),
        std::move(guard));
    if (inflight.size() >= depth) harvest();
    if (!keygen_ahead) keyed = start_keygen();
  }

  // Join the wrap while the tail units are still on the wire; the stub
  // file is encrypted under the file key of the state it wrapped.
  obs::ScopedTimer wrap_timer(*m.wrap_us);
  WrappedState wrapped = wrap.get();
  Secret stub_data;
  stub_data.Reserve(result.chunk_count * options_.stub_size);
  for (const Secret& stubs : unit_stubs) stub_data.Append(stubs);
  Secret stub_blob = aont::EncryptStubFile(
      stub_data, wrapped.state.DeriveFileKey(), rng_);
  store::KeyStateRecord record;
  record.owner_id = user_id_;
  record.key_version = wrapped.state.version;
  record.stub_key_version = wrapped.state.version;
  policy.SerializeTo(record.policy);
  record.wrapped_state = PublicKeyStateEnvelope(wrapped.envelope);
  record.derivation_public_key =
      rsa::SerializePublicKey(regression_owner_.public_key());
  (void)wrap_timer.Stop();

  // Drain the pipeline, then publish metadata (recipe must not become
  // visible before every package it references is stored).
  while (!inflight.empty()) harvest();
  obs::ScopedTimer metadata_timer(*m.metadata_us);
  storage_->PutObject(server::StoreId::kData, RecipeName(sid),
                      recipe.Serialize());
  storage_->PutObject(server::StoreId::kData, StubName(sid),
                      PublicStubCiphertext(stub_blob));
  storage_->PutObject(server::StoreId::kKey, StateName(sid),
                      record.Serialize());
  (void)metadata_timer.Stop();
  result.stub_bytes = stub_blob.size();
  m.upload_files->Increment();
  m.upload_bytes->Add(result.logical_bytes);
  m.upload_chunks->Add(result.chunk_count);
  m.upload_duplicates->Add(result.duplicate_chunks);
  return result;
}

store::KeyStateRecord ReedClient::FetchKeyStateRecord(
    const std::string& storage_id) {
  return store::KeyStateRecord::Deserialize(
      storage_->GetObject(server::StoreId::kKey, StateName(storage_id)));
}

rsa::KeyState ReedClient::UnwrapKeyState(
    const store::KeyStateRecord& record,
    std::map<std::string, Secret>* wrap_keys) {
  Secret state_blob;
  if (record.group_wrap_id.empty()) {
    state_blob = abe_->DecryptBytes(access_key_, record.wrapped_state);
  } else {
    // Group-wrapped: CP-ABE protects the group wrap key; the state itself
    // is wrapped symmetrically under it.
    std::map<std::string, Secret> uncached;
    if (!wrap_keys) wrap_keys = &uncached;
    auto it = wrap_keys->find(record.group_wrap_id);
    if (it == wrap_keys->end()) {
      Secret wrap_key = abe_->DecryptBytes(
          access_key_,
          storage_->GetObject(server::StoreId::kKey, record.group_wrap_id));
      it = wrap_keys->emplace(record.group_wrap_id, std::move(wrap_key)).first;
    }
    state_blob = aont::UnwrapKeyBlob(record.wrapped_state, it->second);
  }
  rsa::RsaPublicKey derivation_key =
      rsa::DeserializePublicKey(record.derivation_public_key);
  return rsa::KeyState::Deserialize(state_blob, derivation_key);
}

Bytes ReedClient::Download(const std::string& file_id) {
  const std::string sid = StorageId(file_id);
  // Resolve the stage metrics once — not per fetch batch inside the loop
  // below, where the repeated function-local-static checks were pure
  // overhead on the hot path.
  StageMetrics& m = Metrics();
  // 1. Key state: CP-ABE decrypt, then unwind to the version the stub file
  //    is encrypted under (lazy revocation leaves it at an older version).
  obs::ScopedTimer unwrap_timer(*m.unwrap_us);
  store::KeyStateRecord record = FetchKeyStateRecord(sid);
  rsa::KeyState current = UnwrapKeyState(record);
  rsa::KeyRegressionMember member(
      rsa::DeserializePublicKey(record.derivation_public_key));
  rsa::KeyState stub_state = member.UnwindTo(current, record.stub_key_version);
  Secret file_key = stub_state.DeriveFileKey();
  (void)unwrap_timer.Stop();

  // 2. Recipe and stub file.
  obs::ScopedTimer recipe_timer(*m.recipe_us);
  store::FileRecipe recipe = store::FileRecipe::Deserialize(
      storage_->GetObject(server::StoreId::kData, RecipeName(sid)));
  Secret stub_data = aont::DecryptStubFile(
      storage_->GetObject(server::StoreId::kData, StubName(sid)), file_key);
  if (stub_data.size() != recipe.chunk_count() * recipe.stub_size) {
    throw Error("ReedClient::Download: stub file size mismatch");
  }
  (void)recipe_timer.Stop();

  // 3. Fetch trimmed packages in batches and revert chunks in parallel.
  aont::ReedCipher cipher(static_cast<aont::Scheme>(recipe.scheme),
                          recipe.stub_size);
  const std::size_t total = recipe.chunk_count();
  // Fetches one batch of trimmed packages on a task. fetch_us measures only
  // time spent inside GetChunks, so overlapped wall time is not
  // double-counted against decode_us.
  auto fetch_batch = [&](std::size_t start, std::size_t end) {
    // The same site covers every propagation path.
    REED_FAULT_POINT("client.download.fetch");
    std::vector<chunk::Fingerprint> fps(recipe.fingerprints.begin() + start,
                                        recipe.fingerprints.begin() + end);
    obs::ScopedTimer fetch_timer(*m.fetch_us);
    StorageClient::FetchedChunks packages = storage_->GetChunks(fps);
    (void)fetch_timer.Stop();
    std::uint64_t bytes = 0;
    for (ByteSpan p : packages.chunks) bytes += p.size();
    m.fetch_bytes->Add(bytes);
    return packages;
  };
  constexpr std::size_t kFetchBatch = 512;
  // Every batch is fetched on a task and joined below. Depth 1 dispatches
  // batch k+1 once batch k is decoded, a window of one; deeper pipelines
  // dispatch it before batch k's decode, so the fetch overlaps it.
  const bool fetch_ahead = options_.pipeline.depth >= 2;
  // Joined in its destructor (std::async), so an exception cannot leave a
  // task referencing this frame behind. `next_guard` is declared after
  // `next`, so on unwind the gauge drops before the future joins.
  std::future<StorageClient::FetchedChunks> next;
  std::optional<obs::GaugeGuard> next_guard;
  auto dispatch = [&](std::size_t start) {
    const std::size_t end = std::min(total, start + kFetchBatch);
    next_guard.emplace(*m.pipeline_inflight);
    next = std::async(std::launch::async, [&fetch_batch, start, end] {
      return fetch_batch(start, end);
    });
  };
  // The first fetch goes out before the restore buffer is sized, so the
  // buffer's zero-fill and first-touch page faults overlap the wire.
  if (total > 0) dispatch(0);

  Bytes file;
  std::vector<std::size_t> chunk_offsets(total);
  {
    std::size_t off = 0;
    for (std::size_t i = 0; i < total; ++i) {
      chunk_offsets[i] = off;
      off += recipe.chunk_sizes[i];
    }
    if (off != recipe.file_size) {
      throw Error("ReedClient::Download: recipe size mismatch");
    }
    file.resize(off);
  }

  for (std::size_t start = 0; start < total; start += kFetchBatch) {
    const std::size_t end = std::min(total, start + kFetchBatch);
    schedfuzz::Perturb("client.download.fetch_join");
    // get() rethrows a fetch failure; the guard member then releases on
    // unwind rather than here.
    const StorageClient::FetchedChunks packages = next.get();
    next_guard.reset();
    if (fetch_ahead && end < total) dispatch(end);
    schedfuzz::Perturb("client.download.decode");
    REED_FAULT_POINT("client.download.decode");
    obs::ScopedTimer decode_timer(*m.decode_us);
    pool_.ParallelFor(end - start, [&](std::size_t i) {
      const std::size_t idx = start + i;
      const ByteSpan package = packages.chunks[i];
      if (package.size() + recipe.stub_size !=
          cipher.PackageSize(recipe.chunk_sizes[idx])) {
        throw Error("ReedClient::Download: chunk size mismatch");
      }
      // Each chunk decodes straight into its slice of the file, reading its
      // stub in place in the stub file.
      MutableByteSpan slice = MutableByteSpan(file).subspan(
          chunk_offsets[idx], recipe.chunk_sizes[idx]);
      cipher.DecryptInto(package, stub_data, idx * recipe.stub_size, slice);
    });
    (void)decode_timer.Stop();
    if (!fetch_ahead && end < total) dispatch(end);
  }
  m.download_files->Increment();
  m.download_bytes->Add(file.size());
  return file;
}

RekeyResult ReedClient::Rekey(const std::string& file_id,
                              const std::vector<std::string>& authorized_users,
                              RevocationMode mode) {
  const std::string sid = StorageId(file_id);
  StageMetrics& m = Metrics();
  // 1. Retrieve and unwrap the current key state (requires authorization).
  store::KeyStateRecord record =
      Timed(*m.rekey_fetch_us, [&] { return FetchKeyStateRecord(sid); });
  if (record.owner_id != user_id_) {
    throw Error("ReedClient::Rekey: only the owner may rekey (owner is " +
                record.owner_id + ")");
  }
  rsa::KeyState current =
      Timed(*m.rekey_unwrap_us, [&] { return UnwrapKeyState(record); });

  // 2. Wind the state forward with the private derivation key.
  rsa::KeyState next =
      Timed(*m.rekey_wind_us, [&] { return regression_owner_.Wind(current); });

  // 3. Re-wrap under the new policy.
  std::vector<std::string> users = authorized_users;
  if (std::find(users.begin(), users.end(), user_id_) == users.end()) {
    users.push_back(user_id_);
  }
  abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);
  record.key_version = next.version;
  record.policy.clear();
  policy.SerializeTo(record.policy);
  record.group_wrap_id.clear();  // individual rekey always wraps directly
  record.wrapped_state = Timed(*m.rekey_wrap_us, [&] {
    return PublicKeyStateEnvelope(abe_->EncryptBytes(
        abe_pk_, policy, next.Serialize(regression_owner_.public_key()),
        rng_));
  });

  RekeyResult result;
  result.new_version = next.version;

  // 4. Active revocation: immediately re-encrypt the stub file under the
  //    new file key (the trimmed packages never move — §IV-A).
  if (mode == RevocationMode::kActive) {
    obs::ScopedTimer stub_timer(*m.rekey_stub_us);
    rsa::KeyRegressionMember member(regression_owner_.public_key());
    rsa::KeyState stub_state =
        member.UnwindTo(current, record.stub_key_version);
    Secret stub_data = aont::DecryptStubFile(
        storage_->GetObject(server::StoreId::kData, StubName(sid)),
        stub_state.DeriveFileKey());
    Secret new_blob =
        aont::EncryptStubFile(stub_data, next.DeriveFileKey(), rng_);
    storage_->PutObject(server::StoreId::kData, StubName(sid),
                        PublicStubCiphertext(new_blob));
    record.stub_key_version = next.version;
    result.stub_reencrypted = true;
    result.stub_bytes = new_blob.size();
  }

  Timed(*m.rekey_store_us, [&] {
    storage_->PutObject(server::StoreId::kKey, StateName(sid),
                        record.Serialize());
  });
  return result;
}

std::vector<RekeyResult> ReedClient::RekeyGroup(
    const std::vector<std::string>& file_ids,
    const std::vector<std::string>& authorized_users, RevocationMode mode) {
  if (file_ids.empty()) throw Error("ReedClient::RekeyGroup: empty group");
  StageMetrics& m = Metrics();

  std::vector<std::string> users = authorized_users;
  if (std::find(users.begin(), users.end(), user_id_) == users.end()) {
    users.push_back(user_id_);
  }
  abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);

  // One CP-ABE encryption for the whole group: a fresh wrap key.
  Secret wrap_key = rng_.GenerateSecret(32);
  std::string wrap_id = "groupwrap/" + HexEncode(rng_.Generate(16));
  Bytes wrapped_key = Timed(*m.rekey_wrap_us, [&] {
    return PublicKeyStateEnvelope(
        abe_->EncryptBytes(abe_pk_, policy, wrap_key, rng_));
  });
  Timed(*m.rekey_store_us, [&] {
    storage_->PutObject(server::StoreId::kKey, wrap_id, std::move(wrapped_key));
  });

  rsa::KeyRegressionOwner& owner = regression_owner_;
  std::vector<RekeyResult> results;
  results.reserve(file_ids.size());
  // Files already group-wrapped share their old wrap key: unwrap each wrap
  // id once in this call. Nothing outlives the call, so a later rekey (or a
  // revocation) always decrypts afresh, and the per-file write order below
  // is unchanged.
  std::map<std::string, Secret> old_wrap_keys;
  for (const std::string& file_id : file_ids) {
    const std::string sid = StorageId(file_id);
    store::KeyStateRecord record =
        Timed(*m.rekey_fetch_us, [&] { return FetchKeyStateRecord(sid); });
    if (record.owner_id != user_id_) {
      throw Error("ReedClient::RekeyGroup: only the owner may rekey " + file_id);
    }
    rsa::KeyState current = Timed(*m.rekey_unwrap_us, [&] {
      return UnwrapKeyState(record, &old_wrap_keys);
    });
    rsa::KeyState next =
        Timed(*m.rekey_wind_us, [&] { return owner.Wind(current); });

    record.key_version = next.version;
    record.policy.clear();
    policy.SerializeTo(record.policy);
    record.group_wrap_id = wrap_id;
    record.wrapped_state = Timed(*m.rekey_wrap_us, [&] {
      return PublicKeyStateEnvelope(aont::WrapKeyBlob(
          next.Serialize(owner.public_key()), wrap_key, rng_));
    });

    RekeyResult result;
    result.new_version = next.version;
    if (mode == RevocationMode::kActive) {
      obs::ScopedTimer stub_timer(*m.rekey_stub_us);
      rsa::KeyRegressionMember member(owner.public_key());
      rsa::KeyState stub_state =
          member.UnwindTo(current, record.stub_key_version);
      Secret stub_data = aont::DecryptStubFile(
          storage_->GetObject(server::StoreId::kData, StubName(sid)),
          stub_state.DeriveFileKey());
      Secret new_blob =
          aont::EncryptStubFile(stub_data, next.DeriveFileKey(), rng_);
      storage_->PutObject(server::StoreId::kData, StubName(sid),
                          PublicStubCiphertext(new_blob));
      record.stub_key_version = next.version;
      result.stub_reencrypted = true;
      result.stub_bytes = new_blob.size();
    }
    Timed(*m.rekey_store_us, [&] {
      storage_->PutObject(server::StoreId::kKey, StateName(sid),
                          record.Serialize());
    });
    results.push_back(result);
  }
  return results;
}

}  // namespace reed::client
