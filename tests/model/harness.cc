#include "model/harness.h"

#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "aont/reed_cipher.h"
#include "chunk/fingerprint.h"
#include "core/reed_system.h"
#include "crypto/random.h"
#include "model/reference_model.h"

namespace reed::modelcheck {

namespace {

using client::ReedClient;
using client::RevocationMode;
using model::Outcome;
using model::ReferenceModel;
using modelgen::Op;
using modelgen::OpKind;

// Small chunks keep the per-op crypto cheap; every generated file is a whole
// number of blocks so the model's slice-per-block view matches the client's
// fixed-size chunker exactly.
constexpr std::size_t kChunkSize = 1024;

core::SystemOptions FastSystemOptions(const HarnessOptions& options) {
  core::SystemOptions opts;
  opts.key_manager.rsa_bits = 512;  // test-speed keys, as integration_test
  opts.derivation_key_bits = 512;
  opts.num_data_servers = 4;
  opts.rng_seed = options.seed ^ 0xC0FFEEULL;
  // No data_dir: every server keeps its store in its own scratch directory
  // without fsync. The reopen cycle models a same-machine process restart
  // (the page cache survives), so that is honest here and keeps runs fast.
  return opts;
}

client::ClientOptions ModelClientOptions(std::uint64_t seed,
                                         std::size_t pipeline_depth) {
  client::ClientOptions opts;
  opts.scheme = aont::Scheme::kEnhanced;
  opts.avg_chunk_size = 0;  // fixed-size chunking: model-predictable cuts
  opts.fixed_chunk_size = kChunkSize;
  opts.encryption_threads = 2;
  opts.pipeline.depth = pipeline_depth;
  opts.rng_seed = seed ^ 0xD1CEULL;
  return opts;
}

std::string UserName(std::uint32_t i) { return "u" + std::to_string(i); }

// The harness-side cluster + model bundle one run drives.
struct Cluster {
  std::unique_ptr<core::ReedSystem> system;
  std::vector<std::unique_ptr<ReedClient>> clients;  // one per user
  ReferenceModel model;
  std::uint64_t seed;

  Cluster(const HarnessOptions& options, model::ModelConfig config)
      : system(std::make_unique<core::ReedSystem>(FastSystemOptions(options))),
        model(std::move(config)),
        seed(options.seed) {
    for (std::uint32_t u = 0; u < options.num_users; ++u) {
      system->RegisterUser(UserName(u));
    }
    for (std::uint32_t u = 0; u < options.num_users; ++u) {
      clients.push_back(system->CreateClient(
          UserName(u), ModelClientOptions(options.seed + u,
                                          options.pipeline_depth)));
    }
  }
};

model::ModelConfig MakeModelConfig() {
  model::ModelConfig config;
  config.chunk_size = kChunkSize;
  config.stub_size = aont::kDefaultStubSize;
  // Trimmed-package size straight from the cipher's declared size contract.
  aont::ReedCipher cipher(aont::Scheme::kEnhanced, aont::kDefaultStubSize);
  config.trimmed_package_size = [cipher](std::uint64_t chunk_len) {
    return static_cast<std::uint64_t>(cipher.PackageSize(
               static_cast<std::size_t>(chunk_len))) -
           cipher.stub_size();
  };
  // Stub-blob overhead (IV + MAC) is constant; measure it once against the
  // real implementation instead of hard-coding the framing.
  crypto::DeterministicRng rng(42);
  Secret probe_key = rng.GenerateSecret(32);
  Secret probe_stub = rng.GenerateSecret(aont::kDefaultStubSize);
  const std::uint64_t overhead =
      aont::EncryptStubFile(probe_stub, probe_key, rng).size() -
      aont::kDefaultStubSize;
  config.stub_blob_size = [overhead](std::uint64_t stub_len) {
    return stub_len + overhead;
  };
  return config;
}

Bytes BuildData(std::uint64_t seed, const std::vector<std::uint32_t>& blocks) {
  Bytes data;
  data.reserve(blocks.size() * kChunkSize);
  for (std::uint32_t b : blocks) {
    const std::string block = modelgen::BlockContent(seed, b, kChunkSize);
    data.insert(data.end(), block.begin(), block.end());
  }
  return data;
}

std::vector<model::BlockKey> BlockKeys(std::uint64_t seed,
                                       const std::vector<std::uint32_t>& blocks) {
  std::vector<model::BlockKey> keys;
  keys.reserve(blocks.size());
  for (std::uint32_t b : blocks) {
    keys.push_back(modelgen::BlockContent(seed, b, kChunkSize));
  }
  return keys;
}

std::vector<std::string> UserNames(const std::vector<std::uint32_t>& users) {
  std::vector<std::string> names;
  names.reserve(users.size());
  for (std::uint32_t u : users) names.push_back(UserName(u));
  return names;
}

std::vector<chunk::ChunkRef> FixedRefs(std::size_t n_blocks) {
  std::vector<chunk::ChunkRef> refs(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    refs[i] = {i * kChunkSize, kChunkSize};
  }
  return refs;
}

struct ServerSnapshot {
  std::vector<server::StorageServer::Stats> stats;
};

ServerSnapshot SnapshotServers(core::ReedSystem& system) {
  ServerSnapshot snap;
  for (std::size_t i = 0; i < system.data_server_count(); ++i) {
    snap.stats.push_back(system.data_server(i).stats());
  }
  return snap;
}

std::vector<std::string> SnapshotDigests(core::ReedSystem& system) {
  std::vector<std::string> digests;
  for (std::size_t i = 0; i < system.data_server_count(); ++i) {
    digests.push_back(system.data_server(i).PackageDigest());
  }
  return digests;
}

// Objects are sharded by name hash; scan for the data server holding one.
server::StorageServer* FindObjectServer(core::ReedSystem& system,
                                        const std::string& name) {
  for (std::size_t i = 0; i < system.data_server_count(); ++i) {
    if (system.data_server(i).HasObject(server::StoreId::kData, name)) {
      return &system.data_server(i);
    }
  }
  return nullptr;
}

bool SecretDecryptsStub(const Bytes& stub_blob, const rsa::KeyState& state) {
  try {
    (void)aont::DecryptStubFile(stub_blob, state.DeriveFileKey());
    return true;
  } catch (const Error&) {
    return false;
  }
}

// Everything one sequential run needs, so the per-op checks can be small
// named functions instead of one giant loop body.
class SequentialRun {
 public:
  explicit SequentialRun(const HarnessOptions& options)
      : options_(options),
        cluster_(options, MakeModelConfig()),
        harness_rng_(options.seed ^ 0xFEEDULL) {
    modelgen::GeneratorConfig gen;
    gen.num_users = options.num_users;
    ops_ = modelgen::GenerateOps(options.seed, options.num_ops, gen);
  }

  RunReport Run() {
    RunReport report;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      std::string divergence = Step(ops_[i]);
      if (divergence.empty() && options_.reopen_every > 0 &&
          (i + 1) % options_.reopen_every == 0) {
        // Alternate clean (checkpoint) and crash-style (WAL replay) restarts
        // so both recovery paths run against every oracle.
        const bool checkpoint_first =
            ((i + 1) / options_.reopen_every) % 2 == 1;
        if (std::string d = ReopenCluster(checkpoint_first); !d.empty()) {
          divergence = "reopen after op: " + d;
        }
      }
      report.ops_executed = i + 1;
      if (!divergence.empty()) {
        report.ok = false;
        report.divergence =
            "op " + std::to_string(i) + " (" + modelgen::FormatOp(ops_[i]) +
            "): " + divergence;
        report.repro_path = WriteRepro(i, report.divergence);
        return report;
      }
    }
    std::string final_check = FinalSweep();
    if (!final_check.empty()) {
      report.ok = false;
      report.divergence = "final sweep: " + final_check;
      report.repro_path = WriteRepro(ops_.size(), report.divergence);
    }
    return report;
  }

 private:
  // Runs one op against both sides; returns "" or a divergence description.
  std::string Step(const Op& op) {
    switch (op.kind) {
      case OpKind::kUpload:
      case OpKind::kUploadChunked:
        return StepUpload(op);
      case OpKind::kDownload:
        return StepDownload(op);
      case OpKind::kRekey:
      case OpKind::kRekeyGroup:
        return StepRekey(op);
      case OpKind::kEncryptChunks:
        return StepEncryptChunks(op);
      case OpKind::kChunkData:
        return StepChunkData(op);
    }
    return "unknown op kind";
  }

  std::string StepUpload(const Op& op) {
    ReedClient& client = *cluster_.clients[op.user];
    const Bytes data = BuildData(cluster_.seed, op.blocks);
    const ServerSnapshot before = SnapshotServers(*cluster_.system);

    bool real_ok = true;
    client::UploadResult real{};
    try {
      if (op.kind == OpKind::kUploadChunked) {
        real = client.UploadChunked(op.file_id, data,
                                    FixedRefs(op.blocks.size()),
                                    UserNames(op.auth_users));
      } else {
        real = client.Upload(op.file_id, data, UserNames(op.auth_users));
      }
    } catch (const Error&) {
      real_ok = false;
    }

    model::ModelUploadResult want = cluster_.model.Upload(
        UserName(op.user), op.file_id, BlockKeys(cluster_.seed, op.blocks),
        UserNames(op.auth_users));
    if (std::string d = DiffOutcome(real_ok, want.outcome); !d.empty()) {
      return d;
    }
    if (!real_ok) return "";

    if (real.logical_bytes != want.logical_bytes ||
        real.chunk_count != want.chunk_count ||
        real.duplicate_chunks != want.duplicate_chunks ||
        real.stored_chunks != want.stored_chunks ||
        real.stored_bytes != want.stored_bytes ||
        real.stub_bytes != want.stub_bytes) {
      return "upload counters diverge: real{logical=" +
             std::to_string(real.logical_bytes) +
             " chunks=" + std::to_string(real.chunk_count) +
             " dup=" + std::to_string(real.duplicate_chunks) +
             " stored=" + std::to_string(real.stored_chunks) +
             " stored_bytes=" + std::to_string(real.stored_bytes) +
             " stub_bytes=" + std::to_string(real.stub_bytes) +
             "} model{logical=" + std::to_string(want.logical_bytes) +
             " chunks=" + std::to_string(want.chunk_count) +
             " dup=" + std::to_string(want.duplicate_chunks) +
             " stored=" + std::to_string(want.stored_chunks) +
             " stored_bytes=" + std::to_string(want.stored_bytes) +
             " stub_bytes=" + std::to_string(want.stub_bytes) + "}";
    }
    if (std::string d = DiffServerDeltas(before, want.stored_chunks,
                                         want.stored_bytes,
                                         want.chunk_count);
        !d.empty()) {
      return d;
    }
    return DiffKeyStateRecord(op.file_id);
  }

  std::string StepDownload(const Op& op) {
    ReedClient& client = *cluster_.clients[op.user];
    const ServerSnapshot before = SnapshotServers(*cluster_.system);
    bool real_ok = true;
    Bytes real;
    try {
      real = client.Download(op.file_id);
    } catch (const Error&) {
      real_ok = false;
    }
    model::ModelDownloadResult want =
        cluster_.model.Download(UserName(op.user), op.file_id);
    if (std::string d = DiffOutcome(real_ok, want.outcome); !d.empty()) {
      return d;
    }
    if (real_ok &&
        std::string(real.begin(), real.end()) != want.data) {
      return "download bytes diverge from model (size " +
             std::to_string(real.size()) + " vs " +
             std::to_string(want.data.size()) + ")";
    }
    // Reads must not mutate dedup state.
    return DiffServerDeltas(before, 0, 0, 0);
  }

  std::string StepRekey(const Op& op) {
    ReedClient& client = *cluster_.clients[op.user];
    const std::string user = UserName(op.user);
    const std::vector<std::string> files =
        op.kind == OpKind::kRekey ? std::vector<std::string>{op.file_id}
                                  : op.group_files;

    // Pre-op snapshots for the security oracles and the bug injections,
    // gated on the model's CURRENT state (before the model op applies).
    struct PreState {
      std::string file_id;
      rsa::KeyState old_state;
      Bytes old_stub;
      server::StorageServer* stub_server = nullptr;
      Bytes old_record;  // serialized key-state object
    };
    std::vector<PreState> pre;
    for (const std::string& fid : files) {
      if (!cluster_.model.Exists(fid) || cluster_.model.Owner(fid) != user) {
        break;  // the real loop stops here too; later files stay untouched
      }
      PreState p;
      p.file_id = fid;
      p.old_state = client.InspectKeyState(fid);
      p.stub_server = FindObjectServer(*cluster_.system, "stub/" + fid);
      if (p.stub_server == nullptr) return "stub object missing for " + fid;
      p.old_stub =
          p.stub_server->GetObject(server::StoreId::kData, "stub/" + fid);
      p.old_record = cluster_.system->key_server().GetObject(
          server::StoreId::kKey, "keystate/" + fid);
      pre.push_back(std::move(p));
    }
    const std::vector<std::string> digests_before =
        SnapshotDigests(*cluster_.system);
    const RevocationMode mode =
        op.active ? RevocationMode::kActive : RevocationMode::kLazy;

    bool real_ok = true;
    std::vector<client::RekeyResult> real;
    try {
      if (op.kind == OpKind::kRekey) {
        real.push_back(client.Rekey(op.file_id, UserNames(op.auth_users), mode));
      } else {
        real = client.RekeyGroup(op.group_files, UserNames(op.auth_users), mode);
      }
    } catch (const Error&) {
      real_ok = false;
    }

    InjectBug(pre, op.active);

    // Model side.
    model::ModelGroupRekeyResult want;
    if (op.kind == OpKind::kRekey) {
      model::ModelRekeyResult r = cluster_.model.Rekey(
          user, op.file_id, UserNames(op.auth_users), op.active);
      want.outcome = r.outcome;
      if (r.outcome == Outcome::kOk) want.applied.push_back(r);
    } else {
      want = cluster_.model.RekeyGroup(user, op.group_files,
                                       UserNames(op.auth_users), op.active);
    }
    if (std::string d = DiffOutcome(real_ok, want.outcome); !d.empty()) {
      return d;
    }
    if (real_ok) {
      if (real.size() != want.applied.size()) {
        return "rekey result count " + std::to_string(real.size()) +
               " vs model " + std::to_string(want.applied.size());
      }
      for (std::size_t i = 0; i < real.size(); ++i) {
        if (real[i].new_version != want.applied[i].new_version ||
            real[i].stub_reencrypted != want.applied[i].stub_reencrypted ||
            real[i].stub_bytes != want.applied[i].stub_bytes) {
          return "rekey result diverges for " + files[i] + ": real{v=" +
                 std::to_string(real[i].new_version) + " stub=" +
                 (real[i].stub_reencrypted ? "re" : "keep") + " bytes=" +
                 std::to_string(real[i].stub_bytes) + "} model{v=" +
                 std::to_string(want.applied[i].new_version) + " stub=" +
                 (want.applied[i].stub_reencrypted ? "re" : "keep") +
                 " bytes=" + std::to_string(want.applied[i].stub_bytes) + "}";
        }
      }
    }

    // Invariant (both modes, success or partial failure): rekeying NEVER
    // rewrites trimmed packages on any server (paper §IV-A).
    const std::vector<std::string> digests_after =
        SnapshotDigests(*cluster_.system);
    for (std::size_t i = 0; i < digests_before.size(); ++i) {
      if (digests_before[i] != digests_after[i]) {
        return "security invariant violated: package digest changed on " +
               cluster_.system->data_server(i).name() + " across a rekey";
      }
    }

    // Per-file oracles over the files the model says were rekeyed.
    for (std::size_t i = 0; i < want.applied.size() && i < pre.size(); ++i) {
      const PreState& p = pre[i];
      if (std::string d = DiffKeyStateRecord(p.file_id); !d.empty()) return d;
      Bytes new_stub = p.stub_server->GetObject(server::StoreId::kData,
                                                "stub/" + p.file_id);
      if (op.active) {
        // Security oracle: a key state snapshotted BEFORE the rekey must be
        // useless against the re-encrypted stub...
        if (SecretDecryptsStub(new_stub, p.old_state)) {
          return "security invariant violated: pre-rekey key state still "
                 "decrypts the stub file of " + p.file_id +
                 " after active revocation";
        }
        // ...while the wound state decrypts it (the rekey actually landed).
        rsa::KeyState fresh = client.InspectKeyState(p.file_id);
        if (!SecretDecryptsStub(new_stub, fresh)) {
          return "post-rekey key state fails to decrypt the stub file of " +
                 p.file_id + " (stub re-encryption missing or wrong)";
        }
      } else {
        // Lazy revocation leaves the stub file bytes untouched.
        if (new_stub != p.old_stub) {
          return "lazy rekey rewrote the stub file of " + p.file_id;
        }
      }
    }
    return "";
  }

  std::string StepEncryptChunks(const Op& op) {
    const Bytes data = BuildData(cluster_.seed, op.blocks);
    const ServerSnapshot before = SnapshotServers(*cluster_.system);
    const std::vector<chunk::ChunkRef> refs = FixedRefs(op.blocks.size());
    std::vector<chunk::Fingerprint> fps;
    for (const chunk::ChunkRef& r : refs) {
      fps.push_back(chunk::Fingerprint::Of(
          ByteSpan(data).subspan(r.offset, r.length)));
    }
    ReedClient& a = *cluster_.clients[op.user];
    ReedClient& b = *cluster_.clients[(op.user + 1) % cluster_.clients.size()];
    std::vector<Secret> keys_a = a.key_client().GetKeys(fps, harness_rng_);
    std::vector<Secret> keys_b = b.key_client().GetKeys(fps, harness_rng_);
    std::vector<aont::SealedChunk> sealed_a = a.EncryptChunks(data, refs, keys_a);
    std::vector<aont::SealedChunk> sealed_b = b.EncryptChunks(data, refs, keys_b);
    const auto& cfg = cluster_.model.config();
    for (std::size_t i = 0; i < sealed_a.size(); ++i) {
      // Deterministic encryption is what makes cross-user dedup work: two
      // clients sealing the same plaintext must emit identical packages.
      if (sealed_a[i].trimmed_package != sealed_b[i].trimmed_package) {
        return "deterministic-encryption invariant violated: two clients "
               "produced different trimmed packages for identical plaintext";
      }
      if (sealed_a[i].trimmed_package.size() !=
          cfg.trimmed_package_size(kChunkSize)) {
        return "trimmed package size " +
               std::to_string(sealed_a[i].trimmed_package.size()) +
               " != declared " +
               std::to_string(cfg.trimmed_package_size(kChunkSize));
      }
    }
    // Encryption-only path must not touch any server's dedup state.
    return DiffServerDeltas(before, 0, 0, 0);
  }

  std::string StepChunkData(const Op& op) {
    const Bytes data = BuildData(cluster_.seed, op.blocks);
    const ServerSnapshot before = SnapshotServers(*cluster_.system);
    std::vector<chunk::ChunkRef> refs =
        cluster_.clients[op.user]->ChunkData(data);
    if (refs.size() != op.blocks.size()) {
      return "fixed-size chunker produced " + std::to_string(refs.size()) +
             " chunks for " + std::to_string(op.blocks.size()) + " blocks";
    }
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (refs[i].offset != i * kChunkSize || refs[i].length != kChunkSize) {
        return "fixed-size chunk boundaries diverge at index " +
               std::to_string(i);
      }
    }
    return DiffServerDeltas(before, 0, 0, 0);
  }

  // Durable runs: restart every server from disk mid-sequence, exactly as a
  // process restart would, and check the restart-local oracles. The ops and
  // sweeps that follow then exercise every OTHER oracle (stub decryption,
  // key-state metadata, download bytes) against the recovered state.
  std::string ReopenCluster(bool checkpoint_first) {
    const std::vector<std::string> before = SnapshotDigests(*cluster_.system);
    cluster_.system->ReopenServers(checkpoint_first);
    const std::vector<std::string> after = SnapshotDigests(*cluster_.system);
    for (std::size_t s = 0; s < before.size(); ++s) {
      if (before[s] != after[s]) {
        return "security invariant violated: package digest changed across "
               "a restart on " + cluster_.system->data_server(s).name();
      }
    }
    for (std::size_t s = 0; s < cluster_.system->data_server_count(); ++s) {
      const auto rep = cluster_.system->data_server(s).CheckConsistency();
      if (!rep.ok) {
        return "server " + cluster_.system->data_server(s).name() +
               " failed CheckConsistency after restart: " + rep.detail;
      }
    }
    return "";
  }

  // --- shared diff helpers ---

  std::string DiffOutcome(bool real_ok, Outcome want) {
    const bool want_ok = want == Outcome::kOk;
    if (real_ok == want_ok) return "";
    if (real_ok) {
      return "real stack succeeded but model expects failure (" +
             std::string(model::OutcomeName(want)) + ")";
    }
    return "real stack threw but model expects success";
  }

  // Cluster-wide dedup deltas vs the model's. Content placement (which
  // server a fingerprint shards to) is crypto-dependent, so per-server the
  // check is "no growth anywhere when the model stored nothing"; the totals
  // must match exactly.
  std::string DiffServerDeltas(const ServerSnapshot& before,
                               std::size_t want_stored_chunks,
                               std::uint64_t want_stored_bytes,
                               std::size_t want_logical_chunks) {
    std::uint64_t chunks = 0, bytes = 0, logical = 0;
    for (std::size_t i = 0; i < cluster_.system->data_server_count(); ++i) {
      const auto now = cluster_.system->data_server(i).stats();
      const auto& was = before.stats[i];
      if (want_stored_chunks == 0 && now.unique_chunks != was.unique_chunks) {
        return "server " + cluster_.system->data_server(i).name() +
               " gained chunks on an op the model says stored nothing";
      }
      chunks += now.unique_chunks - was.unique_chunks;
      bytes += now.physical_bytes - was.physical_bytes;
      logical += now.logical_chunks - was.logical_chunks;
    }
    if (chunks != want_stored_chunks || bytes != want_stored_bytes ||
        logical != want_logical_chunks) {
      return "per-server delta mismatch: stored " + std::to_string(chunks) +
             "/" + std::to_string(bytes) + "B logical " +
             std::to_string(logical) + " vs model " +
             std::to_string(want_stored_chunks) + "/" +
             std::to_string(want_stored_bytes) + "B logical " +
             std::to_string(want_logical_chunks);
    }
    return "";
  }

  // The stored key-state record must mirror the model's metadata for the
  // file. Fetch+deserialize needs no authorization, so client 0 serves.
  std::string DiffKeyStateRecord(const std::string& file_id) {
    store::KeyStateRecord record =
        cluster_.clients[0]->InspectKeyStateRecord(file_id);
    if (record.owner_id != cluster_.model.Owner(file_id) ||
        record.key_version != cluster_.model.KeyVersion(file_id) ||
        record.stub_key_version != cluster_.model.StubKeyVersion(file_id)) {
      return "key-state record diverges for " + file_id + ": real{owner=" +
             record.owner_id + " v=" + std::to_string(record.key_version) +
             " stub_v=" + std::to_string(record.stub_key_version) +
             "} model{owner=" + cluster_.model.Owner(file_id) +
             " v=" + std::to_string(cluster_.model.KeyVersion(file_id)) +
             " stub_v=" +
             std::to_string(cluster_.model.StubKeyVersion(file_id)) + "}";
    }
    return "";
  }

  // Deliberate semantic corruption, applied behind the real op's back. See
  // Bug in harness.h; src/ itself stays correct. Templated over StepRekey's
  // local PreState vector.
  template <typename PreStates>
  void InjectBug(const PreStates& pre, bool active) {
    if (options_.bug == Bug::kNone) return;
    for (const auto& p : pre) {
      if (options_.bug == Bug::kSkipStubReencrypt && active) {
        p.stub_server->PutObject(server::StoreId::kData, "stub/" + p.file_id,
                                 p.old_stub);
      } else if (options_.bug == Bug::kStaleKeyState) {
        cluster_.system->key_server().PutObject(
            server::StoreId::kKey, "keystate/" + p.file_id, p.old_record);
      }
    }
  }

  // Every-file, every-user closing audit: metadata, access control, bytes,
  // dedup totals, and server self-consistency.
  std::string FinalSweep() {
    for (const std::string& fid : cluster_.model.FileIds()) {
      if (std::string d = DiffKeyStateRecord(fid); !d.empty()) return d;
      for (std::uint32_t u = 0; u < cluster_.clients.size(); ++u) {
        bool real_ok = true;
        Bytes data;
        try {
          data = cluster_.clients[u]->Download(fid);
        } catch (const Error&) {
          real_ok = false;
        }
        model::ModelDownloadResult want =
            cluster_.model.Download(UserName(u), fid);
        if (real_ok != (want.outcome == Outcome::kOk)) {
          return "final access check diverges for user " + UserName(u) +
                 " on " + fid + ": real " +
                 (real_ok ? "allowed" : "denied") + ", model " +
                 model::OutcomeName(want.outcome);
        }
        if (real_ok && std::string(data.begin(), data.end()) != want.data) {
          return "final download bytes diverge for " + fid;
        }
      }
    }
    std::uint64_t chunks = 0, bytes = 0;
    for (std::size_t i = 0; i < cluster_.system->data_server_count(); ++i) {
      const auto stats = cluster_.system->data_server(i).stats();
      chunks += stats.unique_chunks;
      bytes += stats.physical_bytes;
      const auto report = cluster_.system->data_server(i).CheckConsistency();
      if (!report.ok) {
        return "server " + cluster_.system->data_server(i).name() +
               " failed CheckConsistency: " + report.detail;
      }
    }
    if (chunks != cluster_.model.UniqueChunks() ||
        bytes != cluster_.model.StoredBytes()) {
      return "cluster dedup totals " + std::to_string(chunks) + "/" +
             std::to_string(bytes) + "B vs model " +
             std::to_string(cluster_.model.UniqueChunks()) + "/" +
             std::to_string(cluster_.model.StoredBytes()) + "B";
    }
    return "";
  }

  std::string WriteRepro(std::size_t failing_op, const std::string& why) {
    const std::string path = options_.repro_dir + "/reed_model_repro_seed" +
                             std::to_string(options_.seed) + ".txt";
    std::ofstream out(path);
    if (!out) return "";
    out << "# REED model-checker repro (replayable)\n"
        << "# seed=" << options_.seed << " ops=" << options_.num_ops
        << " users=" << options_.num_users
        << " depth=" << options_.pipeline_depth
        << " bug=" << BugName(options_.bug) << "\n"
        << "# divergence: " << why << "\n"
        << "# replay: reed_model_check --seed=" << options_.seed
        << " --ops=" << options_.num_ops
        << " --users=" << options_.num_users
        << " --depth=" << options_.pipeline_depth;
    if (options_.bug != Bug::kNone) out << " --bug=" << BugName(options_.bug);
    if (options_.reopen_every > 0) {
      out << " --reopen-every=" << options_.reopen_every;
    }
    out << "\n#\n";
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      out << (i == failing_op ? ">" : " ") << " op " << i << ": "
          << modelgen::FormatOp(ops_[i]) << "\n";
    }
    return path;
  }

  HarnessOptions options_;
  Cluster cluster_;
  crypto::DeterministicRng harness_rng_;
  std::vector<Op> ops_;
};

}  // namespace

const char* BugName(Bug b) {
  switch (b) {
    case Bug::kNone: return "none";
    case Bug::kSkipStubReencrypt: return "skip-stub-reencrypt";
    case Bug::kStaleKeyState: return "stale-keystate";
  }
  return "?";
}

RunReport RunSequential(const HarnessOptions& options) {
  SequentialRun run(options);
  return run.Run();
}

RunReport RunConcurrent(const HarnessOptions& options) {
  RunReport report;
  Cluster cluster(options, MakeModelConfig());
  const std::size_t threads = cluster.clients.size();

  // Per-thread op tapes over disjoint file namespaces; the generator's
  // chosen executing user is overridden with the thread's own so ownership
  // stays thread-local while policies (and dedup) still cross threads.
  struct ThreadTape {
    std::vector<Op> ops;
    std::vector<bool> ok;
    std::vector<Bytes> downloads;           // empty for non-downloads
    std::uint64_t stored_chunks_total = 0;  // from real upload results
    std::uint64_t stored_bytes_total = 0;
  };
  std::vector<ThreadTape> tapes(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    modelgen::GeneratorConfig gen;
    gen.num_users = options.num_users;
    gen.file_prefix = "t" + std::to_string(t) + "f";
    tapes[t].ops = modelgen::GenerateOps(options.seed + 7919 * (t + 1),
                                         options.num_ops, gen);
    for (Op& op : tapes[t].ops) {
      op.user = static_cast<std::uint32_t>(t);
      // Group/solo rekeys by this thread's user over its own files keep
      // ownership checks meaningful without cross-thread metadata races.
    }
    tapes[t].ok.assign(tapes[t].ops.size(), true);
    tapes[t].downloads.resize(tapes[t].ops.size());
  }

  auto worker = [&](std::size_t t) {
    ReedClient& client = *cluster.clients[t];
    ThreadTape& tape = tapes[t];
    for (std::size_t i = 0; i < tape.ops.size(); ++i) {
      const Op& op = tape.ops[i];
      try {
        switch (op.kind) {
          case OpKind::kUpload: {
            auto r = client.Upload(op.file_id,
                                   BuildData(cluster.seed, op.blocks),
                                   UserNames(op.auth_users));
            tape.stored_chunks_total += r.stored_chunks;
            tape.stored_bytes_total += r.stored_bytes;
            break;
          }
          case OpKind::kUploadChunked: {
            auto r = client.UploadChunked(
                op.file_id, BuildData(cluster.seed, op.blocks),
                FixedRefs(op.blocks.size()), UserNames(op.auth_users));
            tape.stored_chunks_total += r.stored_chunks;
            tape.stored_bytes_total += r.stored_bytes;
            break;
          }
          case OpKind::kDownload:
            tape.downloads[i] = client.Download(op.file_id);
            break;
          case OpKind::kRekey:
            (void)client.Rekey(op.file_id, UserNames(op.auth_users),
                               op.active ? RevocationMode::kActive
                                         : RevocationMode::kLazy);
            break;
          case OpKind::kRekeyGroup:
            (void)client.RekeyGroup(op.group_files, UserNames(op.auth_users),
                                    op.active ? RevocationMode::kActive
                                              : RevocationMode::kLazy);
            break;
          case OpKind::kChunkData:
            (void)client.ChunkData(BuildData(cluster.seed, op.blocks));
            break;
          case OpKind::kEncryptChunks:
            // Stateless; the sequential mode covers the determinism diff.
            (void)client.ChunkData(BuildData(cluster.seed, op.blocks));
            break;
        }
      } catch (const Error&) {
        tape.ok[i] = false;
      }
    }
  };
  {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& th : pool) th.join();
  }

  // Replay every tape sequentially through ONE model (thread order). File
  // metadata is thread-local so per-op outcomes are order-independent; only
  // dedup attribution is racy, which the totals below check globally.
  std::uint64_t real_stored_chunks = 0, real_stored_bytes = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    ThreadTape& tape = tapes[t];
    real_stored_chunks += tape.stored_chunks_total;
    real_stored_bytes += tape.stored_bytes_total;
    for (std::size_t i = 0; i < tape.ops.size(); ++i) {
      const Op& op = tape.ops[i];
      bool want_ok = true;
      std::string want_data;
      switch (op.kind) {
        case OpKind::kUpload:
        case OpKind::kUploadChunked:
          want_ok = cluster.model
                        .Upload(UserName(op.user), op.file_id,
                                BlockKeys(cluster.seed, op.blocks),
                                UserNames(op.auth_users))
                        .outcome == Outcome::kOk;
          break;
        case OpKind::kDownload: {
          auto r = cluster.model.Download(UserName(op.user), op.file_id);
          want_ok = r.outcome == Outcome::kOk;
          want_data = std::move(r.data);
          break;
        }
        case OpKind::kRekey:
          want_ok = cluster.model
                        .Rekey(UserName(op.user), op.file_id,
                               UserNames(op.auth_users), op.active)
                        .outcome == Outcome::kOk;
          break;
        case OpKind::kRekeyGroup:
          want_ok = cluster.model
                        .RekeyGroup(UserName(op.user), op.group_files,
                                    UserNames(op.auth_users), op.active)
                        .outcome == Outcome::kOk;
          break;
        case OpKind::kChunkData:
        case OpKind::kEncryptChunks:
          break;
      }
      report.ops_executed++;
      if (tape.ok[i] != want_ok) {
        report.ok = false;
        report.divergence = "thread " + std::to_string(t) + " op " +
                            std::to_string(i) + " (" +
                            modelgen::FormatOp(op) + "): real " +
                            (tape.ok[i] ? "succeeded" : "threw") +
                            " but a sequential order predicts the opposite";
        return report;
      }
      if (op.kind == OpKind::kDownload && tape.ok[i] &&
          std::string(tape.downloads[i].begin(), tape.downloads[i].end()) !=
              want_data) {
        report.ok = false;
        report.divergence = "thread " + std::to_string(t) + " op " +
                            std::to_string(i) + ": download bytes diverge";
        return report;
      }
    }
  }

  // Global explainability: the cluster holds exactly the model's unique
  // content set, every content was stored exactly once across all racing
  // uploads, and every server's index/container pair is self-consistent.
  std::uint64_t chunks = 0, bytes = 0;
  for (std::size_t i = 0; i < cluster.system->data_server_count(); ++i) {
    const auto stats = cluster.system->data_server(i).stats();
    chunks += stats.unique_chunks;
    bytes += stats.physical_bytes;
    const auto consistency = cluster.system->data_server(i).CheckConsistency();
    if (!consistency.ok) {
      report.ok = false;
      report.divergence = "server " + cluster.system->data_server(i).name() +
                          " failed CheckConsistency: " + consistency.detail;
      return report;
    }
  }
  if (chunks != cluster.model.UniqueChunks() ||
      bytes != cluster.model.StoredBytes() ||
      real_stored_chunks != cluster.model.UniqueChunks() ||
      real_stored_bytes != cluster.model.StoredBytes()) {
    report.ok = false;
    report.divergence =
        "concurrent dedup totals diverge: servers " + std::to_string(chunks) +
        "/" + std::to_string(bytes) + "B, per-op sums " +
        std::to_string(real_stored_chunks) + "/" +
        std::to_string(real_stored_bytes) + "B, model " +
        std::to_string(cluster.model.UniqueChunks()) + "/" +
        std::to_string(cluster.model.StoredBytes()) + "B";
    return report;
  }

  // Final per-file audit mirrors the sequential sweep: bytes + access.
  for (const std::string& fid : cluster.model.FileIds()) {
    for (std::uint32_t u = 0; u < cluster.clients.size(); ++u) {
      bool real_ok = true;
      Bytes data;
      try {
        data = cluster.clients[u]->Download(fid);
      } catch (const Error&) {
        real_ok = false;
      }
      auto want = cluster.model.Download(UserName(u), fid);
      if (real_ok != (want.outcome == Outcome::kOk) ||
          (real_ok &&
           std::string(data.begin(), data.end()) != want.data)) {
        report.ok = false;
        report.divergence = "concurrent final audit diverges for user " +
                            UserName(u) + " on " + fid;
        return report;
      }
    }
  }
  return report;
}

}  // namespace reed::modelcheck
