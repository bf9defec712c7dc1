// The two workloads. Each run sets the deployment up several times (the
// last set-up is the one driven), then runs a fixed number of cycles; every
// cycle runs each of the five op kinds, interleaved, so every kind samples
// the same host phases. Inputs (data, churn, policies, targets) come from
// RNGs seeded by --seed only.
#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>

#include "aont/reed_cipher.h"
#include "bench.h"
#include "rsa/key_regression.h"
#include "store/recipe.h"

namespace reedbench {

using namespace reed;

namespace {

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * kKiB;
constexpr std::size_t kPoolUsers = 24;    // users a policy is drawn from
constexpr std::size_t kPolicyUsers = 16;  // users a file is shared with
constexpr std::size_t kRevokedUsers = 3;  // revoked per rekey (~20%)
constexpr std::size_t kSmallFile = 256 * kKiB;
constexpr std::size_t kGroupFiles = 4;    // 256 KiB files of the group set
constexpr std::size_t kSetups = 3;        // set-ups per run (median)
constexpr std::size_t kChecks = 3;        // checked cycles per run

struct Shape {
  const char* name;
  bool first_backup;           // fresh files; else churned snapshots
  std::size_t upload_bytes;    // bytes per timed upload
  // Seconds one cycle takes on the reference host (4-vCPU KVM guest,
  // Xeon, ext4): --seconds / cycle_s fixes the cycle count.
  double cycle_s;
};

constexpr Shape kShapes[] = {
    {"first-backup", true, 8 * kMiB, 3.1},
    {"incremental-backup", false, 16 * kMiB, 1.85},
};

const Shape* FindShape(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::string UserName(std::size_t i) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "u%02zu", i);
  return buf;
}

// A seeded k-of-n sample, in pool order.
std::vector<std::string> Sample(const std::vector<std::string>& from,
                                std::size_t k, crypto::Rng& rng) {
  std::vector<std::string> pool = from;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + rng.Uniform(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  std::sort(pool.begin(), pool.end());
  return pool;
}

std::vector<std::string> Minus(const std::vector<std::string>& a,
                               const std::vector<std::string>& b) {
  std::vector<std::string> out;
  for (const auto& x : a) {
    if (std::find(b.begin(), b.end(), x) == b.end()) out.push_back(x);
  }
  return out;
}

// ~2% churn: scattered 8 KiB overwrites plus small inserts and equal-sized
// deletes, so Rabin boundaries shift while the size stays the same.
Bytes Churn(const Bytes& prev, crypto::Rng& rng) {
  Bytes next = prev;
  const std::size_t overwrites = next.size() / 50 / (8 * kKiB);
  for (std::size_t i = 0; i < overwrites; ++i) {
    std::size_t at = rng.Uniform(next.size() - 8 * kKiB);
    Bytes fresh = rng.Generate(8 * kKiB);
    std::copy(fresh.begin(), fresh.end(), next.begin() + static_cast<long>(at));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    std::size_t len = 64 + rng.Uniform(448);
    std::size_t at = rng.Uniform(next.size() - len);
    Bytes ins = rng.Generate(len);
    next.insert(next.begin() + static_cast<long>(at), ins.begin(), ins.end());
    std::size_t del = rng.Uniform(next.size() - len);
    next.erase(next.begin() + static_cast<long>(del),
               next.begin() + static_cast<long>(del + len));
  }
  return next;
}

// Fixed kernel owned by the benchmark, timed once per cycle: one
// read-modify-write pass over every 8th word of a 32 MiB buffer. On the
// reference host its time tracks the host's fast and slow phases as the
// pairing and big-integer work does (a cache-resident SHA-256 kernel moved
// about a third as much). It explains spread; it never rescales a metric.
double HostProbeMs(std::vector<std::uint64_t>& buf) {
  auto t0 = Clock::now();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < buf.size(); i += 8) {
    buf[i] += i;
    acc += buf[i];
  }
  auto t1 = Clock::now();
  buf[0] = acc;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Registry values as doubles: counters by value, histograms by sum.
std::map<std::string, double> RegistryValues() {
  std::map<std::string, double> out;
  obs::Snapshot snap = obs::Registry::Global().TakeSnapshot();
  for (const auto& c : snap.counters) {
    out[c.name] = static_cast<double>(c.value);
  }
  for (const auto& h : snap.histograms) {
    out[h.name] = static_cast<double>(h.sum);
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

// Registry counters that must repeat exactly for one seed.
constexpr const char* kGuardCounters[] = {
    "client.upload.chunks",         "client.upload.duplicate_chunks",
    "client.upload.logical_bytes",  "client.download.bytes",
    "oprf.client.cache_hits",       "oprf.client.cache_misses",
    "oprf.server.signatures",       "server.dedup.logical_chunks",
    "server.dedup.duplicate_chunks", "store.container.appends",
    "store.container.bytes",        "store.index.lookups",
    "store.wal.appends",            "store.wal.append_bytes",
};

struct FileInfo {
  Bytes data;
  std::vector<std::string> policy;  // the users it was uploaded shared with
};

class WorkloadRun {
 public:
  WorkloadRun(const WorkloadArgs& args, const Shape& shape)
      : args_(args), shape_(shape), tracer_(args.trace) {
    for (std::size_t i = 0; i < kPoolUsers; ++i) pool_.push_back(UserName(i));
    probe_buf_.assign(32 * kMiB / sizeof(std::uint64_t), 1);
  }

  RunResult Run();

 private:
  void SetUp();
  void Preload();
  void Cycle(std::size_t c, bool check);
  void TimedOp(OpKind kind, std::uint64_t logical_bytes,
               const std::function<void()>& op,
               const std::function<void(OpSample&)>& replay = nullptr);
  void Upload(const std::string& id, Bytes data,
              std::vector<std::string> policy);
  void Restore(const std::string& id);
  void Rekey(OpKind kind, const std::vector<std::string>& ids,
             const std::vector<std::string>& policy, bool check);
  void Fail(const std::string& what);
  std::map<std::string, std::string> Digests();
  std::uint64_t StorageTx();
  std::array<std::uint64_t, 3> NetTotals();

  const WorkloadArgs& args_;
  const Shape& shape_;
  Tracer tracer_;
  RunResult out_;
  std::vector<std::string> pool_;
  std::vector<std::uint64_t> probe_buf_;
  std::unique_ptr<Cluster> cluster_;
  std::shared_ptr<client::StorageClient> audit_;
  std::optional<crypto::DeterministicRng> data_rng_;
  std::optional<crypto::DeterministicRng> policy_rng_;
  std::optional<crypto::DeterministicRng> replay_rng_;
  std::map<std::string, FileInfo> files_;
  std::vector<std::string> group_ids_;
  Bytes snapshot_;
  std::vector<std::string> snapshot_policy_;
};

void WorkloadRun::Fail(const std::string& what) {
  out_.correct = false;
  out_.check_failures.push_back(what);
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::uint64_t WorkloadRun::StorageTx() {
  std::uint64_t tx = 0;
  for (std::size_t e = 0; e <= kKeyStore; ++e) {
    tx += cluster_->counters(e).tx_bytes.load();
  }
  return tx;
}

std::array<std::uint64_t, 3> WorkloadRun::NetTotals() {
  std::array<std::uint64_t, 3> t{};  // tx bytes, rx bytes, calls
  for (std::size_t e = 0; e < kNumEndpoints; ++e) {
    t[0] += cluster_->counters(e).tx_bytes.load();
    t[1] += cluster_->counters(e).rx_bytes.load();
    t[2] += cluster_->counters(e).calls.load();
  }
  return t;
}

std::map<std::string, std::string> WorkloadRun::Digests() {
  std::map<std::string, std::string> out;
  for (auto* s : cluster_->storage_servers()) out[s->name()] = s->PackageDigest();
  return out;
}

void WorkloadRun::SetUp() {
  namespace fs = std::filesystem;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const std::string dir = args_.work_dir + "/setup-" + std::to_string(k);
    audit_.reset();
    cluster_.reset();
    fs::remove_all(dir);
    fs::create_directories(dir);
    files_.clear();
    group_ids_.clear();
    out_.logical_bytes_stored = 0;
    data_rng_.emplace(DeriveSeed(args_.seed, 20));
    policy_rng_.emplace(DeriveSeed(args_.seed, 30));
    auto t0 = Clock::now();
    // Each set-up draws its own keys, so the median also evens out how long
    // the RSA prime searches of one seed happen to take.
    cluster_ = std::make_unique<Cluster>(DeriveSeed(args_.seed, 10 + k), dir,
                                         tracer_);
    Preload();
    auto t1 = Clock::now();
    out_.setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    if (k + 1 < kSetups) {
      cluster_.reset();
      fs::remove_all(dir);
    }
  }
  audit_ = cluster_->AuditStorage();
  replay_rng_.emplace(DeriveSeed(args_.seed, 40));
}

void WorkloadRun::Preload() {
  client::ReedClient& owner = cluster_->owner();
  for (std::size_t i = 0; i < kGroupFiles; ++i) {
    std::string id = "small-" + std::to_string(i);
    FileInfo info{data_rng_->Generate(kSmallFile),
                  Sample(pool_, kPolicyUsers, *policy_rng_)};
    (void)owner.Upload(id, info.data, info.policy);
    out_.logical_bytes_stored += info.data.size();
    files_[id] = std::move(info);
    group_ids_.push_back(id);
  }
  if (!shape_.first_backup) {
    snapshot_ = data_rng_->Generate(shape_.upload_bytes);
    snapshot_policy_ = Sample(pool_, kPolicyUsers, *policy_rng_);
    (void)owner.Upload("snap-0", snapshot_, snapshot_policy_);
    out_.logical_bytes_stored += snapshot_.size();
  }
}

void WorkloadRun::TimedOp(OpKind kind, std::uint64_t logical_bytes,
                     const std::function<void()>& op,
                     const std::function<void(OpSample&)>& replay) {
  OpSample s;
  s.kind = kind;
  s.logical_bytes = logical_bytes;
  s.span_id = tracer_.NewId();
  std::map<std::string, double> reg0;
  std::array<std::uint64_t, 3> net0{};
  if (tracer_.enabled()) {
    reg0 = RegistryValues();
    net0 = NetTotals();
  }
  const std::uint64_t tx0 = StorageTx();
  ++out_.attempted;
  tracer_.set_current_op(s.span_id);
  const std::int64_t start = NowNs();
  try {
    op();
  } catch (const std::exception& e) {
    ++out_.failed;
    std::fprintf(stderr, "%s failed: %s\n", OpKindName(kind), e.what());
  }
  const std::int64_t end = NowNs();
  tracer_.set_current_op(0);
  s.wall_ms = static_cast<double>(end - start) / 1e6;
  s.storage_tx_bytes = StorageTx() - tx0;
  if (tracer_.enabled()) {
    Span span;
    span.id = s.span_id;
    span.op = s.span_id;
    span.kind = SpanKind::kOp;
    span.op_kind = kind;
    span.start_ns = start;
    span.end_ns = end;
    tracer_.Record(span);
    std::map<std::string, double> reg1 = RegistryValues();
    for (const auto& [name, value] : reg1) {
      double d = Delta(reg0, reg1, name);
      if (d != 0) s.layer["reg." + name] = d;
    }
    const std::array<std::uint64_t, 3> net1 = NetTotals();
    s.layer["net.tx_bytes"] = static_cast<double>(net1[0] - net0[0]);
    s.layer["net.rx_bytes"] = static_cast<double>(net1[1] - net0[1]);
    s.layer["net.rpc_calls"] = static_cast<double>(net1[2] - net0[2]);
    if (replay) replay(s);
  }
  out_.ops.push_back(std::move(s));
}

void WorkloadRun::Upload(const std::string& id, Bytes data,
                    std::vector<std::string> policy) {
  const std::uint64_t n = data.size();
  TimedOp(OpKind::kUpload, n, [&] {
    (void)cluster_->owner().Upload(id, data, policy);
  });
  out_.logical_bytes_stored += n;
  files_[id] = FileInfo{std::move(data), std::move(policy)};
}

void WorkloadRun::Restore(const std::string& id) {
  const FileInfo& info = files_.at(id);
  Bytes got;
  TimedOp(OpKind::kRestore, info.data.size(),
          [&] { got = cluster_->owner().Download(id); });
  if (got != info.data) Fail("restore of " + id + " differs from its upload");
}

// Replays the rekey's layer calls on the same inputs, outside the timed op,
// so the traced run can split the op's client time into CP-ABE, key
// regression and symmetric stub work (the program records none of these).
struct RekeyReplay {
  std::vector<store::KeyStateRecord> records;
  std::vector<Bytes> group_wraps;  // per record; empty if wrapped directly
  std::vector<Bytes> stubs;        // per record; active rekeys only
};

void WorkloadRun::Rekey(OpKind kind, const std::vector<std::string>& ids,
                   const std::vector<std::string>& policy, bool check) {
  // `check`: verify revocation after this (single-file, active) rekey.
  client::ReedClient& owner = cluster_->owner();
  const bool active = kind != OpKind::kRekeyLazy;
  const std::string& target = ids.front();

  std::optional<rsa::KeyState> before;
  if (check) {
    before = owner.InspectKeyState(target);
  }
  RekeyReplay inputs;
  if (tracer_.enabled()) {
    for (const auto& id : ids) {
      // Read through the uncounted audit client, so the owner's traffic
      // counters match an untraced run's.
      inputs.records.push_back(store::KeyStateRecord::Deserialize(
          audit_->GetObject(server::StoreId::kKey, "keystate/" + id)));
      const auto& rec = inputs.records.back();
      inputs.group_wraps.push_back(
          rec.group_wrap_id.empty()
              ? Bytes{}
              : audit_->GetObject(server::StoreId::kKey, rec.group_wrap_id));
      inputs.stubs.push_back(
          active ? audit_->GetObject(server::StoreId::kData, "stub/" + id)
                 : Bytes{});
    }
  }

  auto replay = [&](OpSample& s) {
    const abe::CpAbe& abe = cluster_->abe();
    rsa::KeyRegressionOwner regression(cluster_->owner_derivation());
    rsa::KeyRegressionMember member(cluster_->owner_derivation().pub);
    std::vector<std::string> users = policy;
    users.push_back(cluster_->owner_id());
    abe::PolicyNode node = abe::PolicyNode::OrOfUsers(users);
    double decrypt = 0, encrypt = 0, wind = 0, stub = 0;
    auto time = [](double& acc, auto&& fn) {
      auto t0 = Clock::now();
      fn();
      acc += std::chrono::duration<double, std::milli>(Clock::now() - t0)
                 .count();
    };
    Secret group_key;
    if (kind == OpKind::kRekeyGroup) {
      group_key = replay_rng_->GenerateSecret(32);
      time(encrypt, [&] {
        (void)abe.EncryptBytes(cluster_->abe_pk(), node, group_key,
                               *replay_rng_);
      });
    }
    for (std::size_t i = 0; i < inputs.records.size(); ++i) {
      const auto& rec = inputs.records[i];
      Secret blob;
      time(decrypt, [&] {
        if (rec.group_wrap_id.empty()) {
          blob = abe.DecryptBytes(cluster_->owner_access_key(),
                                  rec.wrapped_state);
        } else {
          blob = aont::UnwrapKeyBlob(
              rec.wrapped_state,
              abe.DecryptBytes(cluster_->owner_access_key(),
                               inputs.group_wraps[i]));
        }
      });
      const auto& pub = cluster_->owner_derivation().pub;
      rsa::KeyState state = rsa::KeyState::Deserialize(blob, pub);
      rsa::KeyState next;
      time(wind, [&] { next = regression.Wind(state); });
      if (kind == OpKind::kRekeyGroup) {
        time(stub, [&] {
          (void)aont::WrapKeyBlob(next.Serialize(pub), group_key,
                                  *replay_rng_);
        });
      } else {
        time(encrypt, [&] {
          (void)abe.EncryptBytes(cluster_->abe_pk(), node,
                                 next.Serialize(pub), *replay_rng_);
        });
      }
      if (active) {
        rsa::KeyState old_state;
        time(wind, [&] {
          old_state = member.UnwindTo(state, rec.stub_key_version);
        });
        time(stub, [&] {
          Secret data =
              aont::DecryptStubFile(inputs.stubs[i], old_state.DeriveFileKey());
          (void)aont::EncryptStubFile(data, next.DeriveFileKey(),
                                      *replay_rng_);
        });
      }
    }
    s.layer["abe.decrypt_ms"] = decrypt;
    s.layer["abe.encrypt_ms"] = encrypt;
    s.layer["rsa.wind_ms"] = wind;
    s.layer["aont.stub_ms"] = stub;
  };

  TimedOp(
      kind, 0,
      [&] {
        const auto mode = active ? client::RevocationMode::kActive
                                 : client::RevocationMode::kLazy;
        if (kind == OpKind::kRekeyGroup) {
          (void)owner.RekeyGroup(ids, policy, mode);
        } else {
          (void)owner.Rekey(target, policy, mode);
        }
      },
      replay);

  if (!check) return;
  // A key state captured before an active rekey must not open the new stub.
  Bytes stub = audit_->GetObject(server::StoreId::kData, "stub/" + target);
  bool opened = true;
  try {
    (void)aont::DecryptStubFile(stub, before->DeriveFileKey());
  } catch (const Error&) {
    opened = false;
  }
  if (opened) Fail("pre-rekey key state decrypts the new stub of " + target);
  // A revoked user can no longer download; a kept user still can.
  const FileInfo& info = files_.at(target);
  std::vector<std::string> revoked = Minus(info.policy, policy);
  auto revoked_client = cluster_->ClientFor(revoked.front());
  bool downloaded = true;
  try {
    (void)revoked_client->Download(target);
  } catch (const Error&) {
    downloaded = false;
  }
  if (downloaded) Fail("revoked user " + revoked.front() + " downloaded " + target);
  auto kept_client = cluster_->ClientFor(policy.front());
  try {
    if (kept_client->Download(target) != info.data) {
      Fail("kept user " + policy.front() + " got wrong bytes for " + target);
    }
  } catch (const Error& e) {
    Fail("kept user " + policy.front() + " cannot download " + target + ": " +
         e.what());
  }
}

void WorkloadRun::Cycle(std::size_t c, bool check) {
  // Every rekey revokes a seeded ~20% of the policy the file was uploaded
  // with, so every op's policy has the same size and costs the same.
  auto revoke = [&](const std::string& id) {
    const std::vector<std::string>& base = files_.at(id).policy;
    return Minus(base, Sample(base, kRevokedUsers, *policy_rng_));
  };
  // Upload a fresh file or the next churned snapshot, restore it, rekey it
  // four times (lazy, active, lazy, active), then group-rekey the group set.
  const std::string fresh =
      (shape_.first_backup ? "fb-" : "snap-") + std::to_string(c + 1);
  if (shape_.first_backup) {
    Upload(fresh, data_rng_->Generate(shape_.upload_bytes),
           Sample(pool_, kPolicyUsers, *policy_rng_));
  } else {
    snapshot_ = Churn(snapshot_, *data_rng_);
    Upload(fresh, snapshot_, snapshot_policy_);
  }
  Restore(fresh);

  std::optional<std::map<std::string, std::string>> digests;
  if (check) digests = Digests();
  for (std::size_t i = 0; i < 4; ++i) {
    const OpKind kind = i % 2 ? OpKind::kRekeyActive : OpKind::kRekeyLazy;
    Rekey(kind, {fresh}, revoke(fresh), check && i == 1);
  }
  Rekey(OpKind::kRekeyGroup, group_ids_, revoke(group_ids_.front()), false);
  if (digests && *digests != Digests()) {
    Fail("package digest changed across the rekeys of cycle " +
         std::to_string(c));
  }
  // Nothing reads this file's bytes again.
  files_.at(fresh).data = Bytes{};
}

RunResult WorkloadRun::Run() {
  SetUp();
  const std::size_t cycles = std::max<std::size_t>(
      1,
      static_cast<std::size_t>(std::lround(args_.seconds / shape_.cycle_s)));
  const std::size_t check_every = std::max<std::size_t>(1, cycles / kChecks);

  std::map<std::string, double> reg0 = RegistryValues();
  for (std::size_t c = 0; c < cycles; ++c) {
    bool check = (c + 1) % check_every == 0 || c + 1 == cycles;
    Cycle(c, check);
    out_.probe_ms.push_back(HostProbeMs(probe_buf_));
  }
  std::map<std::string, double> reg1 = RegistryValues();
  for (const char* name : kGuardCounters) {
    out_.counts[name] = static_cast<std::uint64_t>(Delta(reg0, reg1, name));
  }
  for (std::size_t e = 0; e < kNumEndpoints; ++e) {
    out_.counts["net.endpoint" + std::to_string(e) + ".tx_bytes"] =
        cluster_->counters(e).tx_bytes.load();
  }

  for (auto* s : cluster_->storage_servers()) {
    auto report = s->CheckConsistency();
    if (!report.ok) Fail(s->name() + " inconsistent: " + report.detail);
  }
  cluster_->CloseStores();
  namespace fs = std::filesystem;
  for (const auto& entry :
       fs::recursive_directory_iterator(cluster_->data_dir())) {
    if (!entry.is_regular_file()) continue;
    const std::string file = entry.path().filename().string();
    const char* kind = file == "wal.log"        ? "wal"
                       : file == "index.ckpt"   ? "checkpoint"
                       : file.starts_with("seg-") ? "segments"
                                                  : "other";
    out_.disk_bytes[kind] += entry.file_size();
  }
  out_.spans = tracer_.Take();
  audit_.reset();
  cluster_.reset();
  fs::remove_all(args_.work_dir);
  return std::move(out_);
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindShape(name) != nullptr; }

RunResult RunWorkload(const WorkloadArgs& args) {
  WorkloadRun run(args, *FindShape(args.name));
  return run.Run();
}

}  // namespace reedbench
