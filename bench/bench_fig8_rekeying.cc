// Figure 8 — Experiment A.4: rekeying performance (lazy vs active).
//
// Rekeying = CP-ABE decrypt of the key state (constant cost for OR
// policies) + key-regression wind + CP-ABE encrypt under the new policy
// (cost linear in the number of authorized users) + — for active
// revocation only — downloading, re-encrypting, and re-uploading the stub
// file over the 1 Gb/s link.
//
// (a) delay vs total number of users   (2 GB file, 20% revoked)
// (b) delay vs revocation ratio        (2 GB file, 500 users)
// (c) delay vs file size               (500 users, 20% revoked)
//
// Paper shapes: grows with user count (CP-ABE encrypt dominates); shrinks
// with revocation ratio (fewer leaves in the new policy); lazy flat in
// file size while active grows with the stub-file transfer; everything
// stays within seconds.
//
// The file itself is never uploaded here: rekeying touches only the key
// state and the stub file, so the bench materializes a stub file of the
// exact size an N-GB file would have (N / 8 KB chunks x 64 B) — the same
// objects ReedClient::Rekey reads and writes.
//
//   ./bench_fig8_rekeying [--full|--smoke] [--json out.json]
#include "abe/cpabe.h"
#include "aont/reed_cipher.h"
#include "bench/bench_util.h"
#include "client/storage_client.h"
#include "rsa/key_regression.h"
#include "store/recipe.h"

using namespace reed;
using namespace reed::bench;

namespace {

struct RekeyBench {
  std::shared_ptr<const pairing::TypeAPairing> pairing;
  std::unique_ptr<abe::CpAbe> cpabe;
  abe::CpAbe::SetupResult setup;
  abe::PrivateKey owner_key;
  rsa::RsaKeyPair derivation;
  std::unique_ptr<server::StorageServer> server;
  std::unique_ptr<client::StorageClient> storage;
  std::shared_ptr<net::SimulatedLink> link;
  crypto::DeterministicRng rng{2016};

  RekeyBench() {
    pairing = std::make_shared<const pairing::TypeAPairing>(
        pairing::TypeAParams::Default());
    cpabe = std::make_unique<abe::CpAbe>(pairing);
    setup = cpabe->Setup(rng);
    owner_key = cpabe->KeyGen(setup.pk, setup.mk, {"user:owner"}, rng);
    derivation = rsa::GenerateKeyPair(1024, rng);
    server = std::make_unique<server::StorageServer>("s");
    link = std::make_shared<net::SimulatedLink>(1e9, 1e-3);
    server::StorageServer* raw = server.get();
    auto channel = std::make_shared<net::LocalChannel>(
        [raw](ByteSpan req) { return raw->HandleRequest(req); }, link);
    storage = std::make_unique<client::StorageClient>(
        std::vector<std::shared_ptr<net::RpcChannel>>{channel}, channel);
  }

  std::vector<std::string> Users(std::size_t n) {
    std::vector<std::string> users = {"owner"};
    for (std::size_t i = 1; i < n; ++i) {
      users.push_back("user-" + std::to_string(i));
    }
    return users;
  }

  // Stores the key state + stub file for a hypothetical file of
  // `file_bytes` (8 KB average chunks, 64 B stubs) shared with `users`.
  rsa::KeyState PrepareFile(const std::string& id, std::uint64_t file_bytes,
                            const std::vector<std::string>& users) {
    rsa::KeyRegressionOwner owner(derivation);
    rsa::KeyState state = owner.GenesisState(rng);

    std::size_t num_chunks = file_bytes / 8192;
    crypto::DeterministicRng stub_rng(7);
    Secret stub_data = stub_rng.GenerateSecret(num_chunks * 64);
    Bytes stub_blob =
        Declassify(aont::EncryptStubFile(stub_data, state.DeriveFileKey(), rng),
                   "bench: stub-file ciphertext upload");
    storage->PutObject(server::StoreId::kData, "stub/" + id, stub_blob);

    store::KeyStateRecord record;
    record.owner_id = "owner";
    record.key_version = state.version;
    record.stub_key_version = state.version;
    abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);
    policy.SerializeTo(record.policy);
    record.wrapped_state = Declassify(
        cpabe->EncryptBytes(setup.pk, policy, state.Serialize(derivation.pub),
                            rng),
        "bench: ABE-wrapped key-state upload");
    record.derivation_public_key = rsa::SerializePublicKey(derivation.pub);
    storage->PutObject(server::StoreId::kKey, "keystate/" + id,
                       record.Serialize());
    return state;
  }

  // Executes exactly the steps of ReedClient::Rekey and returns the delay.
  double Rekey(const std::string& id,
               const std::vector<std::string>& new_users, bool active) {
    Stopwatch sw;
    // Download + unwrap the key state.
    store::KeyStateRecord record = store::KeyStateRecord::Deserialize(
        storage->GetObject(server::StoreId::kKey, "keystate/" + id));
    Secret state_blob = cpabe->DecryptBytes(owner_key, record.wrapped_state);
    rsa::KeyState current =
        rsa::KeyState::Deserialize(state_blob, derivation.pub);

    // Wind forward; re-wrap under the new policy.
    rsa::KeyRegressionOwner owner(derivation);
    rsa::KeyState next = owner.Wind(current);
    abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(new_users);
    record.key_version = next.version;
    record.policy.clear();
    policy.SerializeTo(record.policy);
    record.wrapped_state = Declassify(
        cpabe->EncryptBytes(setup.pk, policy, next.Serialize(derivation.pub),
                            rng),
        "bench: rewrapped key-state upload");

    if (active) {
      rsa::KeyRegressionMember member(derivation.pub);
      rsa::KeyState stub_state =
          member.UnwindTo(current, record.stub_key_version);
      Secret stub_data = aont::DecryptStubFile(
          storage->GetObject(server::StoreId::kData, "stub/" + id),
          stub_state.DeriveFileKey());
      storage->PutObject(
          server::StoreId::kData, "stub/" + id,
          Declassify(
              aont::EncryptStubFile(stub_data, next.DeriveFileKey(), rng),
              "bench: re-encrypted stub-file upload"));
      record.stub_key_version = next.version;
    }
    storage->PutObject(server::StoreId::kKey, "keystate/" + id,
                       record.Serialize());
    return sw.ElapsedSeconds();
  }

  // Lazy group rekey of files gg-0 .. gg-(k−1): one wrap-key encryption
  // under `policy` + per-file symmetric wraps. Returns the delay.
  double GroupRekey(std::size_t k, const abe::PolicyNode& policy) {
    Stopwatch sw;
    Secret wrap_key = rng.GenerateSecret(32);
    Bytes wrapped_group = Declassify(
        cpabe->EncryptBytes(setup.pk, policy, wrap_key, rng),
        "bench: ABE-wrapped group wrap-key upload");
    storage->PutObject(server::StoreId::kKey, "groupwrap/bench",
                       wrapped_group);
    rsa::KeyRegressionOwner owner(derivation);
    for (std::size_t i = 0; i < k; ++i) {
      store::KeyStateRecord record = store::KeyStateRecord::Deserialize(
          storage->GetObject(server::StoreId::kKey,
                             "keystate/gg-" + std::to_string(i)));
      Secret state_blob = cpabe->DecryptBytes(owner_key, record.wrapped_state);
      rsa::KeyState next =
          owner.Wind(rsa::KeyState::Deserialize(state_blob, derivation.pub));
      record.key_version = next.version;
      record.group_wrap_id = "groupwrap/bench";
      record.wrapped_state = Declassify(
          aont::WrapKeyBlob(next.Serialize(derivation.pub), wrap_key, rng),
          "bench: group-wrapped key-state upload");
      storage->PutObject(server::StoreId::kKey,
                         "keystate/gg-" + std::to_string(i),
                         record.Serialize());
    }
    return sw.ElapsedSeconds();
  }

  // Mean delay of `reps` successive rekeys of one file to `new_users`.
  double MeanRekey(const std::string& id,
                   const std::vector<std::string>& new_users, bool active,
                   int reps) {
    double total = 0;
    for (int i = 0; i < reps; ++i) total += Rekey(id, new_users, active);
    return total / reps;
  }
};

std::vector<std::string> Keep(const std::vector<std::string>& users,
                              double revoke_ratio) {
  std::size_t keep =
      users.size() -
      static_cast<std::size_t>(static_cast<double>(users.size()) * revoke_ratio);
  if (keep == 0) keep = 1;
  return std::vector<std::string>(users.begin(), users.begin() + keep);
}

}  // namespace

int main(int argc, char** argv) {
  bool full = HasFlag(argc, argv, "--full");
  bool smoke = HasFlag(argc, argv, "--smoke");
  JsonReporter json("fig8_rekeying", argc, argv);
  std::printf("=== Figure 8 / Experiment A.4: rekeying delay ===\n");
  std::printf("CP-ABE over a 160/512-bit Type-A pairing; 1024-bit key "
              "regression; 1 Gb/s link\n\n");
  RekeyBench bench;
  const std::uint64_t kGB = 1ull << 30;
  // Smoke scale: fewer points and a 256 MB base file keep every series
  // shape while finishing in seconds. Its points are the full run's
  // largest policies (and 400 users for the group set), so every timed
  // rekey keeps >= 300 policy leaves, and each point is the mean of `reps`
  // rekeys: with fixed-base tables one such rekey takes 20–35 ms, and rows
  // timed over less than ~100 ms swung by more than CI's band between runs.
  const int reps = smoke ? 6 : 1;
  std::vector<std::size_t> user_counts =
      smoke ? std::vector<std::size_t>{400, 500}
            : std::vector<std::size_t>{100, 200, 300, 400, 500};
  const std::size_t big_users = 500;
  std::uint64_t base_file = smoke ? kGB / 4 : 2 * kGB;
  std::vector<double> ratios =
      smoke ? std::vector<double>{0.1, 0.3, 0.4}
            : std::vector<double>{0.05, 0.1, 0.2, 0.3, 0.4, 0.5};

  std::printf("--- Fig 8(a): delay vs total #users (2 GB file, 20%% revoked) ---\n");
  {
    Table t({"users", "lazy_s", "active_s"});
    for (std::size_t n : user_counts) {
      auto users = bench.Users(n);
      bench.PrepareFile("a-lazy", base_file, users);
      bench.PrepareFile("a-active", base_file, users);
      double lazy = bench.MeanRekey("a-lazy", Keep(users, 0.2), false, reps);
      double active = bench.MeanRekey("a-active", Keep(users, 0.2), true, reps);
      t.Row({Fmt("%.0f", static_cast<double>(n)), Fmt("%.2f", lazy),
             Fmt("%.2f", active)});
      json.Add("users", {{"users", static_cast<double>(n)},
                         {"lazy_s", lazy},
                         {"active_s", active}});
    }
  }

  std::printf("\n--- Fig 8(b): delay vs revocation ratio (2 GB file, 500 users) ---\n");
  {
    Table t({"revoke_pct", "lazy_s", "active_s"});
    auto users = bench.Users(big_users);
    for (double pct : ratios) {
      bench.PrepareFile("b-lazy", base_file, users);
      bench.PrepareFile("b-active", base_file, users);
      double lazy = bench.MeanRekey("b-lazy", Keep(users, pct), false, reps);
      double active = bench.MeanRekey("b-active", Keep(users, pct), true, reps);
      t.Row({Fmt("%.0f", pct * 100), Fmt("%.2f", lazy), Fmt("%.2f", active)});
      json.Add("ratio", {{"revoke_pct", pct * 100},
                         {"lazy_s", lazy},
                         {"active_s", active}});
    }
  }

  std::printf("\n--- Fig 8(c): delay vs file size (500 users, 20%% revoked) ---\n");
  {
    Table t({"file_gb", "lazy_s", "active_s"});
    auto users = bench.Users(big_users);
    std::vector<std::uint64_t> sizes =
        smoke ? std::vector<std::uint64_t>{1, 2}
              : std::vector<std::uint64_t>{1, 2, 4, 8};
    if (full) sizes.push_back(16);
    for (std::uint64_t gb : sizes) {
      // Smoke keeps the x-axis labels but scales the materialized stub down
      // with the same factor as the base file.
      std::uint64_t bytes = smoke ? gb * kGB / 8 : gb * kGB;
      bench.PrepareFile("c-lazy", bytes, users);
      bench.PrepareFile("c-active", bytes, users);
      double lazy = bench.MeanRekey("c-lazy", Keep(users, 0.2), false, reps);
      double active = bench.MeanRekey("c-active", Keep(users, 0.2), true, reps);
      t.Row({Fmt("%.0f", static_cast<double>(gb)), Fmt("%.2f", lazy),
             Fmt("%.2f", active)});
      json.Add("filesize", {{"file_gb", static_cast<double>(gb)},
                            {"lazy_s", lazy},
                            {"active_s", active}});
    }
  }

  std::printf("\n--- extension: group rekeying (one CP-ABE encryption per group;"
              " §IV-D future work) ---\n");
  {
    // K files, 100 users, lazy revocation of 20%: individual rekeys pay K
    // CP-ABE encryptions; the group path pays one + K symmetric wraps.
    Table t({"files", "individual_s", "group_s", "speedup"});
    auto users = bench.Users(smoke ? 400 : 100);
    auto new_users = Keep(users, 0.2);
    abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(new_users);
    std::uint64_t group_file = smoke ? kGB / 8 : kGB;
    std::vector<std::size_t> group_sizes =
        smoke ? std::vector<std::size_t>{2, 8}
              : std::vector<std::size_t>{2, 8, 32};
    for (std::size_t k : group_sizes) {
      // Individual: run the existing per-file flow k times.
      for (std::size_t i = 0; i < k; ++i) {
        bench.PrepareFile("gi-" + std::to_string(i), group_file, users);
      }
      double individual = 0;
      for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < k; ++i) {
          individual += bench.Rekey("gi-" + std::to_string(i), new_users, false);
        }
      }
      individual /= reps;
      // Group: each repetition starts from freshly (directly) wrapped files.
      double group = 0;
      for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < k; ++i) {
          bench.PrepareFile("gg-" + std::to_string(i), group_file, users);
        }
        group += bench.GroupRekey(k, policy);
      }
      group /= reps;
      t.Row({Fmt("%.0f", static_cast<double>(k)), Fmt("%.2f", individual),
             Fmt("%.2f", group), Fmt("%.1fx", individual / group)});
      json.Add("group", {{"files", static_cast<double>(k)},
                         {"individual_s", individual},
                         {"group_s", group}});
    }
  }

  std::printf("\npaper: (a) both rise with #users, <3 s; lazy ~0.6 s faster;"
              "\n       (b) both shrink as more users are revoked (1.44 s / 2 s at 50%%);"
              "\n       (c) lazy flat at 2.25 s; active grows to 3.4 s at 8 GB.\n");
  return 0;
}
