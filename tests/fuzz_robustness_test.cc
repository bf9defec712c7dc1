// Deterministic mutation-fuzz suite for every wire deserializer: random
// bit flips, truncations, and extensions of valid blobs must either throw
// reed::Error or produce a well-formed value — never crash, hang, or read
// out of bounds. (Run under ASan/valgrind for full effect; under plain
// builds this still catches unchecked lengths and absent validation.)
#include <gtest/gtest.h>

#include "abe/cpabe.h"
#include "crypto/random.h"
#include "net/stats_wire.h"
#include "obs/metrics.h"
#include "pairing/pairing.h"
#include "rsa/rsa.h"
#include "store/log_format.h"
#include "store/recipe.h"
#include "trace/trace.h"
#include "util/fault_inject.h"
#include "util/schedule_fuzz.h"

namespace reed {
namespace {

using crypto::DeterministicRng;

// Applies `rounds` random mutations; calls `parse` on each mutant and
// asserts it either throws Error or returns normally.
template <typename ParseFn>
void FuzzBlob(const Bytes& valid, ParseFn parse, std::uint64_t seed,
              int rounds = 300) {
  DeterministicRng rng(seed);
  int threw = 0, parsed = 0;
  for (int i = 0; i < rounds; ++i) {
    Bytes mutant = valid;
    switch (rng.Uniform(4)) {
      case 0:  // single bit flip
        if (!mutant.empty()) {
          mutant[rng.Uniform(mutant.size())] ^=
              static_cast<std::uint8_t>(1u << rng.Uniform(8));
        }
        break;
      case 1:  // truncate
        mutant.resize(rng.Uniform(mutant.size() + 1));
        break;
      case 2: {  // extend with random bytes
        Bytes extra = rng.Generate(1 + rng.Uniform(16));
        Append(mutant, extra);
        break;
      }
      default: {  // splice a random window with noise
        if (!mutant.empty()) {
          std::size_t off = rng.Uniform(mutant.size());
          std::size_t len = std::min<std::size_t>(
              mutant.size() - off, 1 + rng.Uniform(8));
          Bytes noise = rng.Generate(len);
          std::copy(noise.begin(), noise.end(), mutant.begin() + off);
        }
        break;
      }
    }
    try {
      parse(mutant);
      ++parsed;
    } catch (const Error&) {
      ++threw;
    }
    // Any other exception type (or a crash) fails the test by escaping.
  }
  // Sanity: the fuzzer actually exercised the failure paths.
  EXPECT_GT(threw, rounds / 10);
  (void)parsed;
}

TEST(FuzzTest, PolicyNodeDeserializer) {
  abe::PolicyNode policy = abe::PolicyNode::Threshold(
      2, {abe::PolicyNode::Leaf("a"),
          abe::PolicyNode::Or({abe::PolicyNode::Leaf("b"),
                               abe::PolicyNode::Leaf("c")}),
          abe::PolicyNode::Leaf("d")});
  Bytes blob;
  policy.SerializeTo(blob);
  FuzzBlob(blob, [](const Bytes& b) { (void)abe::PolicyNode::Deserialize(b); },
           1);
}

TEST(FuzzTest, FileRecipeDeserializer) {
  store::FileRecipe recipe;
  recipe.file_id = "fuzz-target";
  recipe.file_size = 99999;
  recipe.stub_size = 64;
  for (int i = 0; i < 8; ++i) {
    recipe.fingerprints.push_back(
        chunk::Fingerprint::Of(ToBytes("c" + std::to_string(i))));
    recipe.chunk_sizes.push_back(4096);
  }
  FuzzBlob(recipe.Serialize(),
           [](const Bytes& b) { (void)store::FileRecipe::Deserialize(b); }, 2);
}

TEST(FuzzTest, KeyStateRecordDeserializer) {
  store::KeyStateRecord rec;
  rec.owner_id = "alice";
  rec.key_version = 3;
  rec.stub_key_version = 1;
  rec.policy = ToBytes("policy");
  rec.wrapped_state = Bytes(200, 0x42);
  rec.group_wrap_id = "groupwrap/x";
  rec.derivation_public_key = Bytes(70, 0x17);
  FuzzBlob(rec.Serialize(),
           [](const Bytes& b) { (void)store::KeyStateRecord::Deserialize(b); },
           3);
}

TEST(FuzzTest, G1PointDeserializer) {
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  const pairing::FpField* f = pairing->field();
  Bytes blob = pairing->HashToGroup(ToBytes("fuzz")).ToBytes(f);
  FuzzBlob(blob,
           [f](const Bytes& b) { (void)pairing::G1Point::FromBytes(f, b); },
           4, 200);
}

TEST(FuzzTest, AbeCiphertextDeserializer) {
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  abe::CpAbe cpabe(pairing);
  DeterministicRng rng(5);
  auto setup = cpabe.Setup(rng);
  abe::PolicyNode policy = abe::PolicyNode::OrOfUsers({"a", "b"});
  pairing::Fp2 m =
      pairing->Pair(setup.pk.g, setup.pk.g).Pow(pairing->RandomScalar(rng));
  Bytes blob = cpabe.SerializeCiphertext(
      cpabe.EncryptElement(setup.pk, m, policy, rng));
  FuzzBlob(blob,
           [&cpabe](const Bytes& b) { (void)cpabe.DeserializeCiphertext(b); },
           6, 150);
}

TEST(FuzzTest, AbeDecryptBytesView) {
  // DecryptBytes parses the CP-ABE part through a view that decodes only
  // the points the key pairs; every mutant must still end in Error or a
  // decrypt, never a crash or an out-of-bounds read.
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  abe::CpAbe cpabe(pairing);
  DeterministicRng rng(8);
  auto setup = cpabe.Setup(rng);
  abe::PolicyNode policy = abe::PolicyNode::Threshold(
      2, {abe::PolicyNode::Leaf("a"),
          abe::PolicyNode::Or({abe::PolicyNode::Leaf("b"),
                               abe::PolicyNode::Leaf("c")}),
          abe::PolicyNode::Leaf("d")});
  abe::PrivateKey sk = cpabe.KeyGen(setup.pk, setup.mk, {"a", "c"}, rng);
  Bytes blob = Declassify(
      cpabe.EncryptBytes(setup.pk, policy, Secret(Bytes(24, 7)), rng),
      "test: ABE ciphertext to fuzz");
  FuzzBlob(blob,
           [&](const Bytes& b) { (void)cpabe.DecryptBytes(sk, b); }, 9, 150);
}

TEST(FuzzTest, RsaKeyPairDeserializer) {
  DeterministicRng rng(7);
  rsa::RsaKeyPair kp = rsa::GenerateKeyPair(512, rng);
  FuzzBlob(Declassify(rsa::SerializeKeyPair(kp),
                      "test: fuzz corpus seed for the key-pair parser"),
           [](const Bytes& b) { (void)rsa::DeserializeKeyPair(Secret(b)); }, 8,
           200);
}

TEST(FuzzTest, TraceSnapshotDeserializer) {
  trace::Snapshot snap;
  for (int i = 0; i < 20; ++i) {
    snap.push_back({static_cast<std::uint64_t>(i * 7919), 4096u});
  }
  FuzzBlob(trace::SerializeSnapshot(snap),
           [](const Bytes& b) { (void)trace::DeserializeSnapshot(b); }, 9, 200);
}

TEST(FuzzTest, StatsSnapshotDecoder) {
  // The kGetStats payload codec: counters, a negative gauge (two's
  // complement on the wire), and a histogram with a full bucket vector —
  // the list counts inside are attacker-controlled lengths.
  obs::Snapshot snap;
  snap.counters.push_back({"server.rpc.put_chunks.calls", 17});
  snap.counters.push_back({"server.store.unique_chunks", 5});
  snap.gauges.push_back({"server.net.inflight", -2});
  obs::Snapshot::HistogramValue h;
  h.name = "server.rpc.put_chunks.latency_us";
  h.count = 3;
  h.sum = 4500;
  h.buckets.assign(obs::Histogram::kNumBuckets, 0);
  h.buckets[4] = 3;
  snap.histograms.push_back(std::move(h));
  net::Writer w;
  net::EncodeSnapshot(w, snap);
  FuzzBlob(w.Take(),
           [](const Bytes& b) {
             net::Reader r(b);
             (void)net::DecodeSnapshot(r);
             r.ExpectEnd();
           },
           10);
}

// The durable-store log decoders (DESIGN.md §12) parse bytes that a crash
// can tear arbitrarily, so they face the same contract as the wire: typed
// StoreError (an Error) or a well-formed record — never a crash, hang, or
// an allocation driven by a forged length (the frame decoder refuses
// payload lengths beyond the 256 MiB cap, mirroring net::Reader's blob cap,
// BEFORE touching the payload).
TEST(FuzzTest, WalRecordFrameDecoder) {
  Bytes buf;
  store::AppendRecord(
      buf, store::RecordType::kIndexInsert,
      store::EncodeIndexInsert({chunk::Fingerprint::Of(ToBytes("chunk-0")),
                                store::ChunkLocation{3, 128, 512}}));
  store::AppendRecord(buf, store::RecordType::kObjectPut,
                      store::EncodeObjectPut({0, "stub/f7", Bytes(64, 0x5A)}));
  FuzzBlob(buf,
           [](const Bytes& b) {
             std::size_t offset = 0;
             while (offset < b.size()) {
               store::RecordView rec = store::DecodeRecord(b, offset);
               offset += rec.encoded_size;
             }
           },
           13);
  // The tolerant scanner must never throw at all: every mutant is either
  // records, end, or a torn tail.
  DeterministicRng rng(14);
  for (int i = 0; i < 300; ++i) {
    Bytes mutant = rng.Generate(rng.Uniform(buf.size() + 16));
    std::size_t offset = 0;
    while (true) {
      auto scan = store::ScanRecord(mutant, offset);
      if (scan.status != store::ScanStatus::kRecord) break;
      offset += scan.record.encoded_size;
    }
  }
}

TEST(FuzzTest, SegmentAppendPayloadDecoder) {
  // A short chunk so truncation mutants regularly land inside the fixed
  // header (the payload tail is raw chunk bytes — any value is valid there).
  FuzzBlob(store::EncodeSegmentAppend({9, 4096, Bytes(4, 0x33)}),
           [](const Bytes& b) { (void)store::DecodeSegmentAppend(b); }, 15);
}

TEST(FuzzTest, IndexInsertPayloadDecoder) {
  FuzzBlob(store::EncodeIndexInsert(
               {chunk::Fingerprint::Of(ToBytes("chunk-1")),
                store::ChunkLocation{1, 2, 3}}),
           [](const Bytes& b) { (void)store::DecodeIndexInsert(b); }, 16);
}

TEST(FuzzTest, ObjectPutPayloadDecoder) {
  FuzzBlob(store::EncodeObjectPut({1, "keystate/f1", Bytes(128, 0x77)}),
           [](const Bytes& b) { (void)store::DecodeObjectPut(b); }, 17);
}

// The env-spec parsers are wire-adjacent: REED_FAULT / REED_SCHEDULE_SEED
// come from outside the process, so mutated text must throw reed::Error or
// parse — never crash or wedge. Mutants that parse may arm fault sites;
// DisarmAll afterwards keeps this binary's other tests unperturbed.
TEST(FuzzTest, FaultSpecParser) {
  const std::string valid = "net.wire.read:nth=3;client.upload:prob=250,7;a.b";
  FuzzBlob(ToBytes(valid),
           [](const Bytes& b) {
             fault::ApplySpec(std::string(b.begin(), b.end()));
           },
           11);
  fault::DisarmAll();
}

TEST(FuzzTest, ScheduleSeedParser) {
  // Max u64: still valid, and one mutation away from overflow or a
  // non-digit — both must come back as typed errors.
  const std::string valid = "18446744073709551615";
  FuzzBlob(ToBytes(valid),
           [](const Bytes& b) {
             const std::string text(b.begin(), b.end());
             (void)schedfuzz::ParseSeedSpec(text.c_str());
           },
           12);
}

}  // namespace
}  // namespace reed
