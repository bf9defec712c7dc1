// Ablation microbenchmarks (google-benchmark) for the design choices
// DESIGN.md §6 calls out:
//   * crypto substrate throughput (SHA-256, AES-256-CTR, Rabin window)
//   * OPRF cost split (client blind/unblind vs manager sign)
//   * pairing / CP-ABE primitive costs (what Fig 8 is made of)
//   * REED scheme costs: basic vs enhanced, encrypt vs decrypt
//   * self-XOR tail vs hash tail (the enhanced scheme's §IV-B trick)
//   * stub-size sweep: rekey payload vs storage overhead trade-off
//
//   ./bench_ablation_primitives [--benchmark_filter=...] [--json out.json]
//   (--json X is shorthand for --benchmark_out=X --benchmark_out_format=json,
//    matching the bench_fig* flag convention; --smoke caps iteration time)
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "abe/cpabe.h"
#include "bigint/mont_lanes.h"
#include "aont/reed_cipher.h"
#include "chunk/chunker.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "keymanager/key_manager.h"
#include "pairing/bls.h"
#include "rsa/blind_signature.h"
#include "rsa/key_regression.h"
#include "util/crc32.h"

namespace {

using namespace reed;

Bytes FixedData(std::size_t size, std::uint64_t seed = 1) {
  crypto::DeterministicRng rng(seed);
  return rng.Generate(size);
}

// --------------------------- crypto substrate ---------------------------

void BM_Sha256(benchmark::State& state) {
  Bytes data = FixedData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::Sha256::UsingHardware() ? "sha-ni" : "portable");
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// 256 messages hashed as one batch, as one upload unit's chunks are: arg 0
// picks the kernel (0 per-message, 1 x16), arg 1 the lengths (0 Rabin-like,
// uniform in 2-16 KiB; 1 all 8 KiB).
void BM_Sha256Many(benchmark::State& state) {
  const auto backend = static_cast<crypto::Sha256ManyBackend>(state.range(0));
  if (!crypto::Sha256::Supports(backend)) {
    state.SkipWithError("this CPU lacks the kernel");
    return;
  }
  crypto::DeterministicRng rng(5);
  const Bytes pool = FixedData(256 * 16384, 6);
  std::vector<ByteSpan> messages;
  std::int64_t bytes = 0;
  for (std::size_t i = 0, off = 0; i < 256; ++i) {
    std::uint64_t draw;
    rng.Fill(MutableByteSpan(reinterpret_cast<std::uint8_t*>(&draw), sizeof(draw)));
    const std::size_t n = state.range(1) == 1 ? 8192 : 2048 + draw % (14 * 1024 + 1);
    messages.push_back(ByteSpan(pool).subspan(off, n));
    off += n;
    bytes += static_cast<std::int64_t>(n);
  }
  std::vector<crypto::Sha256Digest> digests(messages.size());
  for (auto _ : state) {
    crypto::Sha256::HashMany(messages, digests, backend);
    benchmark::DoNotOptimize(digests.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  std::string label = crypto::Sha256ManyBackendName(backend);
  if (backend == crypto::Sha256ManyBackend::kPerMessage) {
    label += crypto::Sha256::UsingHardware() ? " (sha-ni)" : " (portable)";
  }
  state.SetLabel(label + (state.range(1) == 1 ? ", 8 KiB" : ", 2-16 KiB"));
}
BENCHMARK(BM_Sha256Many)
    ->ArgNames({"x16", "fixed"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

// The durable store's record checksum over one 8,256-byte segment record
// (an 8 KiB chunk and its framing): slice-by-8 against the byte loop.
void BM_Crc32(benchmark::State& state) {
  Bytes data = FixedData(8256);
  const bool bytewise = state.range(0) == 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytewise ? util::Crc32Bytewise(data) : util::Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(data.size()));
  state.SetLabel(bytewise ? "bytewise" : "slice-by-8");
}
BENCHMARK(BM_Crc32)->ArgName("bytewise")->Arg(0)->Arg(1);

void BM_AesCtr(benchmark::State& state) {
  Bytes key = FixedData(32, 2), iv = FixedData(16, 3);
  Bytes data = FixedData(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::AesCtrEncrypt(key, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::AesBackendName(crypto::Aes256::Backend()));
}
BENCHMARK(BM_AesCtr)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// The CTR loop alone, in place, on each backend this CPU has (arg 0:
// 0 portable, 1 aes-ni, 2 vaes) — no allocation or key schedule per pass.
void BM_AesCtrBackend(benchmark::State& state) {
  auto backend = static_cast<crypto::AesBackend>(state.range(0));
  if (!crypto::Aes256::Supports(backend)) {
    state.SkipWithError("backend not supported on this CPU");
    return;
  }
  Bytes key = FixedData(32, 2), iv = FixedData(16, 3);
  Bytes data = FixedData(static_cast<std::size_t>(state.range(1)), 4);
  crypto::AesCtr ctr(key, iv, backend);
  for (auto _ : state) {
    ctr.Process(data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(1));
  state.SetLabel(crypto::AesBackendName(backend));
}
BENCHMARK(BM_AesCtrBackend)->ArgsProduct({{0, 1, 2}, {8192, 1 << 20}});

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = FixedData(32, 5);
  Bytes data = FixedData(static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(4096)->Arg(65536);

void BM_RabinChunking(benchmark::State& state) {
  Bytes data = FixedData(4 << 20, 7);
  chunk::RabinChunker chunker(chunk::PaperChunking(8192));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.Split(data));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RabinChunking);

// --------------------------- OPRF split ---------------------------

struct OprfFixture {
  rsa::RsaKeyPair keys;
  OprfFixture() {
    crypto::DeterministicRng rng(10);
    keys = rsa::GenerateKeyPair(1024, rng);
  }
};
OprfFixture& Oprf() {
  static OprfFixture f;
  return f;
}

// The client's kernel for a bench: range(1) == 1 forces the scalar path,
// 0 takes the widest one this CPU has for the key. The label names it.
rsa::BlindSignatureClient OprfClient(benchmark::State& state) {
  rsa::BlindSignatureClient client =
      state.range(1) == 1
          ? rsa::BlindSignatureClient(Oprf().keys.pub, bigint::LaneKernel::kScalar)
          : rsa::BlindSignatureClient(Oprf().keys.pub);
  state.SetLabel(bigint::LaneKernelName(client.kernel()));
  return client;
}

// Client-side blinding of one batch on one thread, as one GetKeys batch
// does it: draw the factors, invert them together (one inversion), blind
// the batch in lane groups. /1 is a lone chunk, so its inversion is not
// shared; per_chunk is the cost of one chunk in the batch.
void BM_OprfClientBlind(benchmark::State& state) {
  rsa::BlindSignatureClient client = OprfClient(state);
  crypto::DeterministicRng rng(11);
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> fps;
  for (std::size_t i = 0; i < batch; ++i) fps.push_back(ToBytes("fp" + std::to_string(i)));
  std::vector<ByteSpan> spans(fps.begin(), fps.end());
  for (auto _ : state) {
    std::vector<bigint::BigInt> factors;
    for (std::size_t i = 0; i < batch; ++i) factors.push_back(client.DrawFactor(rng));
    auto inverses = client.InvertFactors(factors);
    std::vector<rsa::BlindedRequest> requests(batch);
    client.BlindBatch(spans, factors, requests);
    benchmark::DoNotOptimize(inverses.data());
    benchmark::DoNotOptimize(requests.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_chunk"] = benchmark::Counter(
      static_cast<double>(batch),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_OprfClientBlind)
    ->ArgNames({"batch", "scalar"})
    ->Args({1, 0})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_OprfManagerSign(benchmark::State& state) {
  rsa::BlindSignatureServer server(Oprf().keys.priv);
  rsa::BlindSignatureClient client(Oprf().keys.pub);
  crypto::DeterministicRng rng(12);
  auto req = client.Blind(ToBytes("fp"), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Sign(req.blinded));
  }
  // One lone signature always runs on the scalar kernel.
  state.SetLabel(bigint::LaneKernelName(bigint::LaneKernel::kScalar));
}
BENCHMARK(BM_OprfManagerSign);

// A batch signed on one thread, as one pool task of KeyManager::SignBatch
// signs its lane groups: per_sig is the per-signature cost that saturates
// Fig 5(b) at large batches. The label names the lane kernel this CPU
// runs (a 1024-bit key's halves fit it).
void BM_OprfManagerSignBatch(benchmark::State& state) {
  rsa::BlindSignatureServer server(Oprf().keys.priv);
  rsa::BlindSignatureClient client(Oprf().keys.pub);
  crypto::DeterministicRng rng(18);
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<bigint::BigInt> blinded;
  for (std::size_t i = 0; i < batch; ++i) {
    blinded.push_back(client.Blind(ToBytes("fp" + std::to_string(i)), rng).blinded);
  }
  std::vector<bigint::BigInt> sigs(batch);
  for (auto _ : state) {
    server.SignBatch(blinded, sigs);
    benchmark::DoNotOptimize(sigs.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_sig"] = benchmark::Counter(
      static_cast<double>(batch),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(bigint::LaneKernelName(bigint::DetectedLaneKernel()));
}
BENCHMARK(BM_OprfManagerSignBatch)->Arg(8)->Arg(256);

// Unblinding and verifying one batch on one thread, in lane groups as
// GetKeys does; per_chunk is the cost of one chunk in the batch.
void BM_OprfClientUnblind(benchmark::State& state) {
  rsa::BlindSignatureServer server(Oprf().keys.priv);
  rsa::BlindSignatureClient client = OprfClient(state);
  crypto::DeterministicRng rng(13);
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<rsa::BlindedRequest> requests;
  std::vector<bigint::BigInt> sigs;
  for (std::size_t i = 0; i < batch; ++i) {
    requests.push_back(client.Blind(ToBytes("fp" + std::to_string(i)), rng));
    sigs.push_back(server.Sign(requests.back().blinded));
  }
  std::vector<Secret> keys(batch);
  for (auto _ : state) {
    client.UnblindBatch(requests, sigs, keys);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_chunk"] = benchmark::Counter(
      static_cast<double>(batch),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_OprfClientUnblind)
    ->ArgNames({"batch", "scalar"})
    ->Args({1, 0})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_KeyRegressionWind(benchmark::State& state) {
  crypto::DeterministicRng rng(14);
  rsa::KeyRegressionOwner owner(Oprf().keys);
  rsa::KeyState st = owner.GenesisState(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(st = owner.Wind(st));
  }
}
BENCHMARK(BM_KeyRegressionWind);

void BM_KeyRegressionUnwind(benchmark::State& state) {
  crypto::DeterministicRng rng(15);
  rsa::KeyRegressionOwner owner(Oprf().keys);
  rsa::KeyRegressionMember member(Oprf().keys.pub);
  rsa::KeyState st = owner.Wind(owner.GenesisState(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(member.Unwind(st));
  }
}
BENCHMARK(BM_KeyRegressionUnwind);

// ------------------- BLS alternative (paper §V names it) -------------------

void BM_BlsManagerSign(benchmark::State& state) {
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  crypto::DeterministicRng rng(16);
  pairing::BlsKeyPair kp = pairing::BlsGenerateKeyPair(*pairing, rng);
  pairing::BlsBlindSigner signer(pairing, kp.secret);
  pairing::BlsBlindClient client(pairing, kp.public_key);
  auto req = client.Blind(ToBytes("fp"), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.Sign(req.blinded));
  }
  // Compare with BM_OprfManagerSign: the manager-side cost decides the
  // Fig 5(b) saturation plateau under either instantiation.
}
BENCHMARK(BM_BlsManagerSign);

void BM_BlsClientUnblind(benchmark::State& state) {
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  crypto::DeterministicRng rng(17);
  pairing::BlsKeyPair kp = pairing::BlsGenerateKeyPair(*pairing, rng);
  pairing::BlsBlindSigner signer(pairing, kp.secret);
  pairing::BlsBlindClient client(pairing, kp.public_key);
  auto req = client.Blind(ToBytes("fp"), rng);
  pairing::G1Point sig = signer.Sign(req.blinded);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Unblind(req, sig));
  }
  // Unblind pays two pairings — this is why the prototype (and the paper)
  // default to the RSA OPRF despite BLS's cheaper signing.
}
BENCHMARK(BM_BlsClientUnblind);

// --------------------------- pairing / CP-ABE ---------------------------

struct AbeFixture {
  std::shared_ptr<const pairing::TypeAPairing> pairing;
  std::unique_ptr<abe::CpAbe> cpabe;
  abe::CpAbe::SetupResult setup;
  AbeFixture() {
    pairing = std::make_shared<const pairing::TypeAPairing>(
        pairing::TypeAParams::Default());
    cpabe = std::make_unique<abe::CpAbe>(pairing);
    crypto::DeterministicRng rng(20);
    setup = cpabe->Setup(rng);
  }
};
AbeFixture& Abe() {
  static AbeFixture f;
  return f;
}

void BM_TatePairing(benchmark::State& state) {
  const auto& e = *Abe().pairing;
  pairing::G1Point p = e.HashToGroup(ToBytes("P"));
  pairing::G1Point q = e.HashToGroup(ToBytes("Q"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Pair(p, q));
  }
}
BENCHMARK(BM_TatePairing);

// One Miller loop walking P, against MillerProduct over P's prepared lines:
// n terms share one squaring per step and skip the point arithmetic (a
// CP-ABE OR-policy decrypt runs n = 3).
void BM_MillerLoop(benchmark::State& state) {
  const auto& e = *Abe().pairing;
  pairing::G1Point p = e.HashToGroup(ToBytes("P"));
  pairing::G1Point q = e.HashToGroup(ToBytes("Q"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.MillerLoop(p, q));
  }
}
BENCHMARK(BM_MillerLoop);

void BM_MillerProduct(benchmark::State& state) {
  const auto& e = *Abe().pairing;
  std::vector<pairing::G1Point> points;
  std::vector<pairing::MillerLines> lines;
  for (std::int64_t i = 0; i < 2 * state.range(0); ++i) {
    points.push_back(e.HashToGroup(ToBytes("pair-" + std::to_string(i))));
  }
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    lines.push_back(e.Prepare(points[static_cast<std::size_t>(2 * i)]));
  }
  std::vector<pairing::MillerTerm> terms;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    terms.push_back({&lines[i], &points[2 * i + 1]});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.MillerProduct(terms));
  }
}
BENCHMARK(BM_MillerProduct)->Arg(1)->Arg(3);

void BM_G1ScalarMul(benchmark::State& state) {
  const auto& e = *Abe().pairing;
  pairing::G1Point p = e.HashToGroup(ToBytes("P"));
  crypto::DeterministicRng rng(21);
  bigint::BigInt k = e.RandomScalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.ScalarMul(k));
  }
}
BENCHMARK(BM_G1ScalarMul);

// The same multiply through a fixed-base table (what CP-ABE encrypt runs per
// leaf), including its conversion back to affine, and the table's one-off
// build cost.
void BM_G1FixedBaseMul(benchmark::State& state) {
  const auto& e = *Abe().pairing;
  pairing::G1Point p = e.HashToGroup(ToBytes("P"));
  auto table = pairing::G1FixedBase::Build(p, e.group_order().BitLength());
  crypto::DeterministicRng rng(21);
  bigint::BigInt k = e.RandomScalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::BatchToAffine({table->Mul(k)}));
  }
}
BENCHMARK(BM_G1FixedBaseMul);

void BM_G1FixedBaseBuild(benchmark::State& state) {
  const auto& e = *Abe().pairing;
  pairing::G1Point p = e.HashToGroup(ToBytes("P"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pairing::G1FixedBase::Build(p, e.group_order().BitLength()));
  }
}
BENCHMARK(BM_G1FixedBaseBuild);

void BM_AbeEncrypt(benchmark::State& state) {
  auto& f = Abe();
  crypto::DeterministicRng rng(22);
  std::vector<std::string> users;
  for (int i = 0; i < state.range(0); ++i) {
    users.push_back("u" + std::to_string(i));
  }
  abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);
  Secret payload(FixedData(200, 23));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.cpabe->EncryptBytes(f.setup.pk, policy, payload, rng));
  }
  // Linear in #users: the dominant term of the Fig 8(a) curve.
}
BENCHMARK(BM_AbeEncrypt)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

void BM_AbeDecrypt(benchmark::State& state) {
  auto& f = Abe();
  crypto::DeterministicRng rng(24);
  std::vector<std::string> users;
  for (int i = 0; i < state.range(0); ++i) {
    users.push_back("u" + std::to_string(i));
  }
  abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);
  Secret payload(FixedData(200, 25));
  Bytes ct = Declassify(f.cpabe->EncryptBytes(f.setup.pk, policy, payload, rng),
                        "bench: ABE ciphertext for the decrypt loop");
  abe::PrivateKey sk = f.cpabe->KeyGen(f.setup.pk, f.setup.mk, {"user:u0"}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.cpabe->DecryptBytes(sk, ct));
  }
  // ~Constant in #users for OR policies — why Fig 8 rekey decrypt is flat.
}
// Arg 17 is reedbench's policy size and 400 the upper half of Fig 8's
// 100–500 users: the decrypt includes the blob's parse, so the flat slope
// shows only if the unpaired leaves cost (nearly) nothing.
BENCHMARK(BM_AbeDecrypt)
    ->Arg(1)
    ->Arg(10)
    ->Arg(17)
    ->Arg(50)
    ->Arg(100)
    ->Arg(400);

// A one-attribute key loaded from its blob: the parse plus the Miller lines
// of its three points (D, D_j, −D'_j), which every later decrypt reuses.
void BM_AbePrepareKey(benchmark::State& state) {
  auto& f = Abe();
  crypto::DeterministicRng rng(26);
  Secret blob = f.cpabe->SerializePrivateKey(
      f.cpabe->KeyGen(f.setup.pk, f.setup.mk, {"user:u0"}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.cpabe->DeserializePrivateKey(blob));
  }
}
BENCHMARK(BM_AbePrepareKey);

// --------------------------- REED schemes ---------------------------

// "enhanced/vaes": the scheme and the AES kernel that produced the number.
std::string SchemeLabel(aont::Scheme scheme) {
  return std::string(aont::SchemeName(scheme)) + "/" +
         crypto::AesBackendName(crypto::Aes256::Backend());
}

// One pool partition's EncryptMany: 64 distinct chunks under their own
// keys, so the hash-key pass runs at the batch kernel's width.
void BM_ReedEncrypt(benchmark::State& state) {
  auto scheme = static_cast<aont::Scheme>(state.range(0));
  std::size_t chunk_size = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kChunks = 64;
  aont::ReedCipher cipher(scheme);
  Bytes data = FixedData(kChunks * chunk_size, 30);
  std::vector<ByteSpan> chunks;
  std::vector<Secret> keys;
  for (std::size_t i = 0; i < kChunks; ++i) {
    chunks.push_back(ByteSpan(data).subspan(i * chunk_size, chunk_size));
    keys.emplace_back(FixedData(32, 31 + i));
  }
  std::vector<aont::SealedChunk> out(kChunks);
  for (auto _ : state) {
    cipher.EncryptMany(chunks, keys, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(std::string(SchemeLabel(scheme)) + ", sha " +
                 crypto::Sha256ManyBackendName(crypto::Sha256::ManyBackend()));
}
BENCHMARK(BM_ReedEncrypt)
    ->Args({0, 8192})
    ->Args({1, 8192})
    ->Args({0, 16384})
    ->Args({1, 16384});

void BM_ReedDecrypt(benchmark::State& state) {
  auto scheme = static_cast<aont::Scheme>(state.range(0));
  aont::ReedCipher cipher(scheme);
  Bytes chunk = FixedData(8192, 32);
  Secret key(FixedData(32, 33));
  aont::SealedChunk sealed = cipher.Encrypt(chunk, key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.Decrypt(sealed.trimmed_package, sealed.stub));
  }
  state.SetBytesProcessed(state.iterations() * 8192);
  state.SetLabel(SchemeLabel(scheme));
}
BENCHMARK(BM_ReedDecrypt)->Arg(0)->Arg(1);

void BM_SelfXorVsHashTail(benchmark::State& state) {
  // The enhanced scheme's tail: SelfXor(C2) vs a second SHA-256 pass.
  Bytes data = FixedData(8192 + 32, 34);
  bool use_hash = state.range(0) != 0;
  for (auto _ : state) {
    if (use_hash) {
      benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
    } else {
      benchmark::DoNotOptimize(aont::SelfXor(data));
    }
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(data.size()));
  state.SetLabel(use_hash ? "hash-tail" : "self-xor-tail");
}
BENCHMARK(BM_SelfXorVsHashTail)->Arg(0)->Arg(1);

// --------------------------- stub-size ablation ---------------------------

void BM_StubSizeSweep(benchmark::State& state) {
  // Cost side of the stub-size trade-off: encryption throughput is nearly
  // independent of stub size (the split is free); what changes is storage
  // overhead (stub bytes per chunk) and rekey payload — reported as
  // counters so the trade-off is visible in one table.
  std::size_t stub_size = static_cast<std::size_t>(state.range(0));
  aont::ReedCipher cipher(aont::Scheme::kEnhanced, stub_size);
  Bytes chunk = FixedData(8192, 35);
  Secret key(FixedData(32, 36));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.Encrypt(chunk, key));
  }
  state.SetBytesProcessed(state.iterations() * 8192);
  state.counters["stub_overhead_pct"] =
      100.0 * static_cast<double>(stub_size) / 8192.0;
  state.counters["rekey_bytes_per_mb"] =
      static_cast<double>(stub_size) * (1048576.0 / 8192.0);
}
BENCHMARK(BM_StubSizeSweep)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

}  // namespace

// Custom main: translate the repo-wide --json/--smoke flags into
// google-benchmark's native flags, then hand over to the library.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.emplace_back(std::string("--benchmark_out=") + argv[i + 1]);
      args.emplace_back("--benchmark_out_format=json");
      ++i;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.emplace_back("--benchmark_min_time=0.05s");
    } else if (std::strcmp(argv[i], "--full") == 0) {
      // Default google-benchmark timing is already the "full" scale.
    } else {
      args.emplace_back(argv[i]);
    }
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (auto& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
