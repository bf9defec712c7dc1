// Figure 5 — Experiment A.1: MLE key generation performance.
//
// (a) keygen speed vs average chunk size (batch fixed at 256 requests)
// (b) keygen speed vs batch size (average chunk size fixed at 8 KB)
//
// Paper shapes to reproduce: speed rises with chunk size (fewer chunks per
// byte); speed rises with batch size and saturates once the key manager's
// OPRF compute — not round trips — is the bottleneck (≥256).
//
//   ./bench_fig5_keygen [--full|--smoke] [--json out.json]
//   (--full: 2 GB file as in the paper; --smoke: 4 MB CI scale)
#include "bench/bench_util.h"
#include "chunk/chunker.h"
#include "keymanager/mle_key_client.h"
#include "net/rpc.h"

using namespace reed;
using namespace reed::bench;

namespace {

struct KeygenSetup {
  std::unique_ptr<keymanager::KeyManager> km;
  std::shared_ptr<net::SimulatedLink> link;

  explicit KeygenSetup(std::uint64_t seed) {
    crypto::DeterministicRng rng(seed);
    keymanager::KeyManager::Options opts;
    opts.rsa_bits = 1024;
    km = std::make_unique<keymanager::KeyManager>(opts, rng);
    link = std::make_shared<net::SimulatedLink>(1e9, 1e-3);
  }

  std::shared_ptr<net::RpcChannel> Channel() {
    keymanager::KeyManager* raw = km.get();
    return std::make_shared<net::LocalChannel>(
        [raw](ByteSpan req) { return raw->HandleRequest(req); }, link);
  }
};

double MeasureKeygen(KeygenSetup& setup, ByteSpan data,
                     std::size_t avg_chunk_size, std::size_t batch_size) {
  chunk::RabinChunker chunker(chunk::PaperChunking(avg_chunk_size));
  auto refs = chunker.Split(data);
  std::vector<chunk::Fingerprint> fps;
  fps.reserve(refs.size());
  for (const auto& r : refs) {
    fps.push_back(chunk::Fingerprint::Of(data.subspan(r.offset, r.length)));
  }

  keymanager::MleKeyClient::Options copts;
  copts.batch_size = batch_size;
  copts.enable_cache = false;  // measure raw keygen, as in the paper
  keymanager::MleKeyClient client("bench", setup.km->public_key(),
                                  setup.Channel(), copts);
  crypto::DeterministicRng rng(99);
  Stopwatch sw;
  auto keys = client.GetKeys(fps, rng);
  double secs = sw.ElapsedSeconds();
  if (keys.size() != fps.size()) throw Error("keygen bench: missing keys");
  return MbPerSec(data.size(), secs);
}

}  // namespace

int main(int argc, char** argv) {
  bool full = HasFlag(argc, argv, "--full");
  bool smoke = HasFlag(argc, argv, "--smoke");
  std::size_t file_size = full ? (2ull << 30) : smoke ? (4ull << 20)
                                              : (32ull << 20);
  JsonReporter json("fig5_keygen", argc, argv);
  std::printf("=== Figure 5 / Experiment A.1: MLE key generation ===\n");
  std::printf("file: %zu MB of globally unique chunks; key manager: 1024-bit "
              "RSA OPRF; link: 1 Gb/s, 1 ms RTT\n\n",
              file_size >> 20);

  KeygenSetup setup(2016);
  Bytes data = UniqueData(file_size, 5);

  std::printf("--- Fig 5(a): speed vs average chunk size (batch = 256) ---\n");
  {
    Table t({"chunk_size_kb", "speed_mbps"});
    for (std::size_t kb : {2, 4, 8, 16}) {
      double mbps = MeasureKeygen(setup, data, kb * 1024, 256);
      t.Row({Fmt("%.0f", static_cast<double>(kb)), Fmt("%.2f", mbps)});
      json.Add("speed_vs_chunk", {{"chunk_size_kb", static_cast<double>(kb)},
                                  {"speed_mbps", mbps}});
    }
  }

  std::printf("\n--- Fig 5(b): speed vs batch size (chunk size = 8 KB) ---\n");
  {
    Table t({"batch_size", "speed_mbps"});
    for (std::size_t batch : {1, 4, 16, 64, 256, 1024, 4096}) {
      // Small batches pay a round trip per batch; subsample the file so the
      // batch=1 point finishes quickly yet still averages 1000+ requests.
      std::size_t sample = (batch < 16 && !full)
                               ? std::min<std::size_t>(data.size(), 8u << 20)
                               : data.size();
      double mbps = MeasureKeygen(setup, ByteSpan(data.data(), sample),
                                  8 * 1024, batch);
      t.Row({Fmt("%.0f", static_cast<double>(batch)), Fmt("%.2f", mbps)});
      json.Add("speed_vs_batch", {{"batch_size", static_cast<double>(batch)},
                                  {"speed_mbps", mbps}});
    }
  }

  std::printf("\npaper: Fig 5(a) rises ~4->17.6 MB/s over 2->16 KB;"
              " Fig 5(b) rises with batch size, saturating ~12.5 MB/s at >=256.\n");
  return 0;
}
