// Figure 6 — Experiment A.2: chunk-encryption performance.
//
// Speed of the basic vs enhanced REED encryption schemes as a function of
// average chunk size, with 2 encryption threads (paper setup). Keys are
// pre-fetched, as in the paper ("suppose that the client has created
// chunks ... and obtained MLE keys").
//
// Paper shapes: both schemes speed up with chunk size; basic is ~20-25%
// faster than enhanced (one fewer encryption pass); both comfortably
// exceed a 1 Gb/s link, so encryption is not the upload bottleneck.
//
//   ./bench_fig6_encryption [--full|--smoke] [--json out.json]
#include <span>
#include <vector>

#include "aont/reed_cipher.h"
#include "bench/bench_util.h"
#include "chunk/chunker.h"
#include "crypto/aes.h"
#include "crypto/sha256.h"
#include "util/thread_pool.h"

using namespace reed;
using namespace reed::bench;

namespace {

double MeasureEncryptionOnce(aont::Scheme scheme, ByteSpan data,
                             std::size_t avg_chunk_size, std::size_t threads) {
  chunk::RabinChunker chunker(chunk::PaperChunking(avg_chunk_size));
  auto refs = chunker.Split(data);
  // Derive per-chunk MLE keys locally (already-fetched keys, per paper).
  std::vector<Secret> keys(refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    keys[i] = Secret(crypto::Sha256::HashToBytes(
        data.subspan(refs[i].offset, refs[i].length)));
  }

  aont::ReedCipher cipher(scheme);
  ThreadPool pool(threads);
  std::vector<aont::SealedChunk> out(refs.size());
  std::vector<ByteSpan> chunks;
  for (const chunk::ChunkRef& ref : refs) {
    chunks.push_back(data.subspan(ref.offset, ref.length));
  }
  // One EncryptMany per pool partition, as the client's encode stage runs.
  Stopwatch sw;
  pool.ParallelForRanges(refs.size(), [&](std::size_t begin, std::size_t end) {
    cipher.EncryptMany(std::span(chunks).subspan(begin, end - begin),
                       std::span(keys).subspan(begin, end - begin),
                       std::span(out).subspan(begin, end - begin));
  });
  double secs = sw.ElapsedSeconds();
  return MbPerSec(data.size(), secs);
}

// Best of three runs — the box the bench runs on may be time-shared, and
// throughput benches want the least-disturbed sample.
double MeasureEncryption(aont::Scheme scheme, ByteSpan data,
                         std::size_t avg_chunk_size, std::size_t threads) {
  double best = 0;
  for (int i = 0; i < 3; ++i) {
    best = std::max(best,
                    MeasureEncryptionOnce(scheme, data, avg_chunk_size, threads));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = HasFlag(argc, argv, "--full");
  bool smoke = HasFlag(argc, argv, "--smoke");
  std::size_t file_size = full ? (2ull << 30) : smoke ? (16ull << 20)
                                              : (128ull << 20);
  JsonReporter json("fig6_encryption", argc, argv);
  std::printf("=== Figure 6 / Experiment A.2: encryption speed ===\n");
  std::printf("file: %zu MB unique chunks; 2 encryption threads; AES/SHA "
              "kernels: %s/%s, batch %s\n\n",
              file_size >> 20,
              crypto::AesBackendName(crypto::Aes256::Backend()),
              crypto::Sha256::UsingHardware() ? "sha-ni" : "portable",
              crypto::Sha256ManyBackendName(crypto::Sha256::ManyBackend()));

  Bytes data = UniqueData(file_size, 6);
  // Warm-up: touch the buffer and spin up thread-pool/code paths so the
  // first table cell is not penalized.
  (void)MeasureEncryption(aont::Scheme::kBasic,
                          ByteSpan(data.data(), std::min<std::size_t>(
                                                    data.size(), 32u << 20)),
                          8 * 1024, 2);

  Table t({"chunk_size_kb", "basic_mbps", "enhanced_mbps", "basic_adv"});
  for (std::size_t kb : {2, 4, 8, 16}) {
    double basic = MeasureEncryption(aont::Scheme::kBasic, data, kb * 1024, 2);
    double enhanced =
        MeasureEncryption(aont::Scheme::kEnhanced, data, kb * 1024, 2);
    t.Row({Fmt("%.0f", static_cast<double>(kb)), Fmt("%.1f", basic),
           Fmt("%.1f", enhanced), Fmt("%.0f%%", 100.0 * (basic / enhanced - 1.0))});
    json.Add("speed_vs_chunk", {{"chunk_size_kb", static_cast<double>(kb)},
                                {"basic_mbps", basic},
                                {"enhanced_mbps", enhanced}});
  }
  std::printf("\npaper (8 KB): basic 203 MB/s vs enhanced 155 MB/s (24%% faster);"
              " both rise with chunk size and exceed the 1 Gb/s network.\n");
  return 0;
}
