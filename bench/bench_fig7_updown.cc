// Figure 7 — Experiment A.3: upload and download performance.
//
// (a) upload speed, 1st vs 2nd upload of identical content, both schemes,
//     vs average chunk size (key cache on, batch 256, 2 threads);
// (b) download speed, both schemes, vs average chunk size;
// (c) aggregate upload speed vs number of clients (enhanced scheme).
//
// Paper shapes: 1st uploads are MLE-keygen-bound (single-digit MB/s,
// rising with chunk size); 2nd uploads hit the cached keys and approach
// the network speed, with both schemes nearly identical; downloads also
// approach the network speed; aggregate upload scales with client count,
// keygen-bound on round 1 and network-bound on round 2.
//
// Scale note: the simulated link reproduces the 1 Gb/s testbed, but client
// compute (chunking + hashing + encryption) shares ONE core here instead
// of a quad-core i5 per machine, so "network-bound" tops out below the
// paper's ~110 MB/s wire rate. Crossovers and orderings are preserved.
//
//   ./bench_fig7_updown [--full|--smoke] [--json out.json]
#include <thread>

#include "bench/bench_util.h"

using namespace reed;
using namespace reed::bench;

namespace {

// depth/channels = 1/1 pins the upload pipeline to a window of one (encode
// and transfer alternate), keeping the historical updown/aggregate series
// comparable across releases; the dedicated pipeline series below turns
// the overlap on.
client::ClientOptions BenchClient(aont::Scheme scheme, std::size_t chunk_kb,
                                  std::size_t depth = 1,
                                  std::size_t channels = 1) {
  client::ClientOptions opts;
  opts.scheme = scheme;
  opts.avg_chunk_size = chunk_kb * 1024;
  opts.encryption_threads = 2;
  opts.pipeline.depth = depth;
  opts.pipeline.channels_per_server = channels;
  opts.rng_seed = 42;
  return opts;
}

struct UpDown {
  double first_mbps;
  double second_mbps;
  double download_mbps;
};

UpDown MeasureUpDown(const client::ClientOptions& copts, std::size_t chunk_kb,
                     std::size_t file_size) {
  core::ReedSystem system(PaperSystem(1000 + chunk_kb));
  system.RegisterUser("u");
  auto client = system.CreateClient("u", copts);
  Bytes data = UniqueData(file_size, 7000 + chunk_kb);

  UpDown result{};
  Stopwatch sw;
  (void)client->Upload("f1", data, {"u"});
  result.first_mbps = MbPerSec(data.size(), sw.ElapsedSeconds());

  sw.Reset();
  (void)client->Upload("f2", data, {"u"});  // identical content, cached keys
  result.second_mbps = MbPerSec(data.size(), sw.ElapsedSeconds());

  sw.Reset();
  Bytes back = client->Download("f1");
  result.download_mbps = MbPerSec(back.size(), sw.ElapsedSeconds());
  if (back != data) throw Error("fig7: download mismatch");
  return result;
}

struct AggregateResult {
  double first_mbps;
  double second_mbps;
};

AggregateResult MeasureAggregate(std::size_t num_clients,
                                 std::size_t file_size) {
  core::ReedSystem system(PaperSystem(2000 + num_clients));
  std::vector<std::unique_ptr<client::ReedClient>> clients;
  for (std::size_t c = 0; c < num_clients; ++c) {
    std::string user = "u" + std::to_string(c);
    system.RegisterUser(user);
    clients.push_back(
        system.CreateClient(user, BenchClient(aont::Scheme::kEnhanced, 8)));
  }
  // Per-client unique data (each client uploads its own content twice; the
  // second round is served by the key cache and dedup).
  std::vector<Bytes> data;
  for (std::size_t c = 0; c < num_clients; ++c) {
    data.push_back(UniqueData(file_size, 9000 + 17 * c));
  }

  auto run_round = [&](int r) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < num_clients; ++c) {
      threads.emplace_back([&, c] {
        (void)clients[c]->Upload("f" + std::to_string(r), data[c],
                                 {"u" + std::to_string(c)});
      });
    }
    for (auto& t : threads) t.join();
  };

  AggregateResult result{};
  std::uint64_t total = static_cast<std::uint64_t>(file_size) * num_clients;
  Stopwatch sw;
  run_round(1);
  result.first_mbps = MbPerSec(total, sw.ElapsedSeconds());
  sw.Reset();
  run_round(2);  // identical content: cached keys + full dedup
  result.second_mbps = MbPerSec(total, sw.ElapsedSeconds());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = HasFlag(argc, argv, "--full");
  bool smoke = HasFlag(argc, argv, "--smoke");
  std::size_t file_size = full ? (2ull << 30) : smoke ? (4ull << 20)
                                              : (64ull << 20);
  std::size_t agg_size = full ? (2ull << 30) : smoke ? (2ull << 20)
                                             : (16ull << 20);
  std::vector<std::size_t> chunk_kbs =
      smoke ? std::vector<std::size_t>{4, 8}
            : std::vector<std::size_t>{2, 4, 8, 16};
  std::vector<std::size_t> client_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  JsonReporter json("fig7_updown", argc, argv);
  std::printf("=== Figure 7 / Experiment A.3: upload & download ===\n");
  std::printf("file: %zu MB; link: 1 Gb/s simulated; key cache on, batch 256, "
              "2 threads\n\n", file_size >> 20);

  std::printf("--- Fig 7(a)+(b): speeds vs chunk size ---\n");
  Table t({"chunk_kb", "scheme", "upload1_mbps", "upload2_mbps", "down_mbps"});
  for (std::size_t kb : chunk_kbs) {
    for (aont::Scheme scheme : {aont::Scheme::kBasic, aont::Scheme::kEnhanced}) {
      UpDown r = MeasureUpDown(BenchClient(scheme, kb), kb, file_size);
      t.Row({Fmt("%.0f", static_cast<double>(kb)), aont::SchemeName(scheme),
             Fmt("%.1f", r.first_mbps), Fmt("%.1f", r.second_mbps),
             Fmt("%.1f", r.download_mbps)});
      json.Add(std::string("updown_") + aont::SchemeName(scheme),
               {{"chunk_kb", static_cast<double>(kb)},
                {"upload1_mbps", r.first_mbps},
                {"upload2_mbps", r.second_mbps},
                {"down_mbps", r.download_mbps}});
    }
  }

  std::printf("\n--- Pipelined data path: serial vs overlapped (enhanced, 8 KB) ---\n");
  // DESIGN.md §10: depth 1 is a window of one (encode and transfer
  // alternate); the overlapped config stripes 2 channels/server and keeps
  // depth-1 units on the wire while the next unit encodes. A slightly
  // larger file than the smoke default amortizes per-file fixed costs
  // (CP-ABE wrap, metadata) that neither mode can overlap.
  std::size_t pipe_size = full ? (2ull << 30) : smoke ? (16ull << 20)
                                              : (64ull << 20);
  Table t3({"depth", "channels", "upload1_mbps", "upload2_mbps", "down_mbps"});
  double serial_up2 = 0, piped_up2 = 0;
  for (std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
    std::size_t channels = depth == 1 ? 1 : 2;
    UpDown r = MeasureUpDown(
        BenchClient(aont::Scheme::kEnhanced, 8, depth, channels), 8, pipe_size);
    (depth == 1 ? serial_up2 : piped_up2) = r.second_mbps;
    t3.Row({Fmt("%.0f", static_cast<double>(depth)),
            Fmt("%.0f", static_cast<double>(channels)),
            Fmt("%.1f", r.first_mbps), Fmt("%.1f", r.second_mbps),
            Fmt("%.1f", r.download_mbps)});
    json.Add("pipeline", {{"depth", static_cast<double>(depth)},
                          {"upload1_mbps", r.first_mbps},
                          {"upload2_mbps", r.second_mbps},
                          {"down_mbps", r.download_mbps}});
  }
  std::printf("pipelined 2nd-upload speedup vs serial: %.2fx\n",
              serial_up2 > 0 ? piped_up2 / serial_up2 : 0.0);

  std::printf("\n--- Fig 7(c): aggregate upload speed vs #clients (enhanced, 8 KB) ---\n");
  Table t2({"clients", "upload1_mbps", "upload2_mbps"});
  for (std::size_t n : client_counts) {
    AggregateResult r = MeasureAggregate(n, agg_size);
    t2.Row({Fmt("%.0f", static_cast<double>(n)), Fmt("%.1f", r.first_mbps),
            Fmt("%.1f", r.second_mbps)});
    json.Add("aggregate", {{"clients", static_cast<double>(n)},
                           {"upload1_mbps", r.first_mbps},
                           {"upload2_mbps", r.second_mbps}});
  }

  std::printf("\npaper: 1st uploads 4-17 MB/s rising with chunk size;"
              " 2nd uploads/downloads ~107-108 MB/s (network-bound) at >=8 KB;"
              "\n       aggregate 2nd upload reaches 374.9 MB/s at 8 clients"
              " (multi-machine testbed).\n");
  return 0;
}
