// Cold-restart / recovery-time series for the durable store (DESIGN.md
// §12) — not a paper figure: REED's testbed never measures restart cost,
// but the durable engine makes recovery a first-class path, so this bench
// pins its two regimes:
//
// (a) WAL-replay restart: the server is killed with a full WAL tail (no
//     checkpoint), so reopening rebuilds the fingerprint index and object
//     stores by scanning segments and replaying every WAL record.
// (b) post-checkpoint restart: Close() checkpointed the metadata plane, so
//     reopening loads index.ckpt and replays nothing.
//
// The series sweeps ingested-chunk counts so the replay cost's linear
// growth (and the checkpoint restart's flatness) show up as shapes
// bench_compare.py can gate.
//
//   ./bench_recovery [--full|--smoke] [--json out.json]
#include <filesystem>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "server/storage_server.h"
#include "util/stopwatch.h"

using namespace reed;
using namespace reed::bench;

namespace {

server::StorageServer::Options DurableOptions(const std::string& dir) {
  server::StorageServer::Options opts;
  opts.data_dir = dir;
  // Page-cache-speed appends: this bench times the *recovery scan*, not
  // the ingest fsyncs, and the store it reopens is exactly as durable.
  opts.durability.fsync_policy = store::FsyncPolicy::kNone;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = HasFlag(argc, argv, "--full");
  bool smoke = HasFlag(argc, argv, "--smoke");
  JsonReporter json("recovery", argc, argv);

  const std::size_t chunk_size = 4096;
  const std::size_t batch = 64;
  std::vector<std::size_t> points =
      full ? std::vector<std::size_t>{4096, 8192, 16384, 32768}
      : smoke ? std::vector<std::size_t>{512, 1024, 2048}
              : std::vector<std::size_t>{1024, 2048, 4096, 8192};

  std::printf("=== Durable-store recovery: cold-restart time ===\n");
  std::printf("%zu B chunks ingested in batches of %zu; WAL-replay restart"
              " vs post-checkpoint restart\n\n",
              chunk_size, batch);

  const std::string base =
      (std::filesystem::temp_directory_path() / "reed_bench_recovery")
          .string();

  Table t({"chunks", "ingest_mb", "replay_ms", "replayed_recs", "ckpt_ms"});
  for (std::size_t n : points) {
    const std::string dir = base + "_" + std::to_string(n);
    std::filesystem::remove_all(dir);
    {
      server::StorageServer server("bench-recovery", DurableOptions(dir));
      std::vector<Bytes> payloads;
      std::vector<std::pair<chunk::Fingerprint, ByteSpan>> chunks;
      for (std::size_t i = 0; i < n; ++i) {
        payloads.push_back(UniqueData(chunk_size, 0x9e3779b9 + i));
        if (payloads.size() == batch || i + 1 == n) {
          for (const Bytes& data : payloads) {
            chunks.emplace_back(chunk::Fingerprint::Of(data), data);
          }
          const auto result = server.PutChunks(chunks);
          (void)result;
          // A recipe object per batch so the metadata plane has both
          // index records and object records to replay, like a real run.
          server.PutObject(server::StoreId::kData,
                           "recipe/batch-" + std::to_string(i / batch),
                           Bytes(128, 0x5A));
          chunks.clear();
          payloads.clear();
        }
      }

      // (a) Restart with the full WAL tail: no checkpoint has happened, so
      // everything ingested above replays.
      Stopwatch replay;
      server.Reopen();
      const double replay_ms = replay.ElapsedMillis();
      const auto stats = server.RecoveryStats();

      // (b) Checkpoint, then restart: the reopen loads index.ckpt and
      // replays an empty WAL.
      server.Close();
      Stopwatch ckpt;
      server.Reopen();
      const double ckpt_ms = ckpt.ElapsedMillis();

      const std::uint64_t ingest_bytes =
          static_cast<std::uint64_t>(n) * chunk_size;
      t.Row({Fmt("%.0f", AsDouble(n)), Fmt("%.2f", ToMiB(ingest_bytes)),
             Fmt("%.2f", replay_ms), Fmt("%.0f", AsDouble(stats.replayed_records)),
             Fmt("%.2f", ckpt_ms)});
      json.Add("restart_time",
               {{"chunks", AsDouble(n)},
                {"replay_ms", replay_ms},
                {"replayed_records", AsDouble(stats.replayed_records)},
                {"checkpoint_restart_ms", ckpt_ms}});
    }
    std::filesystem::remove_all(dir);
  }

  std::printf("\nWAL replay grows linearly with the un-checkpointed tail;"
              " the post-checkpoint restart stays flat — checkpoint cadence"
              " is the knob trading ingest-path work for restart time.\n");
  return 0;
}
