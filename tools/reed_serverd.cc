// reed_serverd — a REED storage server (dedup + object stores) as a
// standalone TCP daemon. Run several for a data-server cluster plus one
// more as the key-store server.
//
//   reed_serverd --port 7101 --name data-0 [--seek-ms 0]
//       [--data-dir /var/reed/data-0 --fsync grouped --commit-window-us 500]
//       [--loops 2 --workers 4 --idle-timeout-ms 0
//        --tenant-rate 0 --tenant-burst 0]
//
// --data-dir names the store directory (DESIGN.md §12): startup recovers
// from whatever it holds. Without it the store lives in a scratch directory
// that is removed at exit (SIGINT or SIGTERM), so nothing outlives the
// daemon. --fsync picks the crash contract: none (process crashes only),
// grouped (machine crashes, batched fsync), always.
// Requests are served by the epoll front end (DESIGN.md §13) with --loops
// event loops and --workers handler threads; --tenant-rate enables
// per-tenant token-bucket admission (requests carrying the tenant envelope;
// 0 = off).
#include <pthread.h>

#include <chrono>
#include <csignal>
#include <cstdio>

#include "net/async_server.h"
#include "server/storage_server.h"
#include "tools/cli_util.h"

using namespace reed;

static store::FsyncPolicy ParseFsyncPolicy(const std::string& name) {
  if (name == "none") return store::FsyncPolicy::kNone;
  if (name == "grouped") return store::FsyncPolicy::kGrouped;
  if (name == "always") return store::FsyncPolicy::kAlways;
  throw Error("reed_serverd: unknown --fsync policy '" + name +
              "' (want none|grouped|always)");
}

int main(int argc, char** argv) {
  // SIGINT/SIGTERM end the daemon by returning from main, so the server is
  // torn down and a scratch store directory removed. Blocked before any
  // thread starts, so every thread inherits the mask and main takes them.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  try {
    cli::Args args(argc, argv);
    std::uint16_t port =
        static_cast<std::uint16_t>(args.GetInt("port", 7101));
    server::StorageServer::Options opts;
    opts.read_seek_seconds =
        static_cast<double>(args.GetInt("seek-ms", 0)) / 1000.0;
    opts.data_dir = args.Get("data-dir", "");
    opts.durability.fsync_policy =
        ParseFsyncPolicy(args.Get("fsync", "grouped"));
    opts.durability.group_commit_window =
        std::chrono::microseconds(args.GetInt("commit-window-us", 500));
    server::StorageServer storage(args.Get("name", "server"), opts);
    auto rs = storage.RecoveryStats();
    std::printf(
        "reed_serverd recovered %llu records (%llu torn bytes dropped, "
        "%llu sealed segments)\n",
        static_cast<unsigned long long>(rs.replayed_records),
        static_cast<unsigned long long>(rs.discarded_tail),
        static_cast<unsigned long long>(rs.segments_sealed));

    auto handler = [&storage](ByteSpan req) {
      return storage.HandleRequest(req);
    };
    net::AsyncServer::Options net_opts;
    net_opts.loops = static_cast<std::size_t>(args.GetInt("loops", 2));
    net_opts.workers = static_cast<std::size_t>(args.GetInt("workers", 4));
    net_opts.idle_timeout =
        std::chrono::milliseconds(args.GetInt("idle-timeout-ms", 0));
    net_opts.tenant_rate_per_sec =
        static_cast<double>(args.GetInt("tenant-rate", 0));
    net_opts.tenant_burst = static_cast<double>(args.GetInt("tenant-burst", 0));
    net::AsyncServer server(port, handler, net_opts);
    std::printf(
        "reed_serverd '%s' listening on 127.0.0.1:%u (%zu loops, %zu workers)\n",
        storage.name().c_str(), server.port(), net_opts.loops,
        net_opts.workers);
    std::fflush(stdout);
    int signal = 0;
    sigwait(&stop_signals, &signal);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "reed_serverd: %s\n", e.what());
    return 1;
  }
}
