// Epoll-based async RPC front end: the one TCP server of the tree. Both
// daemons (reed_serverd, reed_keymanagerd), the examples and the load
// generator serve through it (DESIGN.md §13).
//
// N event-loop threads each own an epoll instance; accepted fds are sharded
// across loops round-robin and every per-connection structure is touched by
// exactly one loop thread (loop-confined state — no per-connection locks).
// Edge-triggered readiness drives non-blocking reads into a per-connection
// frame-reassembly buffer; complete u32-length-prefixed frames (the same
// wire format TcpTransport speaks) are dispatched one at a time per
// connection onto the shared ThreadPool, so `StorageServer::HandleRequest`
// never runs on — and never blocks — an event loop. Responses come back to
// the owning loop through a completion queue + eventfd wakeup and drain
// through a bounded per-connection outbox (backpressure: a peer that stops
// reading accumulates queued bytes until the cap closes it, instead of
// wedging a server thread in write()).
//
// Per-tenant admission: a request may be wrapped in a tenant envelope
// (`kTenantTag` byte + u32 tenant id + inner frame); bare frames are tenant
// 0, so existing clients keep working unchanged. When a rate is configured,
// each tenant's TokenBucket (util/rate_limiter.h) is consulted in the loop
// thread *before* dispatch; a denied request is answered immediately with
// the protocol's status-1 error frame ("throttled...") and never occupies a
// worker. The tenant->bucket map lock (kNetTenantMap) is released before
// TryAcquire takes the bucket's own kRateLimiter lock, keeping the rank
// order intact.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/rpc.h"
#include "obs/metrics.h"
#include "util/rate_limiter.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace reed::net {

class AsyncServer {
 public:
  // Optional per-request tenant envelope marker. 0xE7 collides with no
  // Opcode (they are 1..6), so a tagged first byte is unambiguous.
  static constexpr std::uint8_t kTenantTag = 0xE7;

  struct Options {
    std::size_t loops = 1;    // event-loop threads
    std::size_t workers = 4;  // handler ThreadPool threads
    // Claimed frame length above this closes the connection (mirrors
    // TcpTransport::Receive's 1 GiB cap).
    std::uint32_t max_frame_len = 1u << 30;
    // Backpressure: queued-but-unwritten response bytes per connection.
    std::size_t max_outbox_bytes = std::size_t{1} << 30;
    // Connections with no read/write progress for this long are closed;
    // zero disables the sweep.
    std::chrono::milliseconds idle_timeout{0};
    int listen_backlog = 0;  // <= 0 means SOMAXCONN
    // Per-tenant admission rate; <= 0 disables throttling entirely.
    double tenant_rate_per_sec = 0;
    double tenant_burst = 0;
  };

  // Binds 127.0.0.1:port (0 = ephemeral) and starts the loops immediately.
  AsyncServer(std::uint16_t port, LocalChannel::Handler handler);
  AsyncServer(std::uint16_t port, LocalChannel::Handler handler,
              Options options);

  // Stops the loops, closes every connection, joins everything.
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Blocks until the loops exit (daemons call this from main()).
  void Wait();

  // Hands an already-connected fd (e.g. one end of a socketpair) to a loop.
  // The server takes ownership and serves frames on it exactly like an
  // accepted connection — the unit-test hook for driving the framing path
  // byte by byte.
  void Adopt(int fd);

  // Client-side helper: wrap `frame` in the tenant envelope.
  [[nodiscard]] static Bytes WrapTenant(std::uint32_t tenant_id,
                                        ByteSpan frame);

 private:
  // Loop-confined connection state: everything here is touched only by the
  // owning loop thread, so it needs no lock of its own.
  struct Conn {
    Conn(int fd_in, std::uint64_t id_in, obs::Gauge& active)
        : fd(fd_in), id(id_in), active_guard(active) {}
    int fd;
    std::uint64_t id;
    obs::GaugeGuard active_guard;  // server.net.active_conns
    Bytes inbox;                   // frame-reassembly buffer
    std::deque<Bytes> pending;     // complete frames awaiting dispatch
    bool dispatch_inflight = false;
    std::future<void> inflight;    // the worker task serving this conn
    Bytes outbox;                  // length-prefixed responses to write
    std::size_t outbox_off = 0;
    bool want_write = false;       // EPOLLOUT armed
    bool read_eof = false;
    bool closed = false;
    std::chrono::steady_clock::time_point last_activity;
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    Bytes response;
  };
  // Owns its epoll and event fds: the destructor closes them.
  struct Loop {
    Loop() = default;
    ~Loop();
    Loop(const Loop&) = delete;
    Loop& operator=(const Loop&) = delete;
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    // Cross-thread inbox for this loop: new fds (acceptor shard handoff,
    // Adopt) and handler completions. The loop swaps these out under the
    // lock and processes them lock-free.
    Mutex mu{LockRank::kNetAsyncLoop};
    std::vector<int> incoming_fds REED_GUARDED_BY(mu);
    std::vector<Completion> completions REED_GUARDED_BY(mu);
    // Loop-thread-only from here down.
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::vector<std::uint64_t> dead;  // deferred erases within one wakeup
    std::chrono::steady_clock::time_point last_idle_sweep;
  };

  void RunLoop(std::size_t index);
  void HandleAccept(Loop& loop);
  void AdoptIntoLoop(std::size_t index, int fd);
  void RegisterConn(Loop& loop, int fd);
  void ProcessIncoming(Loop& loop);
  void ProcessCompletions(Loop& loop);
  void DrainReadable(Loop& loop, Conn& conn);
  void ParseFrames(Loop& loop, Conn& conn);
  void MaybeDispatch(Loop& loop, Conn& conn);
  void EnqueueResponse(Loop& loop, Conn& conn, ByteSpan frame);
  void FlushOutbox(Loop& loop, Conn& conn);
  void MaybeClose(Loop& loop, Conn& conn);
  void CloseConn(Loop& loop, Conn& conn);
  void SweepIdle(Loop& loop);
  void WakeLoop(Loop& loop);
  [[nodiscard]] bool AdmitTenant(std::uint32_t tenant_id);
  [[nodiscard]] double NowSeconds() const;

  LocalChannel::Handler handler_;
  Options options_;
  std::unique_ptr<TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::size_t> next_loop_{0};
  std::chrono::steady_clock::time_point start_time_;

  Mutex tenant_mu_{LockRank::kNetTenantMap};
  // Node-based map: bucket addresses are stable, so AdmitTenant can drop
  // tenant_mu_ before taking the bucket's own (lower-band) lock.
  std::map<std::uint32_t, std::unique_ptr<TokenBucket>> tenants_
      REED_GUARDED_BY(tenant_mu_);
};

}  // namespace reed::net
