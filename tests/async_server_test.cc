// AsyncServer unit + stress tests (DESIGN.md §13).
//
// The framing tests drive the epoll front end through one end of a
// socketpair handed over via Adopt(): feeding the wire byte by byte, tearing
// frames mid-prefix, and pipelining back-to-back requests exercises the
// frame-reassembly buffer and the serial per-connection dispatch without any
// TCP nondeterminism. The behavioural tests (backpressure, idle sweep,
// tenant admission, slow readers) go over real loopback TCP because they
// depend on socket-buffer dynamics. The stress test runs the same
// deterministic client tapes through direct LocalChannel calls and through
// an AsyncServer, each backed by its own StorageServer, and requires
// byte-identical transcripts plus equal package digests — the async front
// end must be a pure transport.

#include "net/async_server.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chunk/fingerprint.h"
#include "gtest/gtest.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "server/storage_server.h"
#include "util/bytes.h"

namespace reed::net {
namespace {

using server::Opcode;
using server::StorageServer;
using server::StoreId;

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

// --- raw-fd helpers for the socketpair tests ---

void WriteAllFd(int fd, ByteSpan data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    ASSERT_GT(n, 0) << "write failed: " << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

// Reads exactly n bytes; fails the test on EOF/error.
Bytes ReadExactFd(int fd, std::size_t n) {
  Bytes out(n);
  std::size_t off = 0;
  while (off < n) {
    ssize_t got = ::read(fd, out.data() + off, n - off);
    if (got <= 0) {
      ADD_FAILURE() << "read: " << (got == 0 ? "EOF" : std::strerror(errno))
                    << " after " << off << "/" << n << " bytes";
      return out;
    }
    off += static_cast<std::size_t>(got);
  }
  return out;
}

Bytes FrameBytes(ByteSpan payload) {
  Bytes wire;
  AppendU32(wire, static_cast<std::uint32_t>(payload.size()));
  Append(wire, payload);
  return wire;
}

Bytes ReadFrameFd(int fd) {
  Bytes prefix = ReadExactFd(fd, 4);
  if (prefix.size() != 4) return {};
  return ReadExactFd(fd, GetU32(prefix));
}

// Waits (bounded) for an fd to hit EOF, discarding any pending bytes.
bool WaitForEof(int fd) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::array<char, 4096> buf;
  while (std::chrono::steady_clock::now() < deadline) {
    ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n == 0) return true;
    if (n < 0 && errno != EINTR && errno != EAGAIN) return true;  // reset
  }
  return false;
}

bool WaitForGaugeZero(const char* name) {
  obs::Gauge& g = obs::Registry::Global().GetGauge(name);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (g.value() == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

Bytes EchoHandler(ByteSpan request) {
  return Bytes(request.begin(), request.end());
}

// --- framing over a socketpair ---

TEST(AsyncServerTest, OneByteAtATimeFraming) {
  AsyncServer server(0, EchoHandler);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  server.Adopt(sv[0]);

  Bytes payload = ToBytes("hello async frame reassembly");
  Bytes wire = FrameBytes(payload);
  // Worst-case fragmentation: every length-prefix byte and payload byte
  // arrives in its own read() wakeup.
  for (std::uint8_t b : wire) {
    WriteAllFd(sv[1], ByteSpan(&b, 1));
  }
  EXPECT_EQ(ReadFrameFd(sv[1]), payload);
  ::close(sv[1]);
}

TEST(AsyncServerTest, PipelinedFramesAnsweredInOrder) {
  AsyncServer server(0, EchoHandler);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  server.Adopt(sv[0]);

  // Three frames in a single write: dispatch is serial per connection, so
  // the responses must come back complete and in order.
  std::vector<Bytes> payloads = {ToBytes("first"), ToBytes("second-longer"),
                                 ToBytes("3")};
  Bytes wire;
  for (const Bytes& p : payloads) Append(wire, FrameBytes(p));
  WriteAllFd(sv[1], wire);
  for (const Bytes& p : payloads) {
    EXPECT_EQ(ReadFrameFd(sv[1]), p);
  }
  ::close(sv[1]);
}

TEST(AsyncServerTest, TornFrameNeverDispatches) {
  std::uint64_t dispatched_before = CounterValue("server.net.frames_dispatched");
  {
    AsyncServer server(0, EchoHandler);
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.Adopt(sv[0]);

    // A frame that claims 100 bytes but delivers 10, then half-close: the
    // server must discard the partial frame and close without dispatching.
    Bytes wire;
    AppendU32(wire, 100);
    Bytes partial(10, 0xAB);
    Append(wire, partial);
    WriteAllFd(sv[1], wire);
    ::shutdown(sv[1], SHUT_WR);
    EXPECT_TRUE(WaitForEof(sv[1]));
    ::close(sv[1]);
    EXPECT_TRUE(WaitForGaugeZero("server.net.active_conns"));
  }
  EXPECT_EQ(CounterValue("server.net.frames_dispatched"), dispatched_before);
}

TEST(AsyncServerTest, OversizedFrameClosesConnection) {
  std::uint64_t oversize_before = CounterValue("server.net.frame_oversize");
  AsyncServer::Options options;
  options.max_frame_len = 1024;
  AsyncServer server(0, EchoHandler, options);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  server.Adopt(sv[0]);

  Bytes wire;
  AppendU32(wire, 4096);  // over the configured cap; never sent in full
  WriteAllFd(sv[1], wire);
  EXPECT_TRUE(WaitForEof(sv[1]));
  ::close(sv[1]);
  EXPECT_GE(CounterValue("server.net.frame_oversize"), oversize_before + 1);
}

// A forged blob length *inside* a small frame must be rejected by the
// handler's net::Reader sanity cap and come back as an in-protocol error
// response — the transport stays healthy.
TEST(AsyncServerTest, OversizedBlobRejectedByReaderCap) {
  StorageServer storage("async-blob-cap");
  AsyncServer server(
      0, [&](ByteSpan request) { return storage.HandleRequest(request); });

  auto channel = TcpChannel(TcpTransport::Connect("127.0.0.1", server.port()));
  Writer forged;
  forged.U8(static_cast<std::uint8_t>(Opcode::kPutObject));
  forged.U8(static_cast<std::uint8_t>(StoreId::kData));
  forged.Str("victim");
  forged.U32(300u << 20);  // claims a 300 MiB blob; no payload follows
  Bytes response = channel.Call(forged.bytes());

  Reader reader(response);
  EXPECT_EQ(reader.U8(), 1);  // status: error
  EXPECT_NE(reader.Str().find("sanity cap"), std::string::npos);

  // The connection survives the bad request: a well-formed exchange works.
  Writer ok;
  ok.U8(static_cast<std::uint8_t>(Opcode::kPutObject));
  ok.U8(static_cast<std::uint8_t>(StoreId::kData));
  ok.Str("victim");
  ok.Blob(ToBytes("payload"));
  Bytes ok_response = channel.Call(ok.bytes());
  Reader ok_reader(ok_response);
  EXPECT_EQ(ok_reader.U8(), 0);
}

// An 8 MiB response cannot fit the loopback socket buffers while the client
// sleeps, so the flush must park on EPOLLOUT and resume when the client
// finally drains — the payload still arrives bit-exact.
TEST(AsyncServerTest, SlowReaderDrivesPartialWrites) {
  AsyncServer server(0, EchoHandler);
  Bytes big(8u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }

  TcpTransport transport = TcpTransport::Connect("127.0.0.1", server.port());
  transport.Send(big);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(transport.Receive(), big);
  EXPECT_TRUE(WaitForGaugeZero("server.net.outbox_bytes"));
}

TEST(AsyncServerTest, OutboxOverflowClosesConnection) {
  std::uint64_t overflow_before = CounterValue("server.net.outbox_overflow");
  AsyncServer::Options options;
  options.max_outbox_bytes = 1024;
  AsyncServer server(0, EchoHandler, options);

  TcpTransport transport = TcpTransport::Connect("127.0.0.1", server.port());
  // 64 KiB response against a 1 KiB outbox cap: the client not reading
  // can't wedge the loop — the connection is closed instead.
  Bytes big(64u << 10, 0x5C);
  transport.Send(big);
  EXPECT_THROW((void)transport.Receive(), NetError);
  EXPECT_GE(CounterValue("server.net.outbox_overflow"), overflow_before + 1);
  EXPECT_TRUE(WaitForGaugeZero("server.net.outbox_bytes"));
}

TEST(AsyncServerTest, IdleConnectionsAreSweptOut) {
  std::uint64_t idle_before = CounterValue("server.net.idle_closed");
  AsyncServer::Options options;
  options.idle_timeout = std::chrono::milliseconds(50);
  AsyncServer server(0, EchoHandler, options);

  TcpTransport transport = TcpTransport::Connect("127.0.0.1", server.port());
  Bytes ping = ToBytes("ping");
  transport.Send(ping);
  EXPECT_EQ(transport.Receive(), ping);  // activity resets the idle clock
  // Then go quiet for several timeouts: the sweep must close us.
  EXPECT_THROW((void)transport.Receive(), NetError);
  EXPECT_GE(CounterValue("server.net.idle_closed"), idle_before + 1);
}

TEST(AsyncServerTest, TenantAdmissionThrottlesPerTenant) {
  std::uint64_t throttled_before = CounterValue("server.net.throttled");
  AsyncServer::Options options;
  // Effectively no refill within the test: one burst token per tenant.
  options.tenant_rate_per_sec = 0.001;
  options.tenant_burst = 1;
  AsyncServer server(0, EchoHandler, options);

  auto channel = TcpChannel(TcpTransport::Connect("127.0.0.1", server.port()));
  Bytes payload = ToBytes("metered");
  Bytes wrapped1 = AsyncServer::WrapTenant(7, payload);

  // Tenant 7's burst token admits the first request (and the envelope is
  // stripped before the handler sees it)...
  EXPECT_EQ(channel.Call(wrapped1), payload);
  // ...the second is rejected in-protocol without reaching a worker.
  Bytes denied_response = channel.Call(wrapped1);
  Reader denied(denied_response);
  EXPECT_EQ(denied.U8(), 1);
  EXPECT_NE(denied.Str().find("throttled"), std::string::npos);
  // Tenant 9 has its own bucket; so does the bare-frame tenant 0.
  EXPECT_EQ(channel.Call(AsyncServer::WrapTenant(9, payload)), payload);
  EXPECT_EQ(channel.Call(payload), payload);

  EXPECT_GE(CounterValue("server.net.throttled"), throttled_before + 1);
}

// --- construction failure ---

// Open fds of this process. The directory handle used for the listing is
// closed again by the time the caller looks, so it is filtered out.
std::vector<int> OpenFds() {
  std::vector<int> listed;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    listed.push_back(std::stoi(entry.path().filename().string()));
  }
  std::vector<int> open;
  for (int fd : listed) {
    if (::fcntl(fd, F_GETFD) != -1) open.push_back(fd);
  }
  return open;
}

TEST(AsyncServerTest, FailedConstructionLeaksNoFds) {
  // The constructor opens the listener, then two fds (epoll + eventfd) per
  // loop. New fds take the lowest free numbers, so capping RLIMIT_NOFILE at
  // the 7th free number lets the listener and loops 0-1 build, gives loop 2
  // its epoll fd, and fails loop 2's eventfd: loop 3 of 8 fails mid-build.
  const std::vector<int> before = OpenFds();
  const std::set<int> used(before.begin(), before.end());
  int free_seen = 0;
  int cap = 0;
  for (int fd = 0; free_seen < 7; ++fd) {
    if (!used.contains(fd)) {
      ++free_seen;
      cap = fd;
    }
  }
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(cap);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  AsyncServer::Options options;
  options.loops = 8;
  options.workers = 1;
  bool threw = false;
  try {
    AsyncServer server(0, EchoHandler, options);
  } catch (const NetError& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("eventfd"), std::string::npos)
        << e.what();
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_TRUE(threw);
  EXPECT_EQ(OpenFds().size(), before.size());
}

// --- differential stress: async front end vs direct handler calls ---
//
// Runs under TSan in the concurrency lane (tests/CMakeLists.txt widens its
// budget there): many client threads, two StorageServers, one reached by
// direct calls and one over sockets through the AsyncServer. Each client
// replays a deterministic op tape and records every response; the
// transcripts and the final package digests must match exactly.

Bytes ClientChunk(unsigned client, unsigned i, unsigned j) {
  Bytes data = ToBytes("chunk-c" + std::to_string(client) + "-i" +
                       std::to_string(i) + "-j" + std::to_string(j));
  data.resize(256, static_cast<std::uint8_t>(client * 31 + j));
  return data;
}

// One client's scripted session over `channel`; returns every response
// frame in order. Shared chunks (same bytes from every client) race the
// dedup path, so their PutChunks *responses* are schedule-dependent and are
// deliberately not recorded — the GetChunks payloads that follow are.
std::vector<Bytes> RunClientTape(RpcChannel& channel, unsigned client) {
  std::vector<Bytes> transcript;
  for (unsigned i = 0; i < 8; ++i) {
    // Private object: put, then read back.
    std::string name = "c" + std::to_string(client) + "-obj" + std::to_string(i);
    Bytes value = ToBytes("value-" + name);
    Writer put;
    put.U8(static_cast<std::uint8_t>(Opcode::kPutObject));
    put.U8(static_cast<std::uint8_t>(StoreId::kData));
    put.Str(name);
    put.Blob(value);
    transcript.push_back(channel.Call(put.bytes()));

    Writer get;
    get.U8(static_cast<std::uint8_t>(Opcode::kGetObject));
    get.U8(static_cast<std::uint8_t>(StoreId::kData));
    get.Str(name);
    transcript.push_back(channel.Call(get.bytes()));

    // Chunk batch: two private chunks plus one shared across all clients.
    std::vector<Bytes> chunks = {ClientChunk(client, i, 0),
                                 ClientChunk(client, i, 1),
                                 ClientChunk(~0u, i, 2)};
    Writer put_chunks;
    put_chunks.U8(static_cast<std::uint8_t>(Opcode::kPutChunks));
    put_chunks.U32(static_cast<std::uint32_t>(chunks.size()));
    for (const Bytes& c : chunks) {
      put_chunks.Raw(chunk::Fingerprint::Of(c).AsSpan());
      put_chunks.Blob(c);
    }
    // Dedup counts for the shared chunk depend on thread schedule: check
    // status only, don't transcript the body.
    Bytes put_chunks_response = channel.Call(put_chunks.bytes());
    Reader put_reader(put_chunks_response);
    EXPECT_EQ(put_reader.U8(), 0);

    Writer get_chunks;
    get_chunks.U8(static_cast<std::uint8_t>(Opcode::kGetChunks));
    get_chunks.U32(static_cast<std::uint32_t>(chunks.size()));
    for (const Bytes& c : chunks) {
      get_chunks.Raw(chunk::Fingerprint::Of(c).AsSpan());
    }
    transcript.push_back(channel.Call(get_chunks.bytes()));
  }
  return transcript;
}

// Runs every client tape concurrently, each over its own channel.
std::vector<std::vector<Bytes>> RunAllClients(
    unsigned clients,
    const std::function<std::unique_ptr<RpcChannel>()>& connect) {
  std::vector<std::vector<Bytes>> transcripts(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<RpcChannel> channel = connect();
      transcripts[c] = RunClientTape(*channel, c);
    });
  }
  for (std::thread& t : threads) t.join();
  return transcripts;
}

TEST(AsyncServerStressTest, ByteIdenticalWithDirectHandler) {
  constexpr unsigned kClients = 8;

  StorageServer direct_storage("stress-direct");
  auto direct = RunAllClients(kClients, [&] {
    return std::make_unique<LocalChannel>([&](ByteSpan request) {
      return direct_storage.HandleRequest(request);
    });
  });

  StorageServer async_storage("stress-async");
  AsyncServer::Options options;
  options.loops = 2;
  options.workers = 4;
  AsyncServer async_server(
      0, [&](ByteSpan request) { return async_storage.HandleRequest(request); },
      options);
  auto async = RunAllClients(kClients, [&] {
    return std::make_unique<TcpChannel>(
        TcpTransport::Connect("127.0.0.1", async_server.port()));
  });

  ASSERT_EQ(direct.size(), async.size());
  for (unsigned c = 0; c < kClients; ++c) {
    ASSERT_EQ(direct[c].size(), async[c].size()) << "client " << c;
    for (std::size_t i = 0; i < direct[c].size(); ++i) {
      EXPECT_EQ(direct[c][i], async[c][i]) << "client " << c << " op " << i;
    }
  }
  EXPECT_EQ(direct_storage.PackageDigest(), async_storage.PackageDigest());
  EXPECT_TRUE(direct_storage.CheckConsistency().ok);
  EXPECT_TRUE(async_storage.CheckConsistency().ok);
}

}  // namespace
}  // namespace reed::net
