// Network substrate tests: wire codecs, simulated link timing, RPC
// channels, and real TCP framing over loopback.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/async_server.h"
#include "net/link.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "util/stopwatch.h"

namespace reed::net {
namespace {

TEST(WireTest, RoundTripAllFieldTypes) {
  Writer w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFULL);
  w.Blob(ToBytes("payload"));
  w.Str("name");
  w.Raw(ToBytes("raw"));
  Bytes msg = w.Take();

  Reader r(msg);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.Blob(), ToBytes("payload"));
  EXPECT_EQ(r.Str(), "name");
  ByteSpan raw = r.RawView(3);
  EXPECT_EQ(Bytes(raw.begin(), raw.end()), ToBytes("raw"));
  EXPECT_TRUE(r.AtEnd());
  r.ExpectEnd();
}

TEST(WireTest, TruncatedReadsThrow) {
  Writer w;
  w.U32(100);  // length prefix promising 100 bytes
  Bytes msg = w.Take();
  Reader r(msg);
  EXPECT_THROW(r.Blob(), Error);

  Reader r2(msg);
  (void)r2.U32();
  EXPECT_THROW(DiscardResult(r2.U8()), Error);
}

TEST(WireTest, BlobTooLargeThrowsInsteadOfTruncating) {
  // The u32 length prefix caps a blob at UINT32_MAX bytes. The old code
  // silently cast, producing a frame whose prefix disagreed with its body;
  // now the boundary is a hard error. CheckBlobSize is static so the limit
  // is testable without allocating a 4GB payload.
  Writer::CheckBlobSize(0);
  Writer::CheckBlobSize(UINT32_MAX);
  EXPECT_THROW(Writer::CheckBlobSize(static_cast<std::size_t>(UINT32_MAX) + 1),
               Error);
  EXPECT_THROW(Writer::CheckBlobSize(SIZE_MAX), Error);
}

TEST(WireTest, ExpectEndCatchesTrailingBytes) {
  Writer w;
  w.U8(1);
  w.U8(2);
  Bytes msg = w.Take();
  Reader r(msg);
  (void)r.U8();
  EXPECT_THROW(r.ExpectEnd(), Error);
}

TEST(SimulatedLinkTest, UnlimitedLinkIsFree) {
  SimulatedLink link = SimulatedLink::Unlimited();
  Stopwatch sw;
  link.Transfer(100 << 20);
  EXPECT_LT(sw.ElapsedSeconds(), 0.05);
  EXPECT_EQ(link.total_bytes(), 100u << 20);
}

TEST(SimulatedLinkTest, BandwidthPacesTransfers) {
  // 100 Mb/s link: 1.25 MB should take ~100 ms.
  SimulatedLink link(100e6, 0);
  Stopwatch sw;
  link.Transfer(1'250'000);
  double elapsed = sw.ElapsedSeconds();
  EXPECT_GT(elapsed, 0.08);
  EXPECT_LT(elapsed, 0.25);
}

TEST(SimulatedLinkTest, ConcurrentSendersShareBandwidth) {
  // Two threads each sending 0.625 MB over 100 Mb/s: the shared medium
  // serializes them, so total time ~100 ms (not ~50 ms).
  SimulatedLink link(100e6, 0);
  Stopwatch sw;
  std::thread t1([&] { link.Transfer(625'000); });
  std::thread t2([&] { link.Transfer(625'000); });
  t1.join();
  t2.join();
  double elapsed = sw.ElapsedSeconds();
  EXPECT_GT(elapsed, 0.08);
}

TEST(RpcChannelTest, LocalChannelWithAndWithoutLink) {
  auto echo = [](ByteSpan req) {
    Bytes resp = ToBytes("echo:");
    Append(resp, req);
    return resp;
  };
  // No link: a direct call.
  LocalChannel direct(echo);
  EXPECT_EQ(direct.Call(ToBytes("hi")), ToBytes("echo:hi"));

  // A link charges the request and the response.
  auto link = std::make_shared<SimulatedLink>(0, 0);  // accounting only
  LocalChannel linked(echo, link);
  EXPECT_EQ(linked.Call(Bytes(50, 0)).size(), 55u);
  EXPECT_EQ(link->total_bytes(), 105u);
}

TEST(TcpTest, FramedEchoOverLoopback) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpTransport conn = listener.Accept();
    // Echo frames until the client closes (Receive then throws).
    try {
      for (;;) {
        Bytes resp = ToBytes("ok:");
        Append(resp, conn.Receive());
        conn.Send(resp);
      }
    } catch (const NetError&) {
    }
  });

  {
    TcpTransport client = TcpTransport::Connect("127.0.0.1", listener.port());
    TcpChannel channel(std::move(client));
    EXPECT_EQ(channel.Call(ToBytes("ping")), ToBytes("ok:ping"));
    // Large frame crosses multiple TCP segments.
    Bytes big(1 << 20, 0x42);
    Bytes resp = channel.Call(big);
    EXPECT_EQ(resp.size(), big.size() + 3);
  }  // closing the client ends the server loop
  server.join();
}

TEST(AsyncServerTcpTest, ServesMultipleConcurrentClients) {
  AsyncServer server(0, [](ByteSpan req) {
    Bytes resp = ToBytes("srv:");
    Append(resp, req);
    return resp;
  });
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      TcpChannel channel(TcpTransport::Connect("127.0.0.1", server.port()));
      for (int i = 0; i < 10; ++i) {
        Bytes req = ToBytes("c" + std::to_string(c) + "-" + std::to_string(i));
        Bytes want = ToBytes("srv:");
        Append(want, req);
        if (channel.Call(req) == want) ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), 40);
}

TEST(AsyncServerTcpTest, DestructorStopsAcceptor) {
  std::uint16_t port;
  {
    AsyncServer server(0,
                       [](ByteSpan req) { return Bytes(req.begin(), req.end()); });
    port = server.port();
  }
  // After destruction the port no longer accepts connections.
  EXPECT_THROW(TcpTransport::Connect("127.0.0.1", port), NetError);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }
  EXPECT_THROW(TcpTransport::Connect("127.0.0.1", dead_port), NetError);
  EXPECT_THROW(TcpTransport::Connect("not-an-ip", 1), NetError);
}

}  // namespace
}  // namespace reed::net
