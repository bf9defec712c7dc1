// Failure-path sweep (DESIGN.md §8): for every REED_FAULT_POINT site in the
// tree (tests/fault_sweep_manifest.h), arm the site, run the full drive
// (upload → duplicate upload → download → rekey) until the injected fault
// unwinds it, and assert the four properties every failure path must hold:
//
//   1. the failure surfaces at the client API as a typed reed::Error whose
//      message names the fault site (no swallowed or re-branded errors);
//   2. no in-flight gauge leaks past the unwind (client.net.inflight_rpcs,
//      client.pipeline.inflight_batches return to zero);
//   3. every server's dedup state stays consistent — no orphaned container
//      bytes, no dangling index entries (StorageServer::CheckConsistency) —
//      and stays so, with every earlier file intact, after every server
//      restarts from its logs;
//   4. an immediate disarmed retry of the same drive, on the restarted
//      servers, succeeds and round-trips the file byte-identically.
//
// The sweep runs twice over the one upload pipeline — a window of one
// (depth 1: each batch stored before the next keygen) and an overlapped
// window (depth 3, striped channels) — because the two settings unwind
// with different amounts of work in flight when a fault fires.
// A clean drive first checks coverage: the drive must traverse every
// manifest site, and must traverse no site missing from the manifest.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "core/reed_system.h"
#include "crypto/random.h"
#include "net/async_server.h"
#include "obs/metrics.h"
#include "fault_sweep_manifest.h"
#include "server/storage_server.h"
#include "util/fault_inject.h"

#if !defined(REED_FAULT_INJECT)

TEST(FaultSweepTest, RequiresFaultBuild) {
  GTEST_SKIP() << "fault-injection sites are compiled out; configure with "
                  "-DREED_FAULT_INJECT=ON (tools/ci/check.sh faults)";
}

#else

namespace reed {
namespace {

using client::ClientOptions;
using client::ReedClient;
using client::RevocationMode;
using core::ReedSystem;
using core::SystemOptions;
using crypto::DeterministicRng;

SystemOptions SweepSystemOptions() {
  SystemOptions opts;
  opts.key_manager.rsa_bits = 512;
  opts.derivation_key_bits = 512;
  opts.num_data_servers = 4;
  // Simulated network on (so net.rpc.call / net.link.transfer are on-path)
  // at a bandwidth high enough that modeled transfer delays are negligible.
  opts.bandwidth_bps = 1e12;
  opts.rtt_seconds = 0;
  opts.rng_seed = 20160628;
  return opts;
}

ClientOptions SweepClientOptions(std::size_t depth) {
  ClientOptions opts;
  opts.avg_chunk_size = 4096;
  opts.encryption_threads = 2;
  // Small key-manager batches (one per upload unit) force several pipeline
  // iterations on small test files.
  opts.key_options.batch_size = 4;
  opts.pipeline.depth = depth;
  opts.pipeline.channels_per_server = depth > 1 ? 2 : 1;
  opts.rng_seed = 7;
  return opts;
}

Bytes TestFile(std::size_t size, std::uint64_t seed) {
  DeterministicRng rng(seed);
  return rng.Generate(size);
}

// The full drive: upload, duplicate upload, download (returned), rekey.
Bytes RunDrive(ReedClient& client, const std::string& fid, const Bytes& data) {
  (void)client.Upload(fid, data, {"alice"});
  (void)client.Upload(fid, data, {"alice"});
  Bytes out = client.Download(fid);
  (void)client.Rekey(fid, {"alice"}, RevocationMode::kActive);
  return out;
}

// Runs the drive phases in order until one throws; returns the error
// message, or "" if every phase completed despite the armed fault.
std::string DriveUntilFault(ReedClient& client, const std::string& fid,
                            const Bytes& data) {
  try {
    (void)client.Upload(fid, data, {"alice"});
    (void)client.Upload(fid, data, {"alice"});
    (void)client.Download(fid);
    (void)client.Rekey(fid, {"alice"}, RevocationMode::kActive);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

void ExpectGaugesDrained() {
  auto& reg = obs::Registry::Global();
  EXPECT_EQ(reg.GetGauge("client.net.inflight_rpcs").value(), 0);
  EXPECT_EQ(reg.GetGauge("client.pipeline.inflight_batches").value(), 0);
}

void ExpectClusterConsistent(ReedSystem& system) {
  for (std::size_t s = 0; s < system.data_server_count(); ++s) {
    auto report = system.data_server(s).CheckConsistency();
    EXPECT_TRUE(report.ok)
        << system.data_server(s).name() << ": " << report.detail;
  }
  auto key_report = system.key_server().CheckConsistency();
  EXPECT_TRUE(key_report.ok) << "key server: " << key_report.detail;
}

void RunSweep(std::size_t depth) {
  ReedSystem system(SweepSystemOptions());
  system.RegisterUser("alice");
  auto client = system.CreateClient("alice", SweepClientOptions(depth));
  auto& reg = obs::Registry::Global();

  const std::set<std::string> manifest(testing::kFaultSites.begin(),
                                       testing::kFaultSites.end());

  // Coverage gate: a clean drive must traverse every manifest site (a site
  // the drive cannot reach is a site the sweep below cannot exercise), and
  // must not traverse any site the manifest does not know about.
  fault::DisarmAll();
  fault::ResetCounters();
  Bytes clean = TestFile(96 * 1024, 1000 + depth);
  Bytes fetched = RunDrive(*client, "clean", clean);
  ASSERT_EQ(fetched, clean);
  std::set<std::string> traversed;
  for (const auto& s : fault::Stats()) {
    EXPECT_EQ(s.fired, 0u) << "disarmed site fired: " << s.site;
    if (s.hits > 0 && !s.site.starts_with("test.")) traversed.insert(s.site);
  }
  for (const auto& site : manifest) {
    EXPECT_TRUE(traversed.contains(site))
        << "manifest site never traversed by the clean drive: " << site;
  }
  for (const auto& site : traversed) {
    EXPECT_TRUE(manifest.contains(site))
        << "traversed site missing from the manifest: " << site;
  }

  // The sweep proper.
  std::uint64_t file_seed = 5000 + 100 * depth;
  for (const char* site : testing::kFaultSites) {
    SCOPED_TRACE(std::string("site=") + site + " depth=" +
                 std::to_string(depth));
    const std::string fid = std::string("sweep-") + site;
    Bytes data = TestFile(48 * 1024, ++file_seed);

    std::string msg;
    {
      fault::ScopedFault armed(site, fault::Policy::EveryHit());
      msg = DriveUntilFault(*client, fid, data);
    }
    ASSERT_FALSE(msg.empty()) << "no drive phase failed with the site armed";
    EXPECT_NE(msg.find(site), std::string::npos)
        << "error lost the fault site on the way up: " << msg;
    EXPECT_GE(reg.GetCounter(std::string("fault.") + site + ".fired").value(),
              1u);
    ExpectGaugesDrained();
    ExpectClusterConsistent(system);

    // Crash-style restart (no checkpoint): recovery must rebuild a
    // consistent state from whatever the aborted drive left in the logs,
    // and keep every file stored before it.
    system.ReopenServers(/*checkpoint_first=*/false);
    ExpectClusterConsistent(system);
    EXPECT_EQ(client->Download("clean"), clean)
        << "restart lost a file stored before the fault";

    // Disarmed retry: the identical drive must now complete, deduplicating
    // against whatever the aborted attempt managed to store.
    Bytes out = RunDrive(*client, fid, data);
    EXPECT_EQ(out, data) << "post-fault retry did not round-trip";
    ExpectGaugesDrained();
    ExpectClusterConsistent(system);
  }
}

TEST(FaultSweepTest, SerialDataPath) { RunSweep(1); }

TEST(FaultSweepTest, PipelinedDataPath) { RunSweep(3); }

// Satellite regression: a fault that kills exactly ONE task of the
// concurrent per-server PutChunks fan-out (the others complete) must leave
// every server consistent, and the retry must dedup against the surviving
// writes instead of double-storing them.
TEST(FaultSweepTest, PartialFanoutPutChunksLeavesRetryableState) {
  ReedSystem system(SweepSystemOptions());
  system.RegisterUser("alice");
  auto client = system.CreateClient("alice", SweepClientOptions(3));
  auto& reg = obs::Registry::Global();

  Bytes data = TestFile(128 * 1024, 424242);
  fault::DisarmAll();
  fault::ResetCounters();
  // The obs counter is monotonic across the whole binary (the sweep tests
  // above already fired this site); assert on the delta, not the total.
  const std::uint64_t fired_before =
      reg.GetCounter("fault.client.put_chunks.batch.fired").value();

  std::string msg;
  {
    // client.put_chunks.batch is traversed once per target server per
    // batch; the 2nd traversal belongs to one fan-out task among several,
    // so exactly that task fails mid-batch.
    fault::ScopedFault armed("client.put_chunks.batch",
                             fault::Policy::NthHit(2));
    try {
      (void)client->Upload("partial", data, {"alice"});
    } catch (const Error& e) {
      msg = e.what();
    }
  }
  ASSERT_FALSE(msg.empty()) << "upload survived a failed fan-out task";
  EXPECT_NE(msg.find("client.put_chunks.batch"), std::string::npos) << msg;
  EXPECT_EQ(reg.GetCounter("fault.client.put_chunks.batch.fired").value(),
            fired_before + 1)
      << "NthHit(2) must fire exactly once";

  // The surviving fan-out tasks landed their chunks; the cluster must be
  // consistent with that partial batch applied.
  std::uint64_t stored = 0;
  for (std::size_t s = 0; s < system.data_server_count(); ++s) {
    auto report = system.data_server(s).CheckConsistency();
    EXPECT_TRUE(report.ok)
        << system.data_server(s).name() << ": " << report.detail;
    stored += report.index_entries;
  }
  EXPECT_GT(stored, 0u) << "expected partial state from the surviving tasks";
  EXPECT_EQ(reg.GetGauge("client.net.inflight_rpcs").value(), 0);
  EXPECT_EQ(reg.GetGauge("client.pipeline.inflight_batches").value(), 0);

  // Retry: chunks stored before the abort must register as duplicates, and
  // the file must round-trip.
  auto result = client->Upload("partial", data, {"alice"});
  EXPECT_GT(result.duplicate_chunks, 0u)
      << "retry re-stored chunks the aborted upload already landed";
  Bytes out = client->Download("partial");
  EXPECT_EQ(out, data);
  for (std::size_t s = 0; s < system.data_server_count(); ++s) {
    EXPECT_TRUE(system.data_server(s).CheckConsistency().ok);
  }
}

// ---------------------------------------------------------------------------
// Async front-end sweep: the four net.async.* sites live on AsyncServer's
// event-loop threads behind real sockets, so they get their own drive (a
// TcpChannel round trip against an in-process AsyncServer) instead of the
// LocalChannel drive above. The contract per site: the client observes a
// typed NetError (the connection is the blast radius — it closes), the
// fault.<site>.fired counter proves the injection, the server's net gauges
// drain back to zero, the storage state stays consistent, and a disarmed
// retry round-trips.
// ---------------------------------------------------------------------------

Bytes BuildPutObject(const std::string& name, const Bytes& value) {
  net::Writer w;
  w.U8(static_cast<std::uint8_t>(server::Opcode::kPutObject));
  w.U8(static_cast<std::uint8_t>(server::StoreId::kData));
  w.Str(name);
  w.Blob(value);
  return w.Take();
}

Bytes BuildGetObject(const std::string& name) {
  net::Writer w;
  w.U8(static_cast<std::uint8_t>(server::Opcode::kGetObject));
  w.U8(static_cast<std::uint8_t>(server::StoreId::kData));
  w.Str(name);
  return w.Take();
}

void WaitForGaugeZero(const char* name) {
  auto& gauge = obs::Registry::Global().GetGauge(name);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (gauge.value() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(gauge.value(), 0) << name << " did not drain";
}

TEST(FaultSweepTest, AsyncFrontEndSweep) {
  server::StorageServer storage("async-sweep");
  net::AsyncServer::Options net_opts;
  net_opts.loops = 2;
  net_opts.workers = 2;
  net::AsyncServer server(
      0, [&storage](ByteSpan req) { return storage.HandleRequest(req); },
      net_opts);
  auto& reg = obs::Registry::Global();

  // One fresh connection per exchange, so an armed per-connection fault
  // hits exactly the exchange under test.
  auto call_once = [&](const Bytes& request) {
    net::TcpChannel chan(
        net::TcpTransport::Connect("127.0.0.1", server.port()));
    return chan.Call(request);
  };

  fault::DisarmAll();
  fault::ResetCounters();
  Bytes value = TestFile(4096, 20250808);

  // Coverage gate: one clean round trip must traverse all four async sites.
  Bytes resp = call_once(BuildPutObject("seed", value));
  ASSERT_FALSE(resp.empty());
  ASSERT_EQ(resp[0], 0);
  std::set<std::string> traversed;
  for (const auto& s : fault::Stats()) {
    if (s.hits > 0) traversed.insert(s.site);
  }
  for (const char* site : testing::kAsyncFaultSites) {
    EXPECT_TRUE(traversed.contains(site))
        << "async site never traversed by a clean round trip: " << site;
  }

  for (const char* site : testing::kAsyncFaultSites) {
    SCOPED_TRACE(std::string("site=") + site);
    const std::uint64_t fired_before =
        reg.GetCounter(std::string("fault.") + site + ".fired").value();

    std::string msg;
    {
      fault::ScopedFault armed(site, fault::Policy::EveryHit());
      try {
        (void)call_once(BuildPutObject("sweep", value));
      } catch (const net::NetError& e) {
        msg = e.what();
      }
    }
    // Typed propagation: the connection is torn down, so the client sees a
    // NetError from its own Send/Receive rather than a hang or a garbled
    // success frame.
    EXPECT_FALSE(msg.empty())
        << "armed async fault did not surface at the client";
    EXPECT_GE(reg.GetCounter(std::string("fault.") + site + ".fired").value(),
              fired_before + 1);

    // Gauges drain: the loop thread closes the connection and releases its
    // active_conns guard and queued outbox bytes shortly after the fault.
    WaitForGaugeZero("server.net.active_conns");
    WaitForGaugeZero("server.net.outbox_bytes");
    EXPECT_TRUE(storage.CheckConsistency().ok);

    // Disarmed retry on a fresh connection round-trips.
    Bytes put = call_once(BuildPutObject("sweep", value));
    ASSERT_FALSE(put.empty());
    EXPECT_EQ(put[0], 0);
    Bytes got = call_once(BuildGetObject("seed"));
    net::Reader r(got);
    ASSERT_EQ(r.U8(), 0);
    EXPECT_EQ(r.Blob(), value);
  }
}

}  // namespace
}  // namespace reed

#endif  // REED_FAULT_INJECT
