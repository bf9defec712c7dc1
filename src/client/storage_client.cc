#include "client/storage_client.h"

#include <algorithm>
#include <exception>
#include <future>
#include <numeric>

#include "obs/metrics.h"
#include "util/fault_inject.h"
#include "util/schedule_fuzz.h"

namespace reed::client {
namespace {

using server::Opcode;
using server::StoreId;

// Fan-out metrics (DESIGN.md §10): cached pointers so the per-RPC path is
// two atomic ops plus the call itself.
struct NetMetrics {
  obs::Counter* rpc_calls;
  obs::Gauge* inflight;
};

NetMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static NetMetrics m{&reg.GetCounter("client.net.rpc_calls"),
                      &reg.GetGauge("client.net.inflight_rpcs")};
  return m;
}

std::size_t TotalChannels(
    const std::vector<std::vector<std::shared_ptr<net::RpcChannel>>>& servers) {
  std::size_t n = 0;
  for (const auto& stripes : servers) n += stripes.size();
  return n;
}

}  // namespace

StorageClient::StorageClient(
    std::vector<std::shared_ptr<net::RpcChannel>> data_servers,
    std::shared_ptr<net::RpcChannel> key_server)
    : StorageClient(
          [&data_servers] {
            std::vector<std::vector<std::shared_ptr<net::RpcChannel>>> striped;
            striped.reserve(data_servers.size());
            for (auto& ch : data_servers) striped.push_back({std::move(ch)});
            return striped;
          }(),
          std::move(key_server)) {}

StorageClient::StorageClient(
    std::vector<std::vector<std::shared_ptr<net::RpcChannel>>> data_servers,
    std::shared_ptr<net::RpcChannel> key_server)
    : data_servers_(std::move(data_servers)),
      key_server_(std::move(key_server)),
      // One worker per channel lets every stripe of every server carry a
      // request at once; the cap only guards against pathological configs.
      pool_(std::min<std::size_t>(32, TotalChannels(data_servers_))) {
  if (data_servers_.empty()) {
    throw Error("StorageClient: need at least one data server");
  }
  for (const auto& stripes : data_servers_) {
    if (stripes.empty()) {
      throw Error("StorageClient: every data server needs at least one channel");
    }
    for (const auto& ch : stripes) {
      if (!ch) throw Error("StorageClient: null data-server channel");
    }
  }
  if (!key_server_) throw Error("StorageClient: need a key server");
}

Bytes StorageClient::CallChannel(net::RpcChannel& channel, ByteSpan request) {
  NetMetrics& m = Metrics();
  m.rpc_calls->Increment();
  // Before the guard: a firing models "the call was never made", so the
  // inflight gauge must not have been raised yet.
  REED_FAULT_POINT("client.rpc.call");
  obs::GaugeGuard inflight(*m.inflight);
  return channel.Call(request);
}

Bytes StorageClient::CallServer(std::size_t server, ByteSpan request) {
  auto& stripes = data_servers_[server];
  // Round-robin over the server's stripes; a single global counter is fine
  // because what matters is that concurrent batches land on different
  // channels, not which one each gets.
  std::size_t stripe =
      stripes.size() == 1
          ? 0
          : next_stripe_.fetch_add(1, std::memory_order_relaxed) % stripes.size();
  return CallChannel(*stripes[stripe], request);
}

std::size_t StorageClient::ServerIndexForObject(StoreId store,
                                                const std::string& name) const {
  (void)store;
  std::size_t h = std::hash<std::string>{}(name);
  return h % data_servers_.size();
}

void StorageClient::CheckStatus(net::Reader& r) {
  std::uint8_t status = r.U8();
  if (status != 0) {
    throw Error("StorageClient: server error: " + r.Str());
  }
}

template <typename F>
void StorageClient::ForEachTarget(const std::vector<std::size_t>& targets,
                                  F&& task) {
  if (targets.empty()) return;
  if (targets.size() == 1) {
    task(targets.front());
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(targets.size());
  try {
    for (std::size_t s : targets) {
      futures.push_back(pool_.Submit([&task, s] {
        schedfuzz::Perturb("client.fanout.task");
        task(s);
      }));
    }
  } catch (...) {
    // Submit itself failed (queue fault). Already-queued tasks capture &task
    // by reference, so they must finish before this frame unwinds.
    std::exception_ptr submit_error = std::current_exception();
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        // The submit failure is the primary error; task failures during the
        // drain are subsumed by it.
        DiscardResult(std::current_exception());
      }
    }
    std::rethrow_exception(submit_error);
  }
  std::exception_ptr first_error;
  schedfuzz::Perturb("client.fanout.join");
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

StorageClient::PutStats StorageClient::PutChunks(
    const std::vector<std::pair<chunk::Fingerprint, Bytes>>& chunks) {
  // One request per target server, sized before it is written, so every
  // package is copied once: straight into its server's frame.
  const std::size_t servers = data_servers_.size();
  std::vector<std::uint32_t> counts(servers, 0);
  std::vector<std::size_t> frame_bytes(servers, 1 + 4);  // opcode, count
  for (const auto& [fp, data] : chunks) {
    std::size_t target = fp.Short48() % servers;
    ++counts[target];
    frame_bytes[target] += chunk::Fingerprint::kSize + 4 + data.size();
  }
  std::vector<net::Writer> requests(servers);
  std::vector<std::size_t> targets;
  for (std::size_t s = 0; s < servers; ++s) {
    if (counts[s] == 0) continue;
    targets.push_back(s);
    requests[s].Reserve(frame_bytes[s]);
    requests[s].U8(static_cast<std::uint8_t>(Opcode::kPutChunks));
    requests[s].U32(counts[s]);
  }
  for (const auto& [fp, data] : chunks) {
    net::Writer& req = requests[fp.Short48() % servers];
    req.Raw(fp.AsSpan());
    req.Blob(data);
  }

  // Each server's transfer runs on its own pool worker: batch wall time is
  // max(per-server), not sum (tentpole fan-out). Each worker writes only its
  // own per_server slot; the merge below happens after all futures joined.
  std::vector<PutStats> per_server(servers);
  ForEachTarget(targets, [&](std::size_t s) {
    // Per-target, so an Nth-hit policy can fail one server of the fan-out
    // while the others complete (the partial-batch regression test).
    REED_FAULT_POINT("client.put_chunks.batch");
    Bytes response = CallServer(s, requests[s].bytes());
    net::Reader r(response);
    CheckStatus(r);
    per_server[s].duplicates = r.U32();
    per_server[s].stored = r.U32();
    per_server[s].stored_bytes = r.U64();
    r.ExpectEnd();
  });

  PutStats stats;
  for (std::size_t s : targets) {
    stats.duplicates += per_server[s].duplicates;
    stats.stored += per_server[s].stored;
    stats.stored_bytes += per_server[s].stored_bytes;
  }
  return stats;
}

StorageClient::FetchedChunks StorageClient::GetChunks(
    const std::vector<chunk::Fingerprint>& fps) {
  // Build per-server requests while remembering each chunk's slot.
  const std::size_t servers = data_servers_.size();
  std::vector<std::vector<std::size_t>> slots(servers);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    slots[fps[i].Short48() % servers].push_back(i);
  }
  std::vector<std::size_t> targets;
  for (std::size_t s = 0; s < servers; ++s) {
    if (!slots[s].empty()) targets.push_back(s);
  }

  // Each worker fills only its own server's frame and the views of its own
  // slots; `frames` is never resized, so the views stay put.
  FetchedChunks out;
  out.frames.resize(servers);
  out.chunks.resize(fps.size());
  ForEachTarget(targets, [&](std::size_t s) {
    REED_FAULT_POINT("client.get_chunks.batch");
    net::Writer req;
    req.Reserve(1 + 4 + slots[s].size() * chunk::Fingerprint::kSize);
    req.U8(static_cast<std::uint8_t>(Opcode::kGetChunks));
    req.U32(static_cast<std::uint32_t>(slots[s].size()));
    for (std::size_t slot : slots[s]) req.Raw(fps[slot].AsSpan());
    out.frames[s] = CallServer(s, req.bytes());
    net::Reader r(out.frames[s]);
    CheckStatus(r);
    std::vector<ByteSpan> packages;
    packages.reserve(slots[s].size());
    for (std::size_t i = 0; i < slots[s].size(); ++i) {
      packages.push_back(r.BlobView());
    }
    r.ExpectEnd();
    // Integrity gate: the fingerprint doubles as a MAC over the trimmed
    // package (it is what dedup keyed on), so recompute it before any
    // decode work trusts the bytes. Catches tampered payloads AND
    // honest-server bugs that swap response ordering. The whole frame is
    // hashed as one batch.
    std::vector<chunk::Fingerprint> got(packages.size());
    chunk::Fingerprint::OfMany(packages, got);
    for (std::size_t i = 0; i < packages.size(); ++i) {
      const std::size_t slot = slots[s][i];
      if (got[i] != fps[slot]) {
        throw Error(
            "StorageClient: chunk integrity check failed for fingerprint " +
            fps[slot].ToHex());
      }
      out.chunks[slot] = packages[i];
    }
  });
  return out;
}

void StorageClient::PutObject(StoreId store, const std::string& name,
                              ByteSpan value) {
  net::Writer req;
  req.U8(static_cast<std::uint8_t>(Opcode::kPutObject));
  req.U8(static_cast<std::uint8_t>(store));
  req.Str(name);
  req.Blob(value);
  Bytes response = store == StoreId::kKey
                       ? CallChannel(*key_server_, req.Take())
                       : CallServer(ServerIndexForObject(store, name), req.Take());
  net::Reader r(response);
  CheckStatus(r);
}

Bytes StorageClient::GetObject(StoreId store, const std::string& name) {
  net::Writer req;
  req.U8(static_cast<std::uint8_t>(Opcode::kGetObject));
  req.U8(static_cast<std::uint8_t>(store));
  req.Str(name);
  Bytes response = store == StoreId::kKey
                       ? CallChannel(*key_server_, req.Take())
                       : CallServer(ServerIndexForObject(store, name), req.Take());
  net::Reader r(response);
  CheckStatus(r);
  return r.Blob();
}

bool StorageClient::HasObject(StoreId store, const std::string& name) {
  net::Writer req;
  req.U8(static_cast<std::uint8_t>(Opcode::kHasObject));
  req.U8(static_cast<std::uint8_t>(store));
  req.Str(name);
  Bytes response = store == StoreId::kKey
                       ? CallChannel(*key_server_, req.Take())
                       : CallServer(ServerIndexForObject(store, name), req.Take());
  net::Reader r(response);
  CheckStatus(r);
  return r.U8() != 0;
}

}  // namespace reed::client
