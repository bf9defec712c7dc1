// The fault-site manifest: every REED_FAULT_POINT site planted in src/,
// sorted by name. The sweep harness (fault_sweep_test.cc) walks this list,
// arming each site mid-drive; tools/lint/failpath_lint.py cross-checks it
// against a raw-text scan of src/ in BOTH directions, so a site added to the
// code without a manifest entry (or vice versa) fails the lint.
#pragma once

#include <array>

namespace reed::testing {

inline constexpr std::array<const char*, 26> kFaultSites = {
    "aont.encode",
    "client.download.decode",
    "client.download.fetch",
    "client.get_chunks.batch",
    "client.put_chunks.batch",
    "client.rpc.call",
    "client.upload.chunk",
    "client.upload.encode",
    "client.upload.store",
    "client.upload.wrap",
    "keymanager.get_keys",
    "keymanager.sign_batch",
    "net.link.transfer",
    "net.rpc.call",
    "net.wire.read",
    "net.wire.write",
    "server.chunks.read",
    "server.ingest.chunk",
    "server.rpc.dispatch",
    "store.container.append",
    "store.index.insert",
    "store.index.lookup",
    "store.object.get",
    "store.object.put",
    "store.recipe.decode",
    "util.thread_pool.submit",
};

// Async front-end sites (src/net/async_server.cc), swept separately by
// AsyncFaultSweep: they live on event-loop threads behind real sockets, so
// the in-process clean drive above cannot traverse them. Kept in this
// header so failpath_lint's both-direction manifest cross-check still sees
// every planted site.
inline constexpr std::array<const char*, 4> kAsyncFaultSites = {
    "net.async.accept",
    "net.async.dispatch",
    "net.async.read",
    "net.async.write",
};

}  // namespace reed::testing
