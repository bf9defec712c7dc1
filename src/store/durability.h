// Durability knobs for the persistent store (DESIGN.md §12).
//
// The paper's prototype leans on a database engine for persistence; we build
// the layer from scratch, and these options pick where each deployment sits
// on the durability/latency curve:
//
//   policy    fsync when                           survives
//   kNone     never (only on Close)                process crash (page cache)
//   kGrouped  per commit, batched over a window    machine crash
//   kAlways   every commit, no batching window     machine crash
//
// A SIGKILLed process loses nothing the kernel already holds, so kNone is
// enough for the crash-recovery tests; kGrouped is the honest default for a
// real deployment (group commit amortizes the fsync over every writer that
// lands inside the window); kAlways is the paranoid/bench-floor setting.
#pragma once

#include <chrono>

namespace reed::store {

enum class FsyncPolicy : std::uint8_t {
  kNone = 0,
  kGrouped = 1,
  kAlways = 2,
};

struct DurabilityOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kGrouped;
  // How long a group-commit leader dwells before the batched fsync, giving
  // concurrent writers a chance to ride the same flush. The leader dwells
  // only while another writer (Wal::Writer) is in flight on the same log: a
  // lone writer fsyncs at once, as the window could only delay it. 0 =
  // fsync at once (still shared by every commit already waiting).
  std::chrono::microseconds group_commit_window{500};
};

}  // namespace reed::store
