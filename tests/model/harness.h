// Lockstep differential harness: drives the REAL REED stack (core::ReedSystem
// with its clients, servers, and key manager) and the reference model through
// the same generated operation sequence, diffing every observable after every
// op (DESIGN.md §11):
//
//   * op outcome (success vs which failure) and result counters,
//   * download bytes against the model's file contents,
//   * per-server stored-chunk / stored-byte deltas against the model's
//     global dedup set,
//   * key-state record metadata (owner, key version, stub version),
//   * security oracles after every rekey: the pre-rekey key state must fail
//     to decrypt the post-rekey stub (active), and every server's
//     PackageDigest must be bit-identical across the rekey (both modes —
//     revocation never rewrites packages, paper §IV-A).
//
// On the first divergence the harness writes a replayable repro file (the
// full op trace plus the exact reed_model_check invocation) and stops.
//
// Bug::k* deliberately corrupts the real stack AFTER an op, at the harness
// level — src/ stays correct — to prove the checker catches the class of
// semantic bug it exists for. The WILL_FAIL ctest fixtures in
// tests/CMakeLists.txt pin that property.
#pragma once

#include <cstdint>
#include <string>

#include "model/op_generator.h"

namespace reed::modelcheck {

enum class Bug {
  kNone,
  // Active rekey "forgets" to re-encrypt the stub file: the pre-rekey stub
  // bytes are restored after the op while the key-state record advertises
  // the new stub version. Caught by the stub-decryption oracles.
  kSkipStubReencrypt,
  // Rekey "forgets" to persist the new key-state record: the pre-rekey
  // record is restored, so a revoked user's old access silently survives.
  // Caught by the key-state metadata diff.
  kStaleKeyState,
};

const char* BugName(Bug b);

struct HarnessOptions {
  std::uint64_t seed = 1;
  std::size_t num_ops = 40;
  std::size_t num_users = 3;
  std::size_t pipeline_depth = 2;  // 1 = upload window of one
  Bug bug = Bug::kNone;
  std::string repro_dir = ".";
  bool verbose = false;
  // Restart cycle (sequential runs only): every reopen_every ops all
  // servers are restarted from their scratch directories — alternating
  // clean (checkpoint + reopen) and crash-style (reopen only) — with the
  // package-digest oracle checked across each restart. Every security
  // invariant above must keep holding on the recovered state; this is what
  // pins lazy-rekey key states surviving a restart.
  std::size_t reopen_every = 0;  // 0 = never reopen
};

struct RunReport {
  bool ok = true;
  std::size_t ops_executed = 0;
  std::string divergence;  // first divergence, human-readable
  std::string repro_path;  // written on divergence
};

// Sequential lockstep run: full per-op diffing.
[[nodiscard]] RunReport RunSequential(const HarnessOptions& options);

// Concurrent mode: one thread per user, each driving its own client over a
// disjoint file-id namespace against the SHARED cluster (dedup still crosses
// threads). Per-op dedup counters are racy by design, so the check is
// linearizability-shaped instead: after the join, the final state must be
// explainable by the per-thread sequential orders — every file downloads to
// its model bytes, the cluster's unique-chunk set equals the model's, the
// sum of all per-op stored counters equals the global unique count (every
// content stored exactly once), and every server passes CheckConsistency.
// Honors REED_SCHEDULE_SEED like the rest of the concurrency suite.
[[nodiscard]] RunReport RunConcurrent(const HarnessOptions& options);

}  // namespace reed::modelcheck
