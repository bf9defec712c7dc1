// All-or-nothing transform (Rivest, FSE'97) and its convergent variant
// CAONT (CDStore, USENIX ATC'15) — the building blocks under REED's
// encryption schemes (paper §IV-B).
//
// AONT: package = (C, t) with C = M ⊕ G(K) for a random K and
// t = H(C) ⊕ K. Recovering any part of M requires the *entire* package.
// CAONT replaces the random K with the message hash H(M), making the
// package deterministic (dedupable) and self-verifying.
#pragma once

#include "crypto/aes.h"
#include "crypto/random.h"
#include "util/bytes.h"

namespace reed::aont {

inline constexpr std::size_t kAontKeySize = 32;   // AES-256 key / SHA-256 hash
inline constexpr std::size_t kAontTailSize = 32;  // |t| = |H(·)| = |K|

// Pseudo-random mask G(K) = E(K, S): the AES-256-CTR keystream over the
// publicly known constant block S (a fixed IV), truncated to `length`.
[[nodiscard]] Bytes Mask(ByteSpan key, std::size_t length);

// G(K) as a CTR stream: each Process() call XORs the next mask bytes into
// its input, so a package split over several buffers is (un)masked in one
// pass with no mask buffer.
[[nodiscard]] crypto::AesCtr MaskStream(ByteSpan key);

// Rivest AONT with a fresh random key. Package layout: C || t,
// |package| = |message| + kAontTailSize.
[[nodiscard]] Bytes AontTransform(ByteSpan message, crypto::Rng& rng);

// Inverts AontTransform. No integrity guarantee (original AONT is unkeyed
// and unauthenticated) — corrupt packages yield garbage.
[[nodiscard]] Bytes AontRevert(ByteSpan package);

// CAONT: key = H(message); deterministic, so identical messages produce
// identical packages.
[[nodiscard]] Bytes CaontTransform(ByteSpan message);

// Inverts CaontTransform and verifies the embedded hash key against the
// recovered message; throws Error on tampering.
[[nodiscard]] Bytes CaontRevert(ByteSpan package);

// Self-XOR tail used by REED's enhanced scheme (after Peterson et al.'s
// secure-deletion construction): XOR of all kAontTailSize-sized pieces of
// `data` (last piece zero-padded) — cheaper than a second hash pass.
[[nodiscard]] Bytes SelfXor(ByteSpan data);

// Folds `data` into a running self-XOR `acc` (kAontTailSize bytes), where
// `data` starts `offset` bytes into the XORed byte string: a string split
// over several buffers folds piece by piece to the same result.
void SelfXorInto(MutableByteSpan acc, ByteSpan data, std::size_t offset);

}  // namespace reed::aont
