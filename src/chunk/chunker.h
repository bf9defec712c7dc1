// Chunkers: fixed-size and content-defined (Rabin) variable-size, matching
// the paper's client (§V): min 2 KB, max 16 KB, configurable average.
#pragma once

#include <memory>
#include <vector>

#include "chunk/rabin.h"
#include "util/bytes.h"

namespace reed::chunk {

// A chunk boundary within the input buffer.
struct ChunkRef {
  std::size_t offset = 0;
  std::size_t length = 0;
};

// Chunkers are pure and const: a chunk's end depends only on the bytes from
// its own start on, so one chunker can cut from any thread, one chunk at a
// time (the client's streaming upload cuts a batch ahead of keygen).
class Chunker {
 public:
  virtual ~Chunker() = default;

  // Length of the first chunk of `rest`; 0 only when `rest` is empty.
  virtual std::size_t Cut(ByteSpan rest) const = 0;

  // Splits `data` into consecutive, exhaustive, non-overlapping chunks.
  std::vector<ChunkRef> Split(ByteSpan data) const;
};

class FixedSizeChunker : public Chunker {
 public:
  explicit FixedSizeChunker(std::size_t chunk_size);
  std::size_t Cut(ByteSpan rest) const override;

 private:
  std::size_t chunk_size_;
};

// Content-defined chunking: a boundary is declared where the Rabin
// fingerprint of the trailing window matches a target pattern, subject to
// the min/max bounds. Identical content produces identical boundaries even
// after insertions/deletions elsewhere — the property dedup relies on.
//
// The window restarts at every boundary and no boundary falls before
// min_size. Once min_size > window_size, every candidate's window is full,
// so the hash at a position is a function of the window_size bytes ending
// there alone: Cut then scans from min_size - 1 on in blocks of four
// interleaved lanes of 512 positions, each lane warming its own window, and
// a block yields its earliest match. The block loop's remainder, and
// parameterizations with min_size <= window_size, hash the window before
// the first candidate and roll serially, reading the outgoing byte from the
// input itself. Both paths cut exactly where the per-byte rolling window
// cut; Cut stays const and keeps no state between calls.
class RabinChunker : public Chunker {
 public:
  struct Options {
    std::size_t min_size = 2 * 1024;
    std::size_t max_size = 16 * 1024;
    std::size_t average_size = 8 * 1024;  // must be a power of two
    std::size_t window_size = RabinTables::kDefaultWindowSize;
  };

  explicit RabinChunker(Options options);
  std::size_t Cut(ByteSpan rest) const override;

  const Options& options() const { return options_; }

 private:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kLaneSpan = 512;  // positions per lane
  static constexpr std::size_t kBlock = kLanes * kLaneSpan;

  // Fingerprint of the window_size bytes from `window` on.
  std::uint64_t WindowHash(const std::uint8_t* window) const;
  // Offset of the first position in [at, at + kBlock) whose trailing window
  // matches, or kBlock; reads the window_size bytes before `at` too.
  std::size_t FirstMatchInBlock(const std::uint8_t* at) const;

  Options options_;
  std::uint64_t mask_;
  RabinTables tables_;
};

// Paper parameterization helper: min 2 KB / max 16 KB, given average.
RabinChunker::Options PaperChunking(std::size_t average_size);

}  // namespace reed::chunk
