#include "chunk/chunker.h"

#include <algorithm>

namespace reed::chunk {

std::vector<ChunkRef> Chunker::Split(ByteSpan data) const {
  std::vector<ChunkRef> out;
  for (std::size_t off = 0; off < data.size();) {
    const std::size_t len = Cut(data.subspan(off));
    out.push_back({off, len});
    off += len;
  }
  return out;
}

FixedSizeChunker::FixedSizeChunker(std::size_t chunk_size)
    : chunk_size_(chunk_size) {
  if (chunk_size_ == 0) throw Error("FixedSizeChunker: zero chunk size");
}

std::size_t FixedSizeChunker::Cut(ByteSpan rest) const {
  return std::min(chunk_size_, rest.size());
}

RabinChunker::RabinChunker(Options options)
    : options_(options),
      mask_(options.average_size - 1),
      tables_(options.window_size) {
  if (options_.average_size == 0 ||
      (options_.average_size & (options_.average_size - 1)) != 0) {
    throw Error("RabinChunker: average size must be a power of two");
  }
  if (options_.min_size == 0 || options_.min_size > options_.max_size) {
    throw Error("RabinChunker: invalid min/max sizes");
  }
}

std::uint64_t RabinChunker::WindowHash(const std::uint8_t* window) const {
  std::uint64_t fp = 0;
  for (std::size_t i = 0; i < tables_.window_size(); ++i) {
    fp = tables_.Push(fp, window[i]);
  }
  return fp;
}

std::size_t RabinChunker::FirstMatchInBlock(const std::uint8_t* at) const {
  // Lane k hashes positions [k * kLaneSpan, (k + 1) * kLaneSpan), each from
  // its own warmed window; the steps of the four lanes do not depend on one
  // another, so their table loads overlap.
  const std::size_t w = tables_.window_size();
  std::uint64_t fp[kLanes];
  std::size_t hit[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) {
    fp[k] = WindowHash(at + k * kLaneSpan - w);
    hit[k] = kBlock;
  }
  for (std::size_t j = 0; j < kLaneSpan; ++j) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::uint8_t* p = at + k * kLaneSpan + j;
      fp[k] = tables_.Pop(tables_.Push(fp[k], *p), *(p - w));
      if ((fp[k] & mask_) == mask_) [[unlikely]] {
        // Lane 0's positions precede every other lane's.
        if (k == 0) return j;
        hit[k] = std::min(hit[k], k * kLaneSpan + j);
      }
    }
  }
  // The lowest lane that matched holds the block's earliest match.
  for (std::size_t k = 1; k < kLanes; ++k) {
    if (hit[k] != kBlock) return hit[k];
  }
  return kBlock;
}

std::size_t RabinChunker::Cut(ByteSpan rest) const {
  // A chunk ends at the first length L in [min_size, limit) whose trailing
  // window (the last w bytes, or all L bytes when L < w) matches the mask,
  // else at limit.
  const std::size_t limit = std::min(rest.size(), options_.max_size);
  if (limit <= options_.min_size) return limit;
  const std::size_t w = tables_.window_size();
  const std::uint8_t* in = rest.data();
  std::size_t i = 0;  // next position (length i + 1) to test
  std::uint64_t fp = 0;
  if (options_.min_size > w) {
    // Every candidate's window is full and lies inside the chunk, so each
    // position's hash is a function of its own w bytes: scan whole blocks
    // in lanes, then warm one window for the serial remainder.
    for (i = options_.min_size - 1; limit - i >= kBlock; i += kBlock) {
      const std::size_t hit = FirstMatchInBlock(in + i);
      if (hit != kBlock) return i + hit + 1;
    }
    fp = WindowHash(in + i - w);
  } else {
    // Fill the window; below min_size no length may cut.
    for (const std::size_t filled = std::min(w, limit); i < filled; ++i) {
      fp = tables_.Push(fp, in[i]);
      if (i + 1 >= options_.min_size && (fp & mask_) == mask_) return i + 1;
    }
  }
  // Roll: the byte leaving the window is still in the input.
  for (; i < limit; ++i) {
    fp = tables_.Pop(tables_.Push(fp, in[i]), in[i - w]);
    if ((fp & mask_) == mask_) return i + 1;
  }
  return limit;
}

RabinChunker::Options PaperChunking(std::size_t average_size) {
  RabinChunker::Options opts;
  opts.min_size = 2 * 1024;
  opts.max_size = 16 * 1024;
  opts.average_size = average_size;
  // Small averages need min below the default 2 KB to have any effect.
  if (average_size < opts.min_size * 2) {
    opts.min_size = average_size / 2;
  }
  return opts;
}

}  // namespace reed::chunk
