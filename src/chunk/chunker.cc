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

std::size_t RabinChunker::Cut(ByteSpan rest) const {
  // A chunk ends at the first length L in [min_size, limit) whose trailing
  // window (the last w bytes, or all L bytes when L < w) matches the mask,
  // else at limit.
  const std::size_t limit = std::min(rest.size(), options_.max_size);
  if (limit <= options_.min_size) return limit;
  const std::size_t w = tables_.window_size();
  const std::uint8_t* in = rest.data();
  std::size_t i = options_.min_size > w ? options_.min_size - w : 0;
  std::uint64_t fp = 0;
  // Fill the window; below min_size no length may cut.
  for (const std::size_t filled = std::min(i + w, limit); i < filled; ++i) {
    fp = tables_.Push(fp, in[i]);
    if (i + 1 >= options_.min_size && (fp & mask_) == mask_) return i + 1;
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
