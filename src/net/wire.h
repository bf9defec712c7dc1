// Wire-format helpers: a Writer/Reader pair over length-delimited fields,
// used by every REED protocol message (key-manager batches, storage RPCs,
// recipes, key-state metadata).
//
// Format primitives: fixed-width big-endian integers and u32-length-
// prefixed byte strings. Readers validate every length against the
// remaining buffer, so malformed frames fail loudly instead of reading out
// of bounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/fault_inject.h"

namespace reed {
class Secret;  // util/secret.h — never serialized without Declassify
}  // namespace reed

namespace reed::net {

// Frame-level failures: truncated or oversized messages, trailing bytes,
// malformed snapshots. Distinct from NetError (net/tcp.h), which covers the
// transport itself — a catch site can retry a WireError-free transport
// failure but must treat a WireError as a protocol bug or corruption.
class WireError : public Error {
 public:
  using Error::Error;
};

class Writer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v) { AppendU32(buf_, v); }
  void U64(std::uint64_t v) { AppendU64(buf_, v); }

  // Rejects payloads whose size does not fit the u32 length prefix; the
  // old silent cast produced a frame whose prefix disagreed with its body.
  // Public and static so the limit is unit-testable without allocating 4GB.
  static void CheckBlobSize(std::size_t size) {
    if (size > UINT32_MAX) throw WireError("Writer: blob too large");
  }

  void Blob(ByteSpan data) {
    REED_FAULT_POINT("net.wire.write");
    CheckBlobSize(data.size());
    U32(static_cast<std::uint32_t>(data.size()));
    Append(buf_, data);
  }

  void Str(std::string_view s) { Blob(ToBytes(s)); }

  // Raw bytes without a length prefix (for fixed-width fields).
  void Raw(ByteSpan data) { Append(buf_, data); }

  // Secrets never cross the wire: route through reed::Declassify (with a
  // reason) at one of the sanctioned crossings, or encrypt first. Deleting
  // these here gives a direct error instead of a conversion-failure cascade.
  void Blob(const Secret&) = delete;
  void Str(const Secret&) = delete;
  void Raw(const Secret&) = delete;

  // Sizes the buffer up front, for a frame whose length is known.
  void Reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] Bytes Take() { return std::move(buf_); }
  const Bytes& bytes() const { return buf_; }

 private:
  Bytes buf_;
};

class Reader {
 public:
  // Sanity cap on declared blob lengths. The length prefix is attacker-
  // controlled: a forged frame inside a legitimately large transport buffer
  // can claim a multi-gigabyte blob, and the only defense before this cap
  // was the remaining-buffer check — which still admits anything up to the
  // transport's 1 GiB frame limit. No REED message carries a blob anywhere
  // near this size (chunk batches are ~4 MB; the largest stub files are
  // tens of MB), so a claim above the cap is corruption or an attack, and
  // it fails as a typed WireError before any allocation sized by the claim.
  static constexpr std::uint32_t kDefaultMaxBlobLen = 256u << 20;  // 256 MiB

  explicit Reader(ByteSpan data, std::uint32_t max_blob_len = kDefaultMaxBlobLen)
      : data_(data), max_blob_len_(max_blob_len) {}

  [[nodiscard]] std::uint8_t U8() {
    Need(1);
    return data_[off_++];
  }

  [[nodiscard]] std::uint32_t U32() {
    Need(4);
    std::uint32_t v = GetU32(data_.subspan(off_));
    off_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t U64() {
    Need(8);
    std::uint64_t v = GetU64(data_.subspan(off_));
    off_ += 8;
    return v;
  }

  [[nodiscard]] Bytes Blob() {
    ByteSpan view = BlobView();
    return Bytes(view.begin(), view.end());
  }

  // Blob() without the copy: a view into the frame, valid while it lives.
  [[nodiscard]] ByteSpan BlobView() {
    REED_FAULT_POINT("net.wire.read");
    std::uint32_t len = U32();
    if (len > max_blob_len_) {
      throw WireError("Reader: declared blob length " + std::to_string(len) +
                      " exceeds sanity cap " + std::to_string(max_blob_len_));
    }
    Need(len);
    ByteSpan out = data_.subspan(off_, len);
    off_ += len;
    return out;
  }

  [[nodiscard]] std::string Str() {
    Bytes b = Blob();
    return ToString(b);
  }

  // Raw bytes without a length prefix (fixed-width fields), viewing the
  // message like BlobView.
  [[nodiscard]] ByteSpan RawView(std::size_t n) {
    Need(n);
    ByteSpan out = data_.subspan(off_, n);
    off_ += n;
    return out;
  }

  [[nodiscard]] bool AtEnd() const { return off_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - off_; }

  // Call when a message should have been fully consumed.
  void ExpectEnd() const {
    if (!AtEnd()) throw WireError("Reader: trailing bytes in message");
  }

 private:
  void Need(std::size_t n) const {
    if (off_ + n > data_.size()) throw WireError("Reader: truncated message");
  }

  ByteSpan data_;
  std::uint32_t max_blob_len_;
  std::size_t off_ = 0;
};

}  // namespace reed::net
