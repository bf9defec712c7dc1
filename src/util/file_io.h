// POSIX file handles for the durable store (DESIGN.md §12).
//
// The durability layer is about controlling exactly when bytes reach stable
// storage, and std::fstream cannot express fsync — so the store speaks raw
// file descriptors through this small RAII wrapper. Every OS failure throws
// the typed FileError (a reed::Error), so the failure-path discipline
// (tools/lint/failpath_lint.py) and HandleRequest's catch both keep working.
//
// Thread safety: a File is a plain handle with no internal lock. The store
// components that share one (the WAL, the segment log) serialize access
// under their own ranked mutexes; fsync-while-append on the same descriptor
// is safe at the OS level and is the one concurrent pattern group commit
// relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace reed::util {

class FileError : public Error {
 public:
  using Error::Error;
};

class File {
 public:
  File() = default;  // closed handle
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  ~File();  // best-effort close; never throws (use Close() to observe errors)

  // Opens for appending (creating if absent); writes always land at the
  // current end of file, even after Truncate.
  [[nodiscard]] static File OpenAppend(const std::string& path);
  [[nodiscard]] static File OpenRead(const std::string& path);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

  // Writes all of `data` (looping over short writes) or throws.
  void Append(ByteSpan data);
  // Flushes file content and metadata to stable storage (fsync).
  void Sync();
  [[nodiscard]] std::uint64_t Size() const;
  // Cuts the file to exactly `size` bytes; later Appends continue from there.
  void Truncate(std::uint64_t size);
  void Close();  // idempotent

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

// Whole-file helpers for small store artifacts (checkpoints, log scans).
[[nodiscard]] Bytes ReadFileBytes(const std::string& path);
[[nodiscard]] bool FileExists(const std::string& path);

// Writes `data` as dir/name via temp file + fsync + rename + directory
// fsync: observers see either the old content (or absence) or the complete
// new file — never a torn one. The checkpoint writer depends on this.
void WriteFileAtomic(const std::string& dir, const std::string& name,
                     ByteSpan data);

void CreateDirectories(const std::string& path);
// Flushes a directory entry change (new/renamed file) to stable storage.
void SyncDirectory(const std::string& path);
void RemoveFileIfExists(const std::string& path);

// Sorted names (not full paths) of regular files directly under `dir`.
[[nodiscard]] std::vector<std::string> ListFiles(const std::string& dir);

// A fresh directory `<temp dir>/<prefix>XXXXXX` made by mkdtemp, removed
// with everything in it when the handle is destroyed (best effort: the
// destructor never throws).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix);
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace reed::util
