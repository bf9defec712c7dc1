#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

namespace reed::util {
namespace {

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path) {
  throw FileError(what + " " + path + ": " + std::strerror(errno));
}

int OpenOrThrow(const std::string& path, int flags) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) ThrowErrno("open", path);
  return fd;
}

}  // namespace

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

File File::OpenAppend(const std::string& path) {
  return File(OpenOrThrow(path, O_WRONLY | O_CREAT | O_APPEND), path);
}

File File::OpenRead(const std::string& path) {
  return File(OpenOrThrow(path, O_RDONLY), path);
}

void File::Append(ByteSpan data) {
  if (fd_ < 0) throw FileError("append to closed file " + path_);
  std::size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd_, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("write", path_);
    }
    written += static_cast<std::size_t>(n);
  }
}

void File::Sync() {
  if (fd_ < 0) throw FileError("fsync of closed file " + path_);
  if (::fsync(fd_) != 0) ThrowErrno("fsync", path_);
}

std::uint64_t File::Size() const {
  if (fd_ < 0) throw FileError("stat of closed file " + path_);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) ThrowErrno("fstat", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void File::Truncate(std::uint64_t size) {
  if (fd_ < 0) throw FileError("truncate of closed file " + path_);
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    ThrowErrno("ftruncate", path_);
  }
}

void File::Close() {
  if (fd_ < 0) return;
  int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) ThrowErrno("close", path_);
}

Bytes ReadFileBytes(const std::string& path) {
  int fd = OpenOrThrow(path, O_RDONLY);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    ThrowErrno("fstat", path);
  }
  Bytes out(static_cast<std::size_t>(st.st_size));
  std::size_t read = 0;
  while (read < out.size()) {
    ssize_t n = ::read(fd, out.data() + read, out.size() - read);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ThrowErrno("read", path);
    }
    if (n == 0) break;  // racing truncation: return what exists
    read += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(read);
  return out;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) &&
         std::filesystem::is_regular_file(path, ec);
}

void WriteFileAtomic(const std::string& dir, const std::string& name,
                     ByteSpan data) {
  const std::string tmp = dir + "/." + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  {
    File f = File::OpenAppend(tmp);
    f.Truncate(0);  // a stale temp file from an earlier crash
    f.Append(data);
    f.Sync();
    f.Close();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, final_path, ec);
  if (ec) {
    throw FileError("rename " + tmp + " -> " + final_path + ": " +
                    ec.message());
  }
  SyncDirectory(dir);
}

void CreateDirectories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw FileError("mkdir " + path + ": " + ec.message());
}

void SyncDirectory(const std::string& path) {
  int fd = OpenOrThrow(path, O_RDONLY | O_DIRECTORY);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) ThrowErrno("fsync dir", path);
}

void RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) throw FileError("remove " + path + ": " + ec.message());
}

std::vector<std::string> ListFiles(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) throw FileError("list " + dir + ": " + ec.message());
  for (const auto& entry : it) {
    if (entry.is_regular_file()) names.push_back(entry.path().filename());
  }
  std::sort(names.begin(), names.end());
  return names;
}

ScratchDir::ScratchDir(const std::string& prefix) {
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) throw FileError("temp directory: " + ec.message());
  std::string pattern = (base / (prefix + "XXXXXX")).string();
  if (::mkdtemp(pattern.data()) == nullptr) ThrowErrno("mkdtemp", pattern);
  path_ = std::move(pattern);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;  // a leftover directory is not worth a throw
  std::filesystem::remove_all(path_, ec);
}

}  // namespace reed::util
