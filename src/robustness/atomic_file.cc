#include "robustness/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace aimai {
namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::Unavailable(what + " '" + path + "': " +
                             std::strerror(errno));
}

/// Writes all of `payload` to `fd`, tolerating short writes.
Status WriteAll(int fd, const std::string& payload, const std::string& path) {
  size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("failed to write", path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const std::string& payload,
                       FaultInjector* faults) {
  if (faults != nullptr &&
      faults->ShouldFail(FaultPoint::kTornCheckpointWrite)) {
    // Simulated torn write: half the payload lands at the final path with
    // no rename protection, and "success" is reported — the caller never
    // learns, just like a process that died mid-write. Detection is the
    // reader's job (checksummed framing + quarantine).
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(payload.data(),
               static_cast<std::streamsize>(payload.size() / 2));
    return Status::Ok();
  }

  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("failed to create", tmp);
  Status write_status = WriteAll(fd, payload, tmp);
  if (write_status.ok() && ::fsync(fd) != 0) {
    write_status = IoError("failed to fsync", tmp);
  }
  if (::close(fd) != 0 && write_status.ok()) {
    write_status = IoError("failed to close", tmp);
  }
  if (!write_status.ok()) {
    ::unlink(tmp.c_str());
    return write_status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return IoError("failed to rename into", path);
  }
  // Make the rename durable: fsync the containing directory.
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  const std::string dir = parent.empty() ? "." : parent;
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // Best-effort: some filesystems refuse directory fsync.
    ::close(dfd);
  }
  return Status::Ok();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::DataLoss("cannot open '" + path + "' for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::DataLoss("read failed on '" + path + "'");
  }
  *out = buf.str();
  return Status::Ok();
}

int RemoveStaleTempFiles(const std::string& dir) {
  std::error_code ec;
  int removed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") == std::string::npos) continue;
    if (std::filesystem::remove(entry.path(), ec)) ++removed;
  }
  return removed;
}

}  // namespace aimai
