#include "util/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <utility>

namespace pdd {

Result<std::string> ResolveRegularFile(const std::string& path) {
  std::filesystem::path target = path;
  struct stat info;
  // One link per hop; 40 hops, the kernel's own limit, end a cycle.
  for (int hops = 0; ::lstat(target.c_str(), &info) == 0; ++hops) {
    if (S_ISREG(info.st_mode)) return target.string();
    std::error_code error;  // leaves `link` empty, as a link never is
    const std::filesystem::path link =
        S_ISLNK(info.st_mode) && hops < 40
            ? std::filesystem::read_symlink(target, error)
            : std::filesystem::path();
    if (link.empty()) {
      return Status::InvalidArgument("'" + path + "' is not a regular file");
    }
    target = target.parent_path() / link;
  }
  // Nothing is there, unless the kernel follows a link whose text names
  // no path: /dev/stdout reaches a pipe through /proc/self/fd/1.
  if (::stat(path.c_str(), &info) == 0) {
    return Status::InvalidArgument("'" + path + "' is not a regular file");
  }
  return target.string();
}

Status CheckOutputPath(const std::string& path) {
  PDD_ASSIGN_OR_RETURN(const std::string target, ResolveRegularFile(path));
  // Replacing the file standard output or error goes to (/dev/stdout
  // redirected to a file) would send what the process prints next to
  // the unlinked old file.
  struct stat file;
  struct stat stream;
  if (::stat(target.c_str(), &file) == 0) {
    for (const int fd : {STDOUT_FILENO, STDERR_FILENO}) {
      if (::fstat(fd, &stream) == 0 && stream.st_dev == file.st_dev &&
          stream.st_ino == file.st_ino) {
        return Status::InvalidArgument(
            "'" + path + "' is where standard output or error goes");
      }
    }
  }
  const std::string dir = std::filesystem::path(target).parent_path();
  std::error_code error;
  if (std::filesystem::is_directory(dir.empty() ? "." : dir, error)) {
    return Status::OK();
  }
  return Status::InvalidArgument("cannot create '" + path + "': '" + dir +
                                 "' is not a directory");
}

Status WriteFileAtomically(const std::string& path,
                           const FilePieces& next_piece) {
  PDD_ASSIGN_OR_RETURN(const std::string target, ResolveRegularFile(path));
  // The umask can only narrow the replaced file's bits.
  struct stat info;
  const mode_t mode =
      ::stat(target.c_str(), &info) == 0 ? info.st_mode & 07777 : 0666;
  // The pid and a per-process counter keep live writers apart.
  static std::atomic<uint64_t> next_temp{0};
  std::string temp;
  int fd = -1;
  do {
    temp = target + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(next_temp.fetch_add(1));
    fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, mode);
  } while (fd < 0 && errno == EEXIST);
  // The first failing step's errno text. Only `next_piece` can throw
  // from here to the closes; it takes the temporary file with it.
  const char* error = nullptr;
  auto check = [&error](bool ok) {
    if (!ok && error == nullptr) error = std::strerror(errno);
  };
  auto next = [&](std::string_view* piece) {
    try {
      return next_piece(piece);
    } catch (...) {
      ::close(fd);
      ::unlink(temp.c_str());
      throw;
    }
  };
  check(fd >= 0);
  std::string_view piece;
  while (error == nullptr && next(&piece)) {
    while (error == nullptr && !piece.empty()) {
      const ssize_t written = ::write(fd, piece.data(), piece.size());
      if (written < 0 && errno == EINTR) continue;
      check(written > 0);
      if (written > 0) piece.remove_prefix(static_cast<size_t>(written));
    }
  }
  if (error == nullptr) check(::fsync(fd) == 0);
  if (fd >= 0) check(::close(fd) == 0);
  if (error == nullptr) check(::rename(temp.c_str(), target.c_str()) == 0);
  if (error != nullptr) {
    if (fd >= 0) ::unlink(temp.c_str());
    return Status::Internal("cannot write '" + path + "': " + error);
  }
  // The rename is durable once the directory is.
  const std::string dir = std::filesystem::path(target).parent_path();
  const int dir_fd = ::open(dir.empty() ? "." : dir.c_str(),
                            O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  check(dir_fd >= 0 && ::fsync(dir_fd) == 0);
  if (dir_fd >= 0) ::close(dir_fd);
  if (error == nullptr) return Status::OK();
  return Status::Internal("cannot sync the directory of '" + path +
                          "': " + error);
}

Status WriteFileAtomically(const std::string& path, std::string_view bytes) {
  bool yielded = false;
  return WriteFileAtomically(path, [&](std::string_view* piece) {
    *piece = bytes;
    return !std::exchange(yielded, true);
  });
}

}  // namespace pdd
