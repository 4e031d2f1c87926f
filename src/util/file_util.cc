#include "util/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>

namespace pdd {

Result<std::string> ResolveRegularFile(const std::string& path) {
  std::filesystem::path target = path;
  struct stat info;
  // One link per hop; 40 hops, the kernel's own limit, end a cycle.
  for (int hops = 0; ::lstat(target.c_str(), &info) == 0; ++hops) {
    if (S_ISREG(info.st_mode)) break;
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
  return target.string();
}

Status WriteFileAtomically(const std::string& path, std::string_view bytes) {
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
  // The first failing step's errno text. Nothing from here to the
  // closes allocates, so no exception can leak a descriptor.
  const char* error = nullptr;
  auto check = [&error](bool ok) {
    if (!ok && error == nullptr) error = std::strerror(errno);
  };
  check(fd >= 0);
  while (error == nullptr && !bytes.empty()) {
    const ssize_t written = ::write(fd, bytes.data(), bytes.size());
    if (written < 0 && errno == EINTR) continue;
    check(written > 0);
    if (written > 0) bytes.remove_prefix(static_cast<size_t>(written));
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

}  // namespace pdd
