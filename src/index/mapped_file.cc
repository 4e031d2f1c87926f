#include "index/mapped_file.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/file_util.h"

#if defined(__unix__) || defined(__APPLE__)
#define PDD_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace pdd {

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    // The fallback string's buffer must move before data_ is taken:
    // data_ may point into it.
    fallback_ = std::move(other.fallback_);
    data_ = other.data_;
    size_ = other.size_;
    is_mmap_ = other.is_mmap_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.is_mmap_ = false;
  }
  return *this;
}

void MappedFile::Reset() {
#if PDD_HAVE_MMAP
  if (is_mmap_ && data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  is_mmap_ = false;
  fallback_.clear();
}

Status MappedFile::Open(const std::string& path) {
  Reset();
#if PDD_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open '" + path +
                            "': " + std::strerror(errno));
  }
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    Status status = Status::Internal("cannot stat '" + path +
                                     "': " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  size_t size = static_cast<size_t>(info.st_size);
  if (size == 0) {
    // mmap of length 0 is invalid; an empty file is still a valid
    // (trivially too short) view the format layer rejects with a
    // proper diagnostic.
    ::close(fd);
    data_ = reinterpret_cast<const unsigned char*>(fallback_.data());
    size_ = 0;
    return Status::OK();
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapping == MAP_FAILED) {
    return Status::Internal("cannot mmap '" + path +
                            "': " + std::strerror(errno));
  }
  data_ = static_cast<const unsigned char*>(mapping);
  size_ = size;
  is_mmap_ = true;
  return Status::OK();
#else
  PDD_ASSIGN_OR_RETURN(fallback_, ReadFileToString(path));
  data_ = reinterpret_cast<const unsigned char*>(fallback_.data());
  size_ = fallback_.size();
  is_mmap_ = false;
  return Status::OK();
#endif
}

}  // namespace pdd
