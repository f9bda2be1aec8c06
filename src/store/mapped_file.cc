#include "store/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace autocat {

namespace {

// Growth step: large enough that a multi-GB bulk load remaps only a
// handful of times, small enough not to balloon sparse-file size checks.
constexpr uint64_t kGrowStep = 64ull << 20;  // 64 MiB

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

Result<std::unique_ptr<MappedFile>> MappedFile::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot create", path));
  }
  std::unique_ptr<MappedFile> out(new MappedFile());
  out->fd_ = fd;
  out->writable_ = true;
  out->path_ = path;
  AUTOCAT_RETURN_IF_ERROR(out->EnsureCapacity(kGrowStep));
  return out;
}

Result<std::unique_ptr<MappedFile>> MappedFile::OpenReadOnly(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError(ErrnoMessage("cannot stat", path));
    ::close(fd);
    return status;
  }
  std::unique_ptr<MappedFile> out(new MappedFile());
  out->fd_ = fd;
  out->path_ = path;
  out->size_ = static_cast<uint64_t>(st.st_size);
  out->capacity_ = out->size_;
  if (out->size_ == 0) {
    return Status::ParseError("store file '" + path + "' is empty");
  }
  void* base = ::mmap(nullptr, out->size_, PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    return Status::IOError(ErrnoMessage("cannot map", path));
  }
  out->base_ = base;
  return out;
}

void MappedFile::ReleasePages(const void* data, size_t n) const {
  const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t begin = reinterpret_cast<uintptr_t>(data);
  const uintptr_t lo = (begin + page - 1) & ~(page - 1);
  const uintptr_t hi = (begin + n) & ~(page - 1);
  if (writable_ || hi <= lo) {
    return;
  }
  // Advice only: a failure leaves the pages resident, which is harmless.
  (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
}

MappedFile::~MappedFile() {
  if (base_ != nullptr) {
    ::munmap(base_, capacity_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status MappedFile::EnsureCapacity(uint64_t capacity) {
  if (capacity <= capacity_) {
    return Status::OK();
  }
  // Round up to the growth step so appends amortize the remap.
  const uint64_t target = ((capacity + kGrowStep - 1) / kGrowStep) * kGrowStep;
  if (::ftruncate(fd_, static_cast<off_t>(target)) != 0) {
    return Status::IOError(ErrnoMessage("cannot grow", path_));
  }
  if (base_ != nullptr) {
    ::munmap(base_, capacity_);
    base_ = nullptr;
  }
  void* base =
      ::mmap(nullptr, target, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (base == MAP_FAILED) {
    return Status::IOError(ErrnoMessage("cannot map", path_));
  }
  base_ = base;
  capacity_ = target;
  return Status::OK();
}

Status MappedFile::Append(const void* bytes, size_t n) {
  if (!writable_) {
    return Status::InvalidArgument("append to a read-only mapping");
  }
  if (n == 0) {
    return Status::OK();  // empty buffers may pass data() == nullptr
  }
  AUTOCAT_RETURN_IF_ERROR(EnsureCapacity(size_ + n));
  std::memcpy(static_cast<char*>(base_) + size_, bytes, n);
  size_ += n;
  return Status::OK();
}

Status MappedFile::PadTo(uint64_t align) {
  const uint64_t rem = size_ % align;
  if (rem == 0) {
    return Status::OK();
  }
  const std::string zeros(static_cast<size_t>(align - rem), '\0');
  return Append(zeros.data(), zeros.size());
}

Status MappedFile::WriteAt(uint64_t offset, const void* bytes, size_t n) {
  if (!writable_) {
    return Status::InvalidArgument("write to a read-only mapping");
  }
  if (offset + n > size_) {
    return Status::OutOfRange("WriteAt past the written range");
  }
  if (n == 0) {
    return Status::OK();  // empty buffers may pass data() == nullptr
  }
  std::memcpy(static_cast<char*>(base_) + offset, bytes, n);
  return Status::OK();
}

Status MappedFile::Finish() {
  if (!writable_) {
    return Status::OK();
  }
  if (base_ != nullptr && ::msync(base_, capacity_, MS_SYNC) != 0) {
    return Status::IOError(ErrnoMessage("cannot sync", path_));
  }
  if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
    return Status::IOError(ErrnoMessage("cannot truncate", path_));
  }
  writable_ = false;
  return Status::OK();
}

}  // namespace autocat
