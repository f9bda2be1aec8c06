#ifndef AUTOCAT_STORE_MAPPED_FILE_H_
#define AUTOCAT_STORE_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"

namespace autocat {

/// A memory-mapped file, read-only or growable read-write. This is the
/// only translation unit in the tree allowed to issue raw
/// open/ftruncate/mmap syscalls (enforced by the raw-mmap lint rule) —
/// everything above it works with Status-checked byte ranges.
///
/// Read-write mode (Create) grows the file in large ftruncate steps and
/// remaps the whole range, so `Append` is a bounds-checked memcpy;
/// `Finish` truncates to the logical size and syncs. Read-only mode
/// (OpenReadOnly) maps the entire file once — the store's zero-copy
/// substrate; spans handed out by the reader stay valid for the lifetime
/// of the MappedFile, which tables retain via shared_ptr.
///
/// Not thread-safe during writes; a finished/read-only mapping is
/// immutable and safe to read from any thread.
class MappedFile {
 public:
  /// Creates (or truncates) `path` for writing.
  static Result<std::unique_ptr<MappedFile>> Create(const std::string& path);

  /// Maps an existing file read-only in one contiguous mapping.
  static Result<std::unique_ptr<MappedFile>> OpenReadOnly(
      const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const char* data() const { return static_cast<const char*>(base_); }
  /// Logical size: bytes written (rw) or file size (ro).
  uint64_t size() const { return size_; }
  bool writable() const { return writable_; }

  /// Appends `n` bytes, growing and remapping as needed (rw only).
  Status Append(const void* bytes, size_t n);

  /// Appends zero bytes until the logical size is a multiple of `align`.
  Status PadTo(uint64_t align);

  /// Overwrites `n` bytes at `offset` within the already-written range
  /// (used to patch the header after the catalog lands).
  Status WriteAt(uint64_t offset, const void* bytes, size_t n);

  /// Syncs, truncates the file to the logical size, and drops write
  /// access (the mapping stays readable).
  Status Finish();

  /// Unmaps the whole pages inside [data, data + n) from this process
  /// (read-only mappings; a no-op otherwise). The page cache keeps them,
  /// so the next read maps them back without I/O while it holds them. A
  /// pass that reads a region once, such as open-time validation, calls
  /// it so that the pass does not leave the region resident.
  void ReleasePages(const void* data, size_t n) const;

 private:
  MappedFile() = default;

  Status EnsureCapacity(uint64_t capacity);

  void* base_ = nullptr;
  uint64_t size_ = 0;      // logical bytes
  uint64_t capacity_ = 0;  // mapped/ftruncated bytes
  int fd_ = -1;
  bool writable_ = false;
  std::string path_;
};

}  // namespace autocat

#endif  // AUTOCAT_STORE_MAPPED_FILE_H_
