/**
 * @file
 * File I/O primitives for the snapshot subsystem.
 *
 * Three pieces, all on POSIX calls (the project builds on Linux
 * only):
 *
 *  - MappedFile: read-only whole-file access, mmap'd (snapshot loads
 *    parse straight out of the page cache with no copy), falling back
 *    to pread() into a buffer where the filesystem refuses mmap. The
 *    PetPS shm_file idiom, reduced to the read side we need.
 *
 *  - atomicWriteFile(): the write side of crash consistency. Bytes go
 *    to a same-directory temp file, are fsync'd, and the temp file is
 *    rename(2)'d over the destination — readers observe either the
 *    old complete file or the new complete file, never a torn mix.
 *
 *  - listFilesWithSuffix(): sorted directory scan for restore-on-start.
 *
 * All entry points report failures through a *error out-string rather
 * than throwing: snapshot persistence is best-effort by design (a
 * server must keep serving when its disk is full).
 */

#ifndef DAC_SUPPORT_MAPPED_FILE_H
#define DAC_SUPPORT_MAPPED_FILE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dac {

/**
 * Read-only view of an entire file, mmap'd when possible.
 *
 * Move-only; the mapping (or fallback buffer) is released on close()
 * or destruction. An empty file opens successfully with size() == 0.
 */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /**
     * Map `path` read-only. On failure returns false, fills *error
     * (when non-null), and leaves the object closed.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    /** Release the mapping/buffer; safe to call when closed. */
    void close();

    bool isOpen() const { return base != nullptr || opened; }
    const uint8_t *data() const { return base; }
    size_t size() const { return length; }

  private:
    const uint8_t *base = nullptr;
    size_t length = 0;
    bool mapped = false;
    bool opened = false;
    std::vector<uint8_t> fallback;
};

/**
 * Write `len` bytes at `data` to `path` atomically: temp file in the
 * same directory, fsync, rename over the destination, then fsync the
 * directory so the rename itself is durable. Returns false and fills
 * *error (when non-null) on any failure; the destination is never left
 * half-written.
 */
bool atomicWriteFile(const std::string &path, const void *data, size_t len,
                     std::string *error = nullptr);

/**
 * Names (not paths) of regular files in `dir` ending with `suffix`,
 * sorted lexically for deterministic restore order. A missing or
 * unreadable directory yields an empty list.
 */
std::vector<std::string> listFilesWithSuffix(const std::string &dir,
                                             const std::string &suffix);

} // namespace dac

#endif // DAC_SUPPORT_MAPPED_FILE_H
