#include "support/mapped_file.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

namespace dac {
namespace {

void
setError(std::string *error, const std::string &what)
{
    if (error != nullptr)
        *error = what + ": " + std::strerror(errno);
}

} // namespace

MappedFile::~MappedFile()
{
    close();
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : base(other.base), length(other.length), mapped(other.mapped),
      opened(other.opened), fallback(std::move(other.fallback))
{
    other.base = nullptr;
    other.length = 0;
    other.mapped = false;
    other.opened = false;
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        close();
        base = other.base;
        length = other.length;
        mapped = other.mapped;
        opened = other.opened;
        fallback = std::move(other.fallback);
        other.base = nullptr;
        other.length = 0;
        other.mapped = false;
        other.opened = false;
    }
    return *this;
}

void
MappedFile::close()
{
    if (mapped && base != nullptr)
        ::munmap(const_cast<uint8_t *>(base), length);
    base = nullptr;
    length = 0;
    mapped = false;
    opened = false;
    fallback.clear();
    fallback.shrink_to_fit();
}

bool
MappedFile::open(const std::string &path, std::string *error)
{
    close();
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        setError(error, "open " + path);
        return false;
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        setError(error, "fstat " + path);
        ::close(fd);
        return false;
    }
    if (!S_ISREG(st.st_mode)) {
        if (error != nullptr)
            *error = "open " + path + ": not a regular file";
        ::close(fd);
        return false;
    }
    length = static_cast<size_t>(st.st_size);
    if (length == 0) {
        // mmap(len=0) is EINVAL; an empty file is a valid (empty) view.
        ::close(fd);
        opened = true;
        return true;
    }
    void *m = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
    if (m != MAP_FAILED) {
        ::close(fd);
        base = static_cast<const uint8_t *>(m);
        mapped = true;
        opened = true;
        return true;
    }
    // Some filesystems refuse mmap; fall back to a plain read.
    fallback.resize(length);
    size_t got = 0;
    while (got < length) {
        ssize_t n = ::pread(fd, fallback.data() + got, length - got,
                            static_cast<off_t>(got));
        if (n <= 0) {
            setError(error, "read " + path);
            ::close(fd);
            close();
            return false;
        }
        got += static_cast<size_t>(n);
    }
    ::close(fd);
    base = fallback.data();
    opened = true;
    return true;
}

bool
atomicWriteFile(const std::string &path, const void *data, size_t len,
                std::string *error)
{
    // The temp file must live in the destination's directory: rename
    // is only atomic within one filesystem.
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) {
        setError(error, "create " + tmp);
        return false;
    }
    const uint8_t *p = static_cast<const uint8_t *>(data);
    size_t put = 0;
    while (put < len) {
        ssize_t n = ::write(fd, p + put, len - put);
        if (n <= 0 && errno != EINTR) {
            setError(error, "write " + tmp);
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        if (n > 0)
            put += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
        setError(error, "fsync " + tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        setError(error, "close " + tmp);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        setError(error, "rename " + tmp + " -> " + path);
        ::unlink(tmp.c_str());
        return false;
    }
    // Make the rename itself durable: fsync the containing directory.
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

std::vector<std::string>
listFilesWithSuffix(const std::string &dir, const std::string &suffix)
{
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (ec)
            break;
        std::error_code typeEc;
        if (!entry.is_regular_file(typeEc) || typeEc)
            continue;
        std::string name = entry.path().filename().string();
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            names.push_back(std::move(name));
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace dac
