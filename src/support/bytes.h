/**
 * @file
 * The one little-endian byte codec. Every binary format the repo
 * writes — snapshot payloads (persist/), wire frame headers and wire
 * payloads (net/) — is written by ByteWriter and read back by
 * ByteReader, so the encoding rules live in exactly one place:
 *
 *  - integers are fixed-width little-endian, independent of the host;
 *  - doubles are their IEEE-754 bit patterns (bit_cast through
 *    uint64_t), so a value round-trips EXACTLY — a reloaded model
 *    predicts bit-identically and a tuned configuration decoded from
 *    the wire equals the one the service produced;
 *  - strings and arrays are a u32 count followed by the elements.
 *
 * ByteReader never reads past the end: every getter checks remaining()
 * first and throws the reader's Error type on overrun, and count()
 * rejects an array count that cannot fit in the bytes left before the
 * caller sizes anything from it. Each format picks the error it
 * surfaces: a snapshot reader throws persist::DecodeError (Corrupt), a
 * wire reader net::ProtocolError. Both formats read untrusted bytes —
 * a hostile file, a hostile peer — and the corruption batteries run
 * them under ASan to hold the no-overrun line.
 */

#ifndef DAC_SUPPORT_BYTES_H
#define DAC_SUPPORT_BYTES_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dac {

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /** Continue appending to `bytes` (e.g. a buffer of earlier
     *  frames); take() hands it back. */
    explicit ByteWriter(std::vector<uint8_t> bytes) : buf(std::move(bytes))
    {}

    void u8(uint8_t v) { buf.push_back(v); }
    void u16(uint16_t v) { put(v, 2); }
    void u32(uint32_t v) { put(v, 4); }
    void u64(uint64_t v) { put(v, 8); }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    // Out of line (bytes.cc): keeps the bulk-insert out of callers'
    // inlining scope, where GCC 12 trips false -Wstringop warnings.
    void str(const std::string &s);

    size_t size() const { return buf.size(); }
    const std::vector<uint8_t> &bytes() const { return buf; }
    std::vector<uint8_t> take() { return std::move(buf); }

  private:
    // Out of line (bytes.cc) too: inlined, its byte stores more than
    // tripled the code of encodeTuneResponse, and a reply is
    // serialized with caches the GA search has just evicted.
    void put(uint64_t v, int width);

    std::vector<uint8_t> buf;
};

/**
 * Bounds-checked little-endian decoder over a borrowed buffer. Every
 * failure throws `Error(message)`: the format's own error type.
 */
template <class Error>
class ByteReader
{
  public:
    /** Default cap on one string's length: a snapshot's strings are
     *  short names, so anything longer is a corrupt length prefix. */
    static constexpr size_t kMaxString = size_t{1} << 16;

    ByteReader(const uint8_t *data, size_t len,
               size_t max_string = kMaxString)
        : p(data), end(data + len), maxString(max_string)
    {}

    size_t remaining() const { return static_cast<size_t>(end - p); }

    uint8_t
    u8()
    {
        need(1, "u8");
        return *p++;
    }

    uint16_t u16() { return static_cast<uint16_t>(get(2, "u16")); }
    uint32_t u32() { return static_cast<uint32_t>(get(4, "u32")); }
    uint64_t u64() { return get(8, "u64"); }
    int32_t i32() { return static_cast<int32_t>(u32()); }
    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const uint32_t n = u32();
        if (n > maxString)
            throw Error("string length " + std::to_string(n) +
                        " exceeds limit");
        need(n, "string body");
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }

    /**
     * Array-count prefix, capped so a corrupt count cannot drive a
     * multi-gigabyte allocation before the element reads run dry.
     * `elem_bytes` is the minimum encoded size of one element; a count
     * that could not possibly fit in the remaining bytes is rejected
     * up front.
     */
    uint32_t
    count(size_t elem_bytes, const char *what)
    {
        const uint32_t n = u32();
        if (elem_bytes > 0 &&
            static_cast<uint64_t>(n) * elem_bytes > remaining()) {
            throw Error(std::string(what) + " count " + std::to_string(n) +
                        " overruns the payload");
        }
        return n;
    }

    /** Throws unless every byte was consumed. */
    void
    expectEnd() const
    {
        if (p != end)
            throw Error("trailing bytes after payload");
    }

  private:
    uint64_t
    get(int width, const char *what)
    {
        need(static_cast<size_t>(width), what);
        uint64_t v = 0;
        for (int i = 0; i < width; ++i)
            v |= static_cast<uint64_t>(p[i]) << (8 * i);
        p += width;
        return v;
    }

    void
    need(size_t n, const char *what) const
    {
        if (remaining() < n)
            throw Error(std::string("payload overrun reading ") + what);
    }

    const uint8_t *p;
    const uint8_t *end;
    size_t maxString;
};

} // namespace dac

#endif // DAC_SUPPORT_BYTES_H
