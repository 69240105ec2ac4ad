#include "support/bytes.h"

namespace dac {

void
ByteWriter::put(uint64_t v, int width)
{
    uint8_t bytes[8];
    for (int i = 0; i < width; ++i)
        bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    buf.insert(buf.end(), bytes, bytes + width);
}

void
ByteWriter::str(const std::string &s)
{
    u32(static_cast<uint32_t>(s.size()));
    const uint8_t *p = reinterpret_cast<const uint8_t *>(s.data());
    buf.insert(buf.end(), p, p + s.size());
}

} // namespace dac
