/**
 * @file
 * The snapshot format's errors and its binding of the shared byte
 * codec (support/bytes.h, which holds the encoding rules).
 *
 * By the time a snapshot payload is read, it has already passed its
 * CRC, so an overrun means a bug or a deliberately hostile file —
 * either way the loader surfaces a typed error instead of touching
 * out-of-bounds memory: ByteReader here throws DecodeError, which
 * decodeSnapshot reports as SnapshotError::Corrupt.
 */

#ifndef DAC_PERSIST_BYTES_H
#define DAC_PERSIST_BYTES_H

#include <stdexcept>
#include <string>

#include "support/bytes.h"

namespace dac::persist {

/** Typed snapshot load failures, ordered by detection stage. */
enum class SnapshotError
{
    None = 0,
    /** File missing or unreadable. */
    IoError,
    /** Shorter than a header, or payload shorter than declared. */
    Truncated,
    /** First four bytes are not the snapshot magic. */
    BadMagic,
    /** Header bytes fail their own CRC. */
    BadHeaderChecksum,
    /** Format version this reader does not speak. */
    BadVersion,
    /** Reserved header fields carry unexpected bits. */
    BadFlags,
    /** File length disagrees with the declared payload length. */
    BadLength,
    /** Payload bytes fail the payload CRC. */
    BadChecksum,
    /** Payload parsed but violates structural invariants. */
    Corrupt,
    /** Payload encodes a model kind this build cannot rebuild. */
    UnsupportedModel,
};

/** Stable lowercase name for logs, CLI output, and tests. */
const char *snapshotErrorName(SnapshotError error);

/**
 * Thrown by ByteReader and the payload parsers; decodeSnapshot
 * catches it at the top and converts to a SnapshotLoadResult.
 */
class DecodeError : public std::runtime_error
{
  public:
    /** A payload that violates the format's structure: Corrupt. This
     *  is what ByteReader throws on an overrun. */
    explicit DecodeError(const std::string &message)
        : DecodeError(SnapshotError::Corrupt, message)
    {}

    DecodeError(SnapshotError code, const std::string &message)
        : std::runtime_error(message), _code(code)
    {}

    SnapshotError code() const { return _code; }

  private:
    SnapshotError _code;
};

/** Snapshot payload reader: every overrun is a Corrupt DecodeError. */
using ByteReader = dac::ByteReader<DecodeError>;

} // namespace dac::persist

#endif // DAC_PERSIST_BYTES_H
