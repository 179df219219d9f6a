/**
 * @file
 * Tiny binary stream-serialization helpers for checkpoint/restore.
 *
 * System::serializeBackend/restoreBackend (system/system.hh) and the
 * functional ORAM structures write host-endian fixed-width fields
 * through these; a checkpoint is a
 * same-host artifact (resume-from-checkpoint on the machine that
 * wrote it), so no endian conversion is performed. Readers return
 * false on a short or malformed stream instead of throwing, letting
 * deserialize() report a clean failure.
 */

#ifndef OBFUSMEM_UTIL_SERIAL_HH
#define OBFUSMEM_UTIL_SERIAL_HH

#include <cstdint>
#include <istream>
#include <ostream>

namespace obfusmem {
namespace serial {

inline void
putU64(std::ostream &os, uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

inline bool
getU64(std::istream &is, uint64_t &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return static_cast<bool>(is);
}

inline void
putBytes(std::ostream &os, const void *data, size_t len)
{
    os.write(static_cast<const char *>(data),
             static_cast<std::streamsize>(len));
}

inline bool
getBytes(std::istream &is, void *data, size_t len)
{
    is.read(static_cast<char *>(data),
            static_cast<std::streamsize>(len));
    return static_cast<bool>(is);
}

/** Read a u64 and check it equals @p expect (format/version tags). */
inline bool
expectU64(std::istream &is, uint64_t expect)
{
    uint64_t v = 0;
    return getU64(is, v) && v == expect;
}

} // namespace serial
} // namespace obfusmem

#endif // OBFUSMEM_UTIL_SERIAL_HH
