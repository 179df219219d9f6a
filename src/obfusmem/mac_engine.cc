/**
 * @file
 * MacEngine implementation.
 */

#include "obfusmem/mac_engine.hh"

#include <vector>

#include "crypto/bytes.hh"
#include "crypto/md5_lanes.hh"

namespace obfusmem {

namespace {

/** The MAC preimage: H(r | a | c) per the paper. */
constexpr size_t macMsgLen = 17;

void
packMacMessage(const WireHeader &hdr, uint64_t counter,
               uint8_t buf[macMsgLen])
{
    buf[0] = hdr.cmd == MemCmd::Write ? 1 : 0;
    crypto::storeLe64(buf + 1, hdr.addr);
    crypto::storeLe64(buf + 9, counter);
}

} // namespace

crypto::Md5Digest
MacEngine::compute(const WireHeader &hdr, uint64_t counter) const
{
    uint8_t buf[macMsgLen];
    packMacMessage(hdr, counter, buf);
    return crypto::Md5::digest(buf, sizeof(buf));
}

size_t
MacEngine::computeBatch(const WireHeader *hdrs,
                        const uint64_t *counters,
                        crypto::Md5Digest *out, size_t n) const
{
    // Pack the preimages contiguously and hand the whole batch to the
    // MD5 lanes: eight tags per AVX2 compression instead of one scalar
    // digest per message. Groups are small (2 messages), so the win
    // comes from the BurstBatch pipeline flushing many groups at once.
    constexpr size_t maxStack = 64;
    if (n <= maxStack) {
        uint8_t msgs[maxStack * macMsgLen];
        for (size_t i = 0; i < n; ++i)
            packMacMessage(hdrs[i], counters[i], msgs + i * macMsgLen);
        return crypto::md5ShortBatch(msgs, macMsgLen, macMsgLen, n, out);
    }
    std::vector<uint8_t> msgs(n * macMsgLen);
    for (size_t i = 0; i < n; ++i)
        packMacMessage(hdrs[i], counters[i], msgs.data() + i * macMsgLen);
    return crypto::md5ShortBatch(msgs.data(), macMsgLen, macMsgLen, n,
                                 out);
}

bool
MacEngine::verify(const WireHeader &hdr, uint64_t counter,
                  const crypto::Md5Digest &mac) const
{
    // Tag comparison must not leak the matching prefix length.
    return crypto::ctEqual(compute(hdr, counter), mac);
}

} // namespace obfusmem
