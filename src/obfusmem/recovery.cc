/**
 * @file
 * Recovery knobs and control-plane key schedule.
 */

#include "obfusmem/recovery.hh"

#include <algorithm>

#include "crypto/bytes.hh"
#include "crypto/md5.hh"
#include "util/env.hh"

namespace obfusmem {

RecoveryParams
RecoveryParams::fromEnv()
{
    RecoveryParams p;
    p.enabled = env::u64("OBFUSMEM_RECOVERY", 1) != 0;
    p.retryTimeout =
        env::u64("OBFUSMEM_RETRY_TIMEOUT_NS", 50000) * tickPerNs;
    p.retryMax = static_cast<unsigned>(
        env::u64("OBFUSMEM_RETRY_MAX", p.retryMax));
    p.resyncWindowGroups = static_cast<unsigned>(
        env::u64("OBFUSMEM_RESYNC_WINDOW", p.resyncWindowGroups));
    p.rekeyMaxAttempts = static_cast<unsigned>(
        env::u64("OBFUSMEM_REKEY_MAX", p.rekeyMaxAttempts));
    return p;
}

const RecoveryParams &
defaultRecoveryParams()
{
    static const RecoveryParams latched = RecoveryParams::fromEnv();
    return latched;
}

crypto::Aes128::Key
controlKeyFor(const crypto::Aes128::Key &session)
{
    crypto::Md5 md5;
    md5.update(session.data(), session.size());
    static const uint8_t label[] = {'c', 't', 'l'};
    md5.update(label, sizeof(label));
    crypto::Md5Digest d = md5.finalize();
    crypto::Aes128::Key key;
    std::copy(d.begin(), d.end(), key.begin());
    // The digest *is* the control key; scrub the stack copy.
    crypto::secureZero(d);
    return key;
}

crypto::Aes128::Key
epochSessionKey(OBF_SECRET const crypto::Aes128::Key &dh_key,
                uint32_t epoch, unsigned channel)
{
    crypto::Md5 md5;
    md5.update(dh_key.data(), dh_key.size());
    uint8_t ctx[16];
    crypto::storeLe64(ctx, epoch);
    crypto::storeLe64(ctx + 8, channel);
    md5.update(ctx, sizeof(ctx));
    crypto::Md5Digest d = md5.finalize();
    crypto::Aes128::Key key;
    std::copy(d.begin(), d.end(), key.begin());
    // The digest *is* the epoch data-plane key; scrub the stack copy.
    crypto::secureZero(d);
    return key;
}

std::optional<WireHeader>
trialDecrypt(const crypto::AesCtr &stream, uint64_t pos,
             const WireMessage &msg, const MacEngine &mac, bool auth)
{
    std::optional<WireHeader> hdr =
        decryptHeader(stream, pos, msg.cipherHeader);
    if (hdr && auth && (!msg.hasMac || !mac.verify(*hdr, pos, msg.mac)))
        return std::nullopt;
    return hdr;
}

} // namespace obfusmem
