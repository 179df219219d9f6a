/**
 * @file
 * Shared configuration of the ObfusMem controllers on both ends of a
 * channel.
 */

#ifndef OBFUSMEM_OBFUSMEM_PARAMS_HH
#define OBFUSMEM_OBFUSMEM_PARAMS_HH

#include "obfusmem/mac_engine.hh"
#include "obfusmem/recovery.hh"
#include "sim/types.hh"

namespace obfusmem {

/** Address assigned to dummy requests (paper Sec. 3.3). */
enum class DummyPolicy
{
    /** Reserved per-channel block; enables dropping at the memory. */
    Fixed,
    /** Same address as the real request (wear/energy ablation). */
    Original,
    /** Uniformly random address (locality-loss ablation). */
    Random,
};

/** Inter-channel obfuscation scheme (paper Sec. 3.4). */
enum class ChannelScheme
{
    /** No cross-channel dummies (leaks inter-channel pattern). */
    None,
    /** Dummy on every other channel per real request (UNOPT). */
    Unopt,
    /** Dummy only on idle channels (OPT). */
    Opt,
};

/** ObfusMem controller parameters. */
struct ObfusMemParams
{
    /** Authenticate bus messages with the MAC engine. */
    bool auth = true;
    MacEngine::Params mac{};

    DummyPolicy dummyPolicy = DummyPolicy::Fixed;
    ChannelScheme channelScheme = ChannelScheme::Opt;

    /**
     * InvisiMem-style alternative (paper Sec. 7): instead of split
     * read-then-write dummy pairs, every request message carries a
     * full-size payload (junk for reads) and every request gets a
     * full-size reply (junk for writes), so sizes reveal nothing.
     * Costs bus bandwidth unconditionally, which is why the paper's
     * split scheme wins under load.
     */
    bool uniformPackets = false;

    /** Session Key Table lookup (one core cycle). */
    Tick keyTableLatency = 500;
    /** XOR of pregenerated pad with header/data. */
    Tick xorLatency = 1 * tickPerNs;

    /**
     * Data-bus bytes of the encrypted header. Zero models a DDR-like
     * phy where the 128-bit header rides the command/address pins
     * over a few command slots.
     */
    uint32_t headerWireBytes = 0;
    /**
     * Data-bus bytes of the MAC (the 128-bit MD5 tag is truncated on
     * the wire, as is common for bus MACs).
     */
    uint32_t macWireBytes = 8;

    /**
     * Controller write buffering: write groups are held off the
     * channel while reads are outstanding, draining when the channel
     * is otherwise idle or the buffer passes the high watermark.
     */
    unsigned writeQueueHighWatermark = 16;
    unsigned writeQueueLowWatermark = 4;
    /** Cap on in-flight request groups per channel (tag budget). */
    unsigned maxOutstandingGroups = 64;

    /**
     * Timing-oblivious operation (paper Sec. 6.2 future work): each
     * channel issues exactly one request group per epoch - a queued
     * real request if one exists, a dummy group otherwise - and the
     * memory services dummies like real accesses (no dropping), so
     * request *timing* reveals nothing either. Heartbeats pause only
     * when the whole controller is quiescent.
     */
    bool timingOblivious = false;
    /** Issue epoch per channel in timing-oblivious mode. */
    Tick issueEpoch = 60 * tickPerNs;

    /** Link-recovery subsystem (retry / resync / re-key) knobs. */
    RecoveryParams recovery = defaultRecoveryParams();
};

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_PARAMS_HH
