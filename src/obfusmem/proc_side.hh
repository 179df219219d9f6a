/**
 * @file
 * The processor-side ObfusMem controller (paper Fig. 3): encrypts
 * commands, addresses and (already memory-encrypted) data with
 * per-channel session keys and counters, pairs every real request
 * with a dummy of the opposite type so the bus always shows
 * read-then-write groups, and injects dummy groups on other channels
 * per the UNOPT/OPT inter-channel schemes.
 */

#ifndef OBFUSMEM_OBFUSMEM_PROC_SIDE_HH
#define OBFUSMEM_OBFUSMEM_PROC_SIDE_HH

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/ctr_mode.hh"
#include "crypto/dh.hh"
#include "mem/address_map.hh"
#include "obfusmem/audit_hook.hh"
#include "mem/channel_bus.hh"
#include "mem/packet.hh"
#include "obfusmem/burst_batch.hh"
#include "obfusmem/params.hh"
#include "obfusmem/wire_format.hh"
#include "sim/sim_object.hh"
#include "util/random.hh"
#include "util/secret.hh"

namespace obfusmem {

class ObfusMemMemSide;

/**
 * The processor-side controller for all channels. Implements MemSink,
 * sitting below the memory-encryption engine.
 */
class ObfusMemProcSide : public SimObject, public MemSink
{
  public:
    /**
     * @param session_keys One AES session key per channel (from the
     *        boot-time DH exchange).
     * @param buses One ChannelBus per channel.
     * @param dummy_addrs Reserved dummy block address per channel.
     */
    ObfusMemProcSide(const std::string &name, EventQueue &eq,
                     statistics::Group *parent,
                     const ObfusMemParams &params,
                     const AddressMap &map,
                     OBF_SECRET const std::vector<crypto::Aes128::Key>
                         &session_keys,
                     const std::vector<ChannelBus *> &buses,
                     const std::vector<uint64_t> &dummy_addrs);

    void access(MemPacket pkt, PacketCallback cb) override;

    /**
     * Wire a channel's memory side for the statically dispatched
     * production path. Delivery calls receiveMessage through this
     * pointer directly — no std::function hop per message.
     */
    void
    setMemSide(unsigned channel, ObfusMemMemSide *side)
    {
        channelState[channel].memSide = side;
    }

    /**
     * Wire a request intercept for a channel. The std::function hop
     * survives as the test/tooling override (fault injection, frame
     * capture); when set it takes precedence over the memSide pointer.
     */
    void
    setRequestTarget(unsigned channel,
                     std::function<void(WireMessage &&)> target)
    {
        channelState[channel].toMem = std::move(target);
    }

    /** Replies delivered from a channel's memory side. */
    void receiveReply(unsigned channel, WireMessage &&msg);

    uint64_t tamperDetections() const
    {
        return static_cast<uint64_t>(macFailures.value());
    }

    uint64_t desyncEvents() const
    {
        return static_cast<uint64_t>(headerDesyncs.value());
    }

    uint64_t padsGenerated() const
    {
        return static_cast<uint64_t>(padsUsed.value());
    }

    uint64_t dummyGroupsInjected() const
    {
        return static_cast<uint64_t>(channelFillGroups.value());
    }

    /** Test hook: skew a channel's response counter. */
    void
    skewResponseCounter(unsigned channel, uint64_t delta)
    {
        channelState[channel].respCounter += delta;
    }

    /** Attach the trace auditor's endpoint hook (may be null). */
    void setAuditHook(AuditHook *hook) { audit = hook; }

    // --- Recovery observability (tests / tools) ---------------------

    uint64_t retransmitCount() const
    {
        return static_cast<uint64_t>(retransmits.value());
    }

    uint64_t resyncCount() const
    {
        return static_cast<uint64_t>(resyncs.value());
    }

    uint64_t discardedFrames() const
    {
        return static_cast<uint64_t>(framesDiscarded.value());
    }

    uint64_t rekeysStartedCount() const
    {
        return static_cast<uint64_t>(rekeysStarted.value());
    }

    uint64_t rekeysCompletedCount() const
    {
        return static_cast<uint64_t>(rekeysCompleted.value());
    }

    uint64_t quarantineCount() const
    {
        return static_cast<uint64_t>(quarantines.value());
    }

    bool channelQuarantined(unsigned channel) const
    {
        return channelState[channel].health
               == ChannelHealth::Quarantined;
    }

  private:
    /** Link state of one channel under the recovery protocol. */
    enum class ChannelHealth : uint8_t
    {
        Active,      ///< normal operation
        Rekeying,    ///< handshake in flight, data traffic held
        Quarantined, ///< re-key failed repeatedly; out of service
    };

    struct PendingRead
    {
        MemPacket pkt;
        PacketCallback cb;
        bool dummy = false;
        /**
         * Retry state: when and how often the group was (re)sent, and
         * its plaintext contents so it can be rebuilt verbatim at
         * fresh counters (retransmits must never reuse a pad).
         */
        Tick lastSend = 0;
        unsigned attempts = 0;
        /** Plaintext headers/payload held for rebuild: secret until
         * re-encrypted at fresh counters. */
        OBF_SECRET WireHeader rbFirst{};
        OBF_SECRET WireHeader rbSecond{};
        OBF_SECRET DataBlock rbPayload{};
    };

    /** A write group waiting in the controller's write buffer. */
    struct QueuedWrite
    {
        MemPacket pkt;
        PacketCallback cb;
    };

    struct ChannelState
    {
        crypto::AesCtr tx; // processor -> memory
        crypto::AesCtr rx; // memory -> processor
        uint64_t reqCounter = 0;
        uint64_t respCounter = 0;
        uint16_t nextTag = 1;
        unsigned outstandingReads = 0;
        uint64_t dummyAddr = 0;
        ChannelBus *bus = nullptr;
        /** Production receiver (static dispatch). */
        ObfusMemMemSide *memSide = nullptr;
        /** Test/tooling intercept; overrides memSide when set. */
        std::function<void(WireMessage &&)> toMem;
        std::unordered_map<uint16_t, PendingRead> pending;
        std::deque<QueuedWrite> writeQueue;
        bool drainingWrites = false;
        /** Timing-oblivious mode: FIFO of requests awaiting an
         * epoch slot, and whether the heartbeat is running. */
        std::deque<QueuedWrite> epochQueue;
        bool heartbeatActive = false;

        // --- Recovery / control-plane state -------------------------
        ChannelHealth health = ChannelHealth::Active;
        /** One rearming watchdog event per channel (wheel events
         * cannot be cancelled; the tick stops itself when idle). */
        bool watchdogActive = false;
        /** Control streams under controlKeyFor(session key): stay
         * decryptable while the data-plane key is replaced. */
        crypto::AesCtr ctlTx;
        crypto::AesCtr ctlRx;
        uint64_t ctlReqCounter = 0;
        /** Next expected control reply counter. */
        uint64_t ctlRespCursor = 0;
        /** Re-key handshake in flight. */
        uint32_t rekeyEpoch = 0;
        unsigned rekeyAttempts = 0;
        Tick rekeySentTick = 0;
        std::unique_ptr<crypto::DhEndpoint> dh;
        /** Response-chunk collection for the current epoch. */
        uint32_t respCollectEpoch = 0;
        uint8_t respCollectTotal = 0;
        uint32_t respCollectMask = 0;
        std::array<HandshakeChunk, 8> respChunks{};
        /** Requests held while the channel re-keys. */
        std::deque<QueuedWrite> rekeyHold;
    };

    /** Route one request after the front-end latency (health-aware). */
    void dispatch(unsigned channel, MemPacket pkt, PacketCallback cb);

    /** Send one request group (real + paired dummy) on a channel. */
    void sendGroup(unsigned channel, MemPacket pkt, PacketCallback cb);

    /** Drain buffered write groups per the read-priority policy. */
    void maybeDrainWrites(unsigned channel);

    /** Start heartbeats on every channel (timing-oblivious mode). */
    void ensureHeartbeats();

    /** One epoch tick of a channel's timing-oblivious issue slot. */
    void heartbeat(unsigned channel);

    /** True when nothing is queued or in flight anywhere. */
    bool quiescent() const;

    /** Send an all-dummy group (inter-channel fill). */
    void sendDummyGroup(unsigned channel);

    /** Inject dummies on other channels per the configured scheme. */
    void injectChannelDummies(unsigned active_channel);

    /**
     * Back half of the batch pipeline: batch-MAC + seal every staged
     * frame, then enqueue each on its channel's bus in stage order.
     */
    void flushBurst();

    /** Enqueue one sealed frame (bus callback owns the delivery). */
    void deliverStaged(unsigned channel, WireMessage &&msg,
                       BurstBatch::Completion &&done);

    uint64_t dummyAddrFor(unsigned channel, uint64_t real_addr);
    uint16_t allocTag(ChannelState &cs);

    // --- Recovery (see obfusmem/recovery.hh) ------------------------

    /** Arm the per-channel retry watchdog if it is not running. */
    void ensureWatchdog(unsigned channel);

    /** One watchdog period: retransmit overdue groups, escalate. */
    void watchdogTick(unsigned channel);

    /** Rebuild and resend a pending group at fresh counters. */
    void retransmitGroup(unsigned channel, uint16_t tag);

    /** Retries exhausted: renegotiate the channel's session key. */
    void startRekey(unsigned channel);

    /** Send (or resend) the handshake for the next epoch attempt. */
    void sendRekeyRequest(unsigned channel);

    /** Send one request-group-shaped frame pair on the control plane. */
    void sendControlGroup(unsigned channel, const DataBlock &payload);

    /**
     * A reply frame failed header decryption with recovery enabled:
     * trial-resync forward on the reply stream, interpret it as a
     * control-plane response, or discard it without consuming a
     * counter position.
     */
    void recoverReplyFrame(unsigned channel, WireMessage msg);

    /** Accumulate a handshake-response chunk from the memory side. */
    void handleControlReply(unsigned channel,
                            const HandshakeChunk &chunk);

    /** Install the new epoch key and replay outstanding groups. */
    void finishRekey(unsigned channel,
                     const std::vector<uint8_t> &peer_pub);

    /** Give up on a channel after repeated re-key failures. */
    void quarantineChannel(unsigned channel);

    /** Report a request-stream pad run to the auditor, if attached. */
    void notifyPads(unsigned channel, CounterStream stream,
                    uint64_t first, uint64_t count);

    ObfusMemParams params;
    const AddressMap &addrMap;
    MacEngine mac;
    /** SoA staging for all outbound frames of one call chain. */
    BurstBatch burst;
    std::vector<ChannelState> channelState;
    Random junkRng;
    Random rekeyRng{0xa11ce000};
    AuditHook *audit = nullptr;

    statistics::Scalar realReads, realWrites;
    statistics::Scalar pairedDummies;
    statistics::Scalar channelFillGroups;
    statistics::Scalar repliesDiscarded;
    statistics::Scalar macFailures, headerDesyncs;
    statistics::Scalar padsUsed;
    statistics::Scalar forwardedFromWriteQueue;
    statistics::Scalar realFillSubstitutions;
    statistics::Scalar pairSubstitutions;
    statistics::Scalar retransmits, framesDiscarded, resyncs;
    statistics::Scalar rekeysStarted, rekeysCompleted, quarantines;
    statistics::Scalar requestsDropped;
    statistics::Scalar retiredZero;
};

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_PROC_SIDE_HH
