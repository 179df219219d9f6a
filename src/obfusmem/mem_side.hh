/**
 * @file
 * The memory-side ObfusMem controller: the cryptographic logic that
 * the paper places in the logic layer of the 3D/2.5D memory stack.
 * It decrypts arriving request messages with its own synchronized
 * counters, verifies MACs, drops dummy writes, answers dummy reads
 * with junk, forwards real requests to the PCM banks, and encrypts
 * read replies back onto the channel.
 */

#ifndef OBFUSMEM_OBFUSMEM_MEM_SIDE_HH
#define OBFUSMEM_OBFUSMEM_MEM_SIDE_HH

#include <functional>
#include <vector>

#include "crypto/ctr_mode.hh"
#include "mem/backing_store.hh"
#include "obfusmem/audit_hook.hh"
#include "mem/channel_bus.hh"
#include "mem/pcm_controller.hh"
#include "obfusmem/burst_batch.hh"
#include "obfusmem/params.hh"
#include "obfusmem/wire_format.hh"
#include "sim/sim_object.hh"
#include "util/random.hh"
#include "util/secret.hh"

namespace obfusmem {

class ObfusMemProcSide;

/**
 * One channel's memory-side controller.
 */
class ObfusMemMemSide : public SimObject
{
  public:
    ObfusMemMemSide(const std::string &name, EventQueue &eq,
                    statistics::Group *parent,
                    const ObfusMemParams &params, unsigned channel_id,
                    OBF_SECRET const crypto::Aes128::Key &session_key,
                    ChannelBus &bus, PcmController &pcm,
                    const BackingStore &store, uint64_t dummy_addr);

    /** Deliver a request message that has crossed the bus. */
    void receiveMessage(WireMessage msg);

    /**
     * Wire the processor side for the statically dispatched
     * production reply path (no std::function hop per reply).
     */
    void setProcSide(ObfusMemProcSide *side) { procSide = side; }

    /**
     * Wire a reply intercept. The std::function hop survives as the
     * test/tooling override (fault injection, frame capture); when
     * set it takes precedence over the procSide pointer.
     */
    void
    setReplyTarget(std::function<void(WireMessage &&)> target)
    {
        replyTarget = std::move(target);
    }

    /** The reserved dummy block address for this channel. */
    uint64_t dummyAddr() const { return dummyBlockAddr; }

    uint64_t tamperDetections() const
    {
        return static_cast<uint64_t>(macFailures.value());
    }

    uint64_t desyncEvents() const
    {
        return static_cast<uint64_t>(headerDesyncs.value());
    }

    /** Test hook: skew the request counter to model message loss. */
    void skewRequestCounter(uint64_t delta) { reqCounter += delta; }

    /** Attach the trace auditor's endpoint hook (may be null). */
    void setAuditHook(AuditHook *hook) { audit = hook; }

    /** Pads consumed by this controller (paper Sec. 5.2 accounting). */
    uint64_t padsGenerated() const
    {
        return static_cast<uint64_t>(padsUsed.value());
    }

    /** Resynchronizations performed (recovery). */
    uint64_t resyncCount() const
    {
        return static_cast<uint64_t>(resyncs.value());
    }

    /** Unattributable frames discarded (recovery). */
    uint64_t discardedFrames() const
    {
        return static_cast<uint64_t>(framesDiscarded.value());
    }

    /** Re-key epochs installed on this side (recovery). */
    uint64_t rekeysInstalled() const
    {
        return static_cast<uint64_t>(rekeysCompleted.value());
    }

  private:
    void handleRequest(OBF_SECRET const WireHeader &hdr, bool has_data,
                       OBF_SECRET const DataBlock &plain_data);
    void sendReadReply(const WireHeader &req_hdr,
                       const DataBlock &data);

    // --- Recovery (see obfusmem/recovery.hh) ------------------------

    /**
     * A frame failed data-plane header decryption with recovery on:
     * trial-resync forward on the data stream, interpret it as a
     * control-plane (re-key) frame, or discard it without consuming
     * a counter position.
     */
    void recoverRequestFrame(WireMessage msg);

    /** Jump the request cursor to a verified position, burning pads. */
    void resyncTo(uint64_t base, unsigned phase, WireMessage msg);

    /** Accumulate a re-key request chunk; install when complete. */
    void handleHandshakeChunk(const HandshakeChunk &chunk);

    /** (Re)send the stored handshake response at fresh counters. */
    void sendHandshakeResponse();

    /** Report a pad run / an incident to the auditor, if attached. */
    void auditPads(CounterStream stream, uint64_t first, uint64_t count);
    void auditIncident(ChannelIncident what);

    /** Push a built reply-direction frame onto the bus. */
    void transmitReply(WireMessage msg);

    /** Batch-MAC + seal staged replies, then transmit in order. */
    void flushReplyBurst();

    ObfusMemParams params;
    unsigned channel;
    crypto::AesCtr rxCipher; // processor -> memory direction
    crypto::AesCtr txCipher; // memory -> processor direction
    MacEngine mac;
    ChannelBus &bus;
    PcmController &pcm;
    const BackingStore &store;
    uint64_t dummyBlockAddr;
    Random junkRng;
    AuditHook *audit = nullptr;

    /** Production reply receiver (static dispatch). */
    ObfusMemProcSide *procSide = nullptr;
    /** Test/tooling intercept; overrides procSide when set. */
    std::function<void(WireMessage &&)> replyTarget;

    /** SoA staging for outbound replies of one call chain. */
    BurstBatch replyBurst;

    uint64_t reqCounter = 0;
    /** Which message of the current request group is next (0 or 1). */
    unsigned groupPhase = 0;
    uint64_t respCounter = 0;

    // --- Recovery / control-plane state -----------------------------
    //
    // The control plane is a second pair of CTR streams under a key
    // derived from the boot session key (controlKeyFor); it stays
    // decryptable while the data-plane key is being replaced. Its pad
    // consumption is not reported to the auditor - control traffic is
    // exactly data-shaped on the wire, which is what the auditor's
    // wire-level invariants check.
    crypto::AesCtr ctlRx; // processor -> memory control stream
    crypto::AesCtr ctlTx; // memory -> processor control stream
    /** Next expected control-group base on the rx control stream. */
    uint64_t ctlCursor = 0;
    /** Control reply counter on the tx control stream. */
    uint64_t ctlRespCounter = 0;
    Random rekeyRng;
    /** Last re-key epoch whose key this side installed (0 = none). */
    uint32_t installedEpoch = 0;
    /** In-progress handshake-chunk collection. */
    HandshakeCollector collect;
    /** Stored response payloads for idempotent resends. */
    std::vector<DataBlock> respPayloads;

    statistics::Scalar realReads, realWrites;
    statistics::Scalar dummyReadsAnswered, dummyWritesDropped;
    statistics::Scalar dummyPcmAccesses;
    statistics::Scalar macFailures, headerDesyncs;
    statistics::Scalar padsUsed;
    statistics::Scalar framesDiscarded, resyncs, rekeysCompleted;
    statistics::Scalar retiredZero;
};

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_MEM_SIDE_HH
