/**
 * @file
 * ObfusMemMemSide implementation.
 */

#include "obfusmem/mem_side.hh"

#include <algorithm>

#include "crypto/dh.hh"
#include "obfusmem/proc_side.hh"
#include "util/assert.hh"
#include "util/logging.hh"

namespace obfusmem {

ObfusMemMemSide::ObfusMemMemSide(const std::string &name,
                                 EventQueue &eq,
                                 statistics::Group *parent,
                                 const ObfusMemParams &params_,
                                 unsigned channel_id,
                                 const crypto::Aes128::Key &session_key,
                                 ChannelBus &bus_, PcmController &pcm_,
                                 const BackingStore &store_,
                                 uint64_t dummy_addr)
    : SimObject(name, eq, parent), params(params_), channel(channel_id),
      rxCipher(session_key, 2ull * channel_id),
      txCipher(session_key, 2ull * channel_id + 1), mac(params_.mac),
      bus(bus_), pcm(pcm_), store(store_), dummyBlockAddr(dummy_addr),
      junkRng(0x5eed0000 + channel_id),
      ctlRx(controlKeyFor(session_key),
            controlNonceBase + 2ull * channel_id),
      ctlTx(controlKeyFor(session_key),
            controlNonceBase + 2ull * channel_id + 1),
      rekeyRng(0x4ec00000 + channel_id)
{
    stats().addScalar("realReads", &realReads,
                      "real read requests forwarded to PCM");
    stats().addScalar("realWrites", &realWrites,
                      "real write requests forwarded to PCM");
    stats().addScalar("dummyReadsAnswered", &dummyReadsAnswered,
                      "dummy reads answered with junk (no PCM access)");
    stats().addScalar("dummyWritesDropped", &dummyWritesDropped,
                      "dummy writes discarded at arrival");
    stats().addScalar("dummyPcmAccesses", &dummyPcmAccesses,
                      "dummy requests that hit PCM (non-fixed policy)");
    stats().addScalar("macFailures", &macFailures,
                      "MAC mismatches (tampering detected)");
    stats().addScalar("headerDesyncs", &headerDesyncs,
                      "undecryptable headers (counter desync)");
    stats().addScalar("padsUsed", &padsUsed,
                      "128-bit pads consumed by this controller");
    stats().addScalar("framesDiscarded", &framesDiscarded,
                      "unattributable frames discarded by recovery");
    stats().addScalar("resyncs", &resyncs,
                      "forward counter resynchronizations");
    stats().addScalar("rekeysCompleted", &rekeysCompleted,
                      "re-key epochs installed");
    // Retired pad-prefetch counters, kept at zero for perfbench's readers.
    for (const char *s :
         {"padPrefetchHits", "padPrefetchMisses", "padsPrefetched"})
        stats().addScalar(s, &retiredZero, "always 0 (retired)");
}

void
ObfusMemMemSide::auditPads(CounterStream stream, uint64_t first,
                           uint64_t count)
{
    if (audit) {
        audit->onPadUse(curTick(), channel, EndpointSide::Memory, stream,
                        first, count);
    }
}

void
ObfusMemMemSide::auditIncident(ChannelIncident what)
{
    if (audit)
        audit->onIncident(curTick(), channel, EndpointSide::Memory, what);
}

void
ObfusMemMemSide::receiveMessage(WireMessage msg)
{
    // Counter discipline: first message of a group decrypts with
    // ctr+0, the second with ctr+1; the group's payload (carried by
    // exactly one of them) with ctr+2..5. In the uniform-packet
    // scheme each message is a full group by itself.
    OBF_DCHECK(groupPhase < 2, "corrupt group phase ", groupPhase);
    uint64_t hdr_ctr = reqCounter + groupPhase;
    OBF_DCHECK(reqCounter <= UINT64_MAX - countersPerRequestGroup,
               "request counter exhausted on channel ", channel);

    // Pads are generated per message, none kept between messages:
    // the header pad here, the payload pads below only when the frame
    // carries data.
    const uint64_t group_base = reqCounter;
    std::optional<WireHeader> hdr =
        decryptHeader(rxCipher, hdr_ctr, msg.cipherHeader);

    if (!hdr && params.recovery.enabled) {
        // An unattributable frame must not consume a counter position
        // (a forged or duplicated frame could otherwise desync the
        // link for good): trial-resync forward, try the control
        // plane, or discard - the processor's retry machinery makes
        // progress either way.
        recoverRequestFrame(std::move(msg));
        return;
    }

    padsUsed += 1;

    // Report the pads this message reserves: the group's first
    // (read) message burns one header pad, the second (write)
    // message burns its header pad plus the four payload pads; a
    // uniform-scheme message reserves the whole group by itself.
    auditPads(CounterStream::Request, hdr_ctr,
              params.uniformPackets ? countersPerRequestGroup
              : groupPhase == 0     ? 1
                                    : countersPerRequestGroup - 1);

    // Advance the group phase regardless: the pads are consumed.
    if (params.uniformPackets) {
        groupPhase = 0;
        reqCounter += countersPerRequestGroup;
    } else {
        groupPhase += 1;
        if (groupPhase == 2) {
            groupPhase = 0;
            reqCounter += countersPerRequestGroup;
        }
    }

    if (!hdr) {
        // Recovery disabled: drop, inject or replay desynchronized
        // the counters; from here on the link is cryptographically
        // dead (DoS, not data loss - paper Sec. 3.5).
        ++headerDesyncs;
        auditIncident(ChannelIncident::HeaderDesync);
        return;
    }

    if (params.auth) {
        if (!msg.hasMac || !mac.verify(*hdr, hdr_ctr, msg.mac)) {
            ++macFailures;
            auditIncident(ChannelIncident::MacMismatch);
            return;
        }
    }

    DataBlock plain_data{};
    if (msg.hasData) {
        // Payload pads 2..5 of this message's group, which the counter
        // may already have advanced past.
        plain_data = cryptPayload(rxCipher, group_base + 2,
                                  msg.cipherData);
        padsUsed += 4;
    }

    Tick lat = params.xorLatency
               + (params.auth ? mac.receiverLatency() : 0);
    WireHeader hdr_val = *hdr;
    bool has_data = msg.hasData;
    scheduleAfter(lat, [this, hdr_val, has_data, plain_data]() {
        handleRequest(hdr_val, has_data, plain_data);
    });
}

void
ObfusMemMemSide::handleRequest(const WireHeader &hdr, bool has_data,
                               const DataBlock &plain_data)
{
    const bool is_dummy = hdr.dummy || hdr.addr == dummyBlockAddr;

    // Timing-oblivious operation forgoes dummy dropping: a dropped
    // request would finish faster than a real one (paper Sec. 6.2).
    const bool may_drop =
        params.dummyPolicy == DummyPolicy::Fixed
        && !params.timingOblivious;

    if (hdr.cmd == MemCmd::Write) {
        if (is_dummy) {
            if (may_drop) {
                // Request dropping: no cell write, no wear, no energy.
                ++dummyWritesDropped;
                return;
            }
            // Original/Random-address dummies cannot be dropped; they
            // cost a real PCM row access. Rewrite the current content
            // so memory stays functionally intact.
            ++dummyPcmAccesses;
            MemPacket pkt;
            pkt.cmd = MemCmd::Write;
            pkt.addr = hdr.addr;
            pkt.data = store.read(hdr.addr);
            pkt.issueTick = curTick();
            pcm.access(std::move(pkt), [](MemPacket &&) {});
            return;
        }
        ++realWrites;
        MemPacket pkt;
        pkt.cmd = MemCmd::Write;
        pkt.addr = hdr.addr;
        pkt.data = plain_data;
        pkt.issueTick = curTick();
        panic_if(!has_data, "real write message without payload");
        if (params.uniformPackets) {
            // Uniform scheme: writes are acknowledged with a
            // full-size junk reply so replies reveal nothing.
            WireHeader reply_hdr = hdr;
            pcm.access(std::move(pkt),
                [this, reply_hdr](MemPacket &&) {
                    DataBlock junk;
                    junkRng.fillBytes(junk.data(), junk.size());
                    sendReadReply(reply_hdr, junk);
                });
        } else {
            pcm.access(std::move(pkt), [](MemPacket &&) {});
        }
        return;
    }

    // Read.
    if (is_dummy && may_drop) {
        // Answer immediately with junk; the processor discards it.
        ++dummyReadsAnswered;
        DataBlock junk;
        junkRng.fillBytes(junk.data(), junk.size());
        sendReadReply(hdr, junk);
        return;
    }

    if (is_dummy)
        ++dummyPcmAccesses;
    else
        ++realReads;

    MemPacket pkt;
    pkt.cmd = MemCmd::Read;
    pkt.addr = hdr.addr;
    pkt.issueTick = curTick();
    WireHeader reply_hdr = hdr;
    pcm.access(std::move(pkt),
        [this, reply_hdr](MemPacket &&resp) {
            sendReadReply(reply_hdr, resp.data);
        });
}

void
ObfusMemMemSide::sendReadReply(const WireHeader &req_hdr,
                               const DataBlock &data)
{
    // Each reply is a burst of one: a request yields exactly one
    // reply, from its own event (PCM completion or dummy answer).
    auto scope = burstScope(replyBurst, [this] { flushReplyBurst(); });
    uint64_t ctr = respCounter;
    OBF_DCHECK(ctr <= UINT64_MAX - countersPerReply,
               "response counter exhausted on channel ", channel);
    respCounter += countersPerReply;
    auditPads(CounterStream::Response, ctr, countersPerReply);

    const WireHeader hdr{MemCmd::Read, req_hdr.addr, req_hdr.tag,
                         req_hdr.dummy};
    ReplyPads pads = genReplyPads(txCipher, ctr);
    padsUsed += 5;
    replyBurst.stageData(channel, pads.header(), pads.payload(), hdr,
                         data, ctr);
}

void
ObfusMemMemSide::flushReplyBurst()
{
    replyBurst.flushWith(mac, params.auth,
        [this](unsigned, WireMessage &&msg, BurstBatch::Completion &&) {
            transmitReply(std::move(msg));
        });
}

void
ObfusMemMemSide::transmitReply(WireMessage msg)
{
    Tick lat = params.xorLatency
               + (params.auth ? mac.senderLatency() : 0);
    scheduleAfter(lat, [this, msg = std::move(msg)]() mutable {
        uint64_t snoop_addr = msg.snoopAddr();
        uint32_t bytes = msg.wireBytes(params.headerWireBytes, params.macWireBytes);
        bus.send(BusDir::ToProcessor, bytes, snoop_addr, false,
                 [this, msg = std::move(msg)](const BusFault &fault)
                     mutable {
                     if (fault.corrupted)
                         corruptHeaderBit(msg, fault.entropy);
                     // The test/tooling intercept, when set, takes
                     // the processor side's place.
                     panic_if(!replyTarget && !procSide,
                              "no reply target wired to mem side");
                     auto receive = [this](WireMessage &&m) {
                         if (replyTarget)
                             replyTarget(std::move(m));
                         else
                             procSide->receiveReply(channel,
                                                    std::move(m));
                     };
                     if (fault.duplicated)
                         receive(WireMessage(msg));
                     receive(std::move(msg));
                 });
    });
}

// --- Recovery ------------------------------------------------------

void
ObfusMemMemSide::recoverRequestFrame(WireMessage msg)
{
    const RecoveryParams &rp = params.recovery;
    const unsigned phases = params.uniformPackets ? 1 : 2;

    // 1) Trial-decrypt a bounded window of future data-stream
    // positions. A magic- and MAC-verified hit means frames were lost
    // in flight and the processor is ahead of us: jump forward,
    // burning the skipped pads so both ledgers stay congruent.
    for (unsigned g = 0; g <= rp.resyncWindowGroups; ++g) {
        uint64_t base = reqCounter + g * countersPerRequestGroup;
        for (unsigned ph = 0; ph < phases; ++ph) {
            if (g == 0 && ph <= groupPhase)
                continue; // at or behind the position that failed
            if (!trialDecrypt(rxCipher, base + ph, msg, mac,
                              params.auth))
                continue;
            resyncTo(base, ph, std::move(msg));
            return;
        }
    }

    // 2) Not data traffic: maybe a control-plane (re-key) frame. The
    // control streams use a key derived from the boot session key, so
    // they stay decryptable even when the data-plane key is suspect.
    for (unsigned g = 0; g <= rp.resyncWindowGroups; ++g) {
        uint64_t base = ctlCursor + g * countersPerRequestGroup;
        for (unsigned ph = 0; ph < 2; ++ph) {
            if (!trialDecrypt(ctlRx, base + ph, msg, mac, params.auth))
                continue;
            if (msg.hasData) {
                DataBlock plain =
                    cryptPayload(ctlRx, base + 2, msg.cipherData);
                ctlCursor = base + countersPerRequestGroup;
                std::optional<HandshakeChunk> chunk =
                    unpackHandshakeChunk(plain);
                if (chunk)
                    handleHandshakeChunk(*chunk);
            } else {
                // Shape-filler half of a split control pair.
                ctlCursor = base;
            }
            return;
        }
    }

    // 3) Unattributable: duplicate, replay, corruption, or garbage.
    // Discard without consuming a counter position.
    ++framesDiscarded;
    auditIncident(ChannelIncident::FrameDiscarded);
}

void
ObfusMemMemSide::resyncTo(uint64_t base, unsigned phase,
                          WireMessage msg)
{
    // The ledger is dense up to the header position we were waiting
    // for; burn everything from there to the verified hit so the
    // auditor sees the lost positions as consumed on this side too.
    uint64_t cur = reqCounter + (groupPhase == 1 ? 1 : 0);
    uint64_t tgt = base + (phase == 1 ? 1 : 0);
    ++resyncs;
    auditIncident(ChannelIncident::CounterResync);
    if (tgt > cur)
        auditPads(CounterStream::Request, cur, tgt - cur);
    reqCounter = base;
    groupPhase = phase;
    receiveMessage(std::move(msg));
}

void
ObfusMemMemSide::handleHandshakeChunk(const HandshakeChunk &chunk)
{
    // A chunk for an epoch we already installed means our response
    // was lost in flight: resend it at fresh control counters. The
    // stored response carries the same public value, so the peer
    // derives the same key (idempotent).
    if (installedEpoch != 0 && chunk.epoch <= installedEpoch) {
        if (chunk.epoch == installedEpoch)
            sendHandshakeResponse();
        return;
    }
    std::optional<std::vector<uint8_t>> pub_bytes = collect.offer(chunk);
    if (!pub_bytes)
        return;

    // Full public value in hand: run our half of the exchange.
    crypto::BigUint peer_pub =
        crypto::BigUint::fromBytes(pub_bytes->data(), pub_bytes->size());
    crypto::DhEndpoint dh(crypto::DhGroup::testGroup256(), rekeyRng);
    crypto::Aes128::Key key = epochSessionKey(
        crypto::DhEndpoint::deriveSessionKey(dh.computeShared(peer_pub)),
        chunk.epoch, channel);

    // Stash the response payloads first so duplicates can be answered
    // verbatim later.
    respPayloads =
        splitHandshakeValue(chunk.epoch, dh.publicValue().toBytes());

    // Install the epoch key: both data-plane streams restart at
    // counter zero under the new key.
    installedEpoch = chunk.epoch;
    rxCipher.setKey(key, 2ull * channel);
    txCipher.setKey(key, 2ull * channel + 1);
    reqCounter = 0;
    groupPhase = 0;
    respCounter = 0;
    ++rekeysCompleted;
    auditIncident(ChannelIncident::RekeyCompleted);
    sendHandshakeResponse();
}

void
ObfusMemMemSide::sendHandshakeResponse()
{
    // Response chunks ride reply-shaped frames on the control tx
    // stream: indistinguishable on the wire from ordinary read
    // replies. Control pads are not reported to the auditor. All
    // chunks of one response stage into one burst.
    auto scope = burstScope(replyBurst, [this] { flushReplyBurst(); });
    for (const DataBlock &payload : respPayloads) {
        uint64_t ctr = ctlRespCounter;
        ctlRespCounter += countersPerReply;
        ReplyPads pads = genReplyPads(ctlTx, ctr);
        replyBurst.stageData(channel, pads.header(), pads.payload(),
                             WireHeader{MemCmd::Read, dummyBlockAddr, 0,
                                        true},
                             payload, ctr);
    }
}

} // namespace obfusmem
