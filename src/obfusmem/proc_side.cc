/**
 * @file
 * ObfusMemProcSide implementation.
 */

#include "obfusmem/proc_side.hh"

#include <algorithm>

#include "obfusmem/mem_side.hh"
#include "util/assert.hh"
#include "util/logging.hh"

namespace obfusmem {

ObfusMemProcSide::ObfusMemProcSide(
    const std::string &name, EventQueue &eq, statistics::Group *parent,
    const ObfusMemParams &params_, const AddressMap &map,
    const std::vector<crypto::Aes128::Key> &session_keys,
    const std::vector<ChannelBus *> &buses,
    const std::vector<uint64_t> &dummy_addrs)
    : SimObject(name, eq, parent), params(params_), addrMap(map),
      mac(params_.mac), junkRng(0xd117e57)
{
    fatal_if(session_keys.size() != map.channels()
                 || buses.size() != map.channels()
                 || dummy_addrs.size() != map.channels(),
             "per-channel configuration size mismatch");

    channelState.resize(map.channels());
    for (unsigned c = 0; c < map.channels(); ++c) {
        ChannelState &cs = channelState[c];
        cs.tx.setKey(session_keys[c], 2ull * c);
        cs.rx.setKey(session_keys[c], 2ull * c + 1);
        cs.ctlTx.setKey(controlKeyFor(session_keys[c]),
                        controlNonceBase + 2ull * c);
        cs.ctlRx.setKey(controlKeyFor(session_keys[c]),
                        controlNonceBase + 2ull * c + 1);
        cs.bus = buses[c];
        cs.dummyAddr = dummy_addrs[c];
    }

    stats().addScalar("realReads", &realReads, "real reads sent");
    stats().addScalar("realWrites", &realWrites, "real writes sent");
    stats().addScalar("pairedDummies", &pairedDummies,
                      "dummies paired with real requests");
    stats().addScalar("channelFillGroups", &channelFillGroups,
                      "dummy groups injected on other channels");
    stats().addScalar("repliesDiscarded", &repliesDiscarded,
                      "dummy-read replies discarded");
    stats().addScalar("macFailures", &macFailures,
                      "reply MAC mismatches (tampering detected)");
    stats().addScalar("headerDesyncs", &headerDesyncs,
                      "undecryptable reply headers");
    stats().addScalar("padsUsed", &padsUsed,
                      "128-bit pads consumed by this controller");
    stats().addScalar("forwardedFromWriteQueue", &forwardedFromWriteQueue,
                      "reads served from the controller write buffer");
    stats().addScalar("realFillSubstitutions", &realFillSubstitutions,
                      "channel-fill dummies replaced by real writes");
    stats().addScalar("pairSubstitutions", &pairSubstitutions,
                      "paired dummy writes replaced by real writes");
    stats().addScalar("retransmits", &retransmits,
                      "request groups retransmitted at fresh counters");
    stats().addScalar("framesDiscarded", &framesDiscarded,
                      "unattributable reply frames discarded");
    stats().addScalar("resyncs", &resyncs,
                      "forward counter resynchronizations");
    stats().addScalar("rekeysStarted", &rekeysStarted,
                      "re-key handshakes initiated");
    stats().addScalar("rekeysCompleted", &rekeysCompleted,
                      "re-key epochs installed");
    stats().addScalar("quarantines", &quarantines,
                      "channels taken out of service");
    stats().addScalar("requestsDropped", &requestsDropped,
                      "requests dropped on quarantined channels");
    // Retired pad-prefetch counters, kept at zero for perfbench's readers.
    for (const char *s :
         {"padPrefetchHits", "padPrefetchMisses", "padsPrefetched"})
        stats().addScalar(s, &retiredZero, "always 0 (retired)");
}

void
ObfusMemProcSide::notifyPads(unsigned channel, CounterStream stream,
                             uint64_t first, uint64_t count)
{
    if (audit) {
        audit->onPadUse(curTick(), channel, EndpointSide::Processor,
                        stream, first, count);
    }
}

uint16_t
ObfusMemProcSide::allocTag(ChannelState &cs)
{
    // Tags are 16-bit; skip ones still in flight.
    for (int tries = 0; tries < 70000; ++tries) {
        uint16_t tag = cs.nextTag++;
        if (tag != 0 && !cs.pending.count(tag))
            return tag;
    }
    panic("tag space exhausted");
}

uint64_t
ObfusMemProcSide::dummyAddrFor(unsigned channel, uint64_t real_addr)
{
    switch (params.dummyPolicy) {
      case DummyPolicy::Fixed:
        return channelState[channel].dummyAddr;
      case DummyPolicy::Original:
        return real_addr;
      case DummyPolicy::Random: {
        // A random block on the same channel.
        DecodedAddr loc;
        loc.channel = channel;
        loc.rank = static_cast<unsigned>(
            junkRng.randUnder(addrMap.ranksPerChannel()));
        loc.bank = static_cast<unsigned>(
            junkRng.randUnder(addrMap.banksPerRank()));
        loc.row = junkRng.randUnder(addrMap.rowsPerBank());
        loc.column = static_cast<unsigned>(
            junkRng.randUnder(addrMap.blocksPerRow()));
        return addrMap.encode(loc);
      }
    }
    panic("unreachable");
}

void
ObfusMemProcSide::access(MemPacket pkt, PacketCallback cb)
{
    unsigned channel = addrMap.decode(pkt.addr).channel;
    OBF_DCHECK(channel < channelState.size(),
               "decoded channel ", channel, " out of range");

    // Session Key Table lookup + pad XOR (+ MAC latency when
    // authenticating) before the messages reach the bus. Pads are
    // pregenerated because future counter values are known.
    Tick lat = params.keyTableLatency + params.xorLatency
               + (params.auth ? mac.senderLatency() : 0);
    scheduleAfter(lat,
        [this, channel, pkt = std::move(pkt),
         cb = std::move(cb)]() mutable {
            dispatch(channel, std::move(pkt), std::move(cb));
        });
}

void
ObfusMemProcSide::dispatch(unsigned channel, MemPacket pkt,
                           PacketCallback cb)
{
    // One request can fan out into many frames (its own group, fill
    // dummies on every other channel, a write drain); the whole chain
    // stages into one burst that flushes when this scope closes.
    auto scope = burstScope(burst, [this] { flushBurst(); });
    ChannelState &cs = channelState[channel];
    if (cs.health == ChannelHealth::Quarantined) {
        // The channel is out of service; the request cannot be
        // delivered. Reads simply never complete.
        ++requestsDropped;
        return;
    }
    if (cs.health == ChannelHealth::Rekeying) {
        // Data traffic pauses while the key is renegotiated; the
        // held requests replay when the new epoch installs.
        cs.rekeyHold.push_back({std::move(pkt), std::move(cb)});
        return;
    }
    if (params.timingOblivious) {
        // Requests wait for their channel's next epoch slot;
        // the wire carries one group per epoch regardless.
        cs.epochQueue.push_back({std::move(pkt), std::move(cb)});
        ensureHeartbeats();
        return;
    }
    if (pkt.isWrite()) {
        // Writes are buffered; reads have channel priority.
        cs.writeQueue.push_back({std::move(pkt), std::move(cb)});
        maybeDrainWrites(channel);
        return;
    }
    // Write-buffer forwarding: a read must observe buffered
    // write data, and never needs the channel for it.
    for (auto it = cs.writeQueue.rbegin();
         it != cs.writeQueue.rend(); ++it) {
        if (it->pkt.addr == pkt.addr) {
            ++forwardedFromWriteQueue;
            pkt.data = it->pkt.data;
            cb(std::move(pkt));
            return;
        }
    }
    injectChannelDummies(channel);
    sendGroup(channel, std::move(pkt), std::move(cb));
}

bool
ObfusMemProcSide::quiescent() const
{
    for (const ChannelState &cs : channelState) {
        if (!cs.epochQueue.empty() || cs.outstandingReads > 0
            || !cs.writeQueue.empty()) {
            return false;
        }
    }
    return true;
}

void
ObfusMemProcSide::ensureHeartbeats()
{
    for (unsigned c = 0; c < channelState.size(); ++c) {
        ChannelState &cs = channelState[c];
        if (!cs.heartbeatActive) {
            cs.heartbeatActive = true;
            scheduleAfter(0, [this, c]() { heartbeat(c); });
        }
    }
}

void
ObfusMemProcSide::heartbeat(unsigned channel)
{
    auto scope = burstScope(burst, [this] { flushBurst(); });
    ChannelState &cs = channelState[channel];
    if (cs.health == ChannelHealth::Quarantined) {
        cs.heartbeatActive = false;
        return;
    }
    if (cs.health == ChannelHealth::Rekeying) {
        // Keep ticking but issue nothing until the new epoch installs.
        scheduleAfter(params.issueEpoch,
                      [this, channel]() { heartbeat(channel); });
        return;
    }
    if (quiescent()) {
        // Pause the constant-rate stream only when the controller is
        // globally idle; attackers learn at most the program's
        // coarse activity envelope (paper Sec. 6.1's footprint
        // caveat applies the same way).
        cs.heartbeatActive = false;
        return;
    }

    if (!cs.epochQueue.empty()) {
        QueuedWrite req = std::move(cs.epochQueue.front());
        cs.epochQueue.pop_front();
        sendGroup(channel, std::move(req.pkt), std::move(req.cb));
    } else {
        sendDummyGroup(channel);
    }
    scheduleAfter(params.issueEpoch,
                  [this, channel]() { heartbeat(channel); });
}

void
ObfusMemProcSide::maybeDrainWrites(unsigned channel)
{
    // The drain loop is the deepest fan-out: a high-watermark drain
    // stages maxOutstandingGroups' worth of frames into one burst.
    auto scope = burstScope(burst, [this] { flushBurst(); });
    ChannelState &cs = channelState[channel];
    if (cs.health != ChannelHealth::Active)
        return;
    if (cs.writeQueue.size() >= params.writeQueueHighWatermark)
        cs.drainingWrites = true;

    while (!cs.writeQueue.empty()
           && cs.pending.size() < params.maxOutstandingGroups
           && (cs.drainingWrites || cs.outstandingReads == 0)) {
        QueuedWrite qw = std::move(cs.writeQueue.front());
        cs.writeQueue.pop_front();
        sendGroup(channel, std::move(qw.pkt), std::move(qw.cb));
        if (cs.writeQueue.size() <= params.writeQueueLowWatermark)
            cs.drainingWrites = false;
        if (!cs.drainingWrites)
            break; // the dummy read now outstanding paces us
    }
}

void
ObfusMemProcSide::sendGroup(unsigned channel, MemPacket pkt,
                            PacketCallback cb)
{
    // Standalone calls still batch the group's two frames; calls from
    // a wider scope (dispatch, drain, heartbeat) nest into its burst.
    auto scope = burstScope(burst, [this] { flushBurst(); });
    ChannelState &cs = channelState[channel];
    uint64_t ctr = cs.reqCounter;
    OBF_DCHECK(ctr <= UINT64_MAX - countersPerRequestGroup,
               "request counter exhausted on channel ", channel);
    cs.reqCounter += countersPerRequestGroup;
    padsUsed += countersPerRequestGroup;
    if (params.uniformPackets) {
        notifyPads(channel, CounterStream::Request, ctr,
                   countersPerRequestGroup);
    } else {
        // Split scheme: the read message burns pad ctr, the paired
        // write burns ctr+1 (header) and ctr+2..5 (payload).
        notifyPads(channel, CounterStream::Request, ctr, 1);
        notifyPads(channel, CounterStream::Request, ctr + 1,
                   countersPerRequestGroup - 1);
    }

    GroupPads pads = genGroupPads(cs.tx, ctr);

    if (params.uniformPackets) {
        // One fixed-size message per request; every request expects a
        // fixed-size reply.
        WireHeader hdr;
        hdr.cmd = pkt.cmd;
        hdr.addr = pkt.addr;
        hdr.tag = allocTag(cs);
        const bool is_read = pkt.isRead();

        DataBlock payload;
        if (is_read) {
            junkRng.fillBytes(payload.data(), payload.size());
        } else {
            payload = pkt.data;
        }

        ++cs.outstandingReads;
        if (is_read) {
            ++realReads;
            PendingRead pend{std::move(pkt), std::move(cb), false};
            pend.lastSend = curTick();
            pend.rbFirst = hdr;
            pend.rbPayload = payload;
            cs.pending[hdr.tag] = std::move(pend);
            burst.stageData(channel, pads.pad[0], &pads.pad[2], hdr,
                            payload, ctr);
        } else {
            ++realWrites;
            // The write's junk reply is discarded; completion is
            // posted at delivery, as in the split scheme.
            PendingRead pend{MemPacket{}, nullptr, true};
            pend.lastSend = curTick();
            pend.rbFirst = hdr;
            pend.rbPayload = payload;
            cs.pending[hdr.tag] = std::move(pend);
            burst.stageData(channel, pads.pad[0], &pads.pad[2], hdr,
                            payload, ctr, std::move(pkt),
                            std::move(cb));
        }
        if (!burst.deferred())
            flushBurst();
        ensureWatchdog(channel);
        return;
    }

    if (pkt.isRead()) {
        ++realReads;
        ++pairedDummies;
        // Message 1: the real read request.
        WireHeader hdr;
        hdr.cmd = MemCmd::Read;
        hdr.addr = pkt.addr;
        hdr.tag = allocTag(cs);
        {
            PendingRead pend{std::move(pkt), std::move(cb), false};
            pend.lastSend = curTick();
            pend.rbFirst = hdr;
            cs.pending[hdr.tag] = std::move(pend);
        }
        ++cs.outstandingReads;

        burst.stageHeader(channel, pads.pad[0], hdr, ctr);
        if (!burst.deferred())
            flushBurst();

        // Message 2: the paired write. When writes are piling up, a
        // real one substitutes for the dummy - same wire pattern, no
        // wasted bandwidth (the Sec. 3.3 optimization that makes the
        // split scheme beat uniform packets). Below the watermark the
        // droppable dummy is cheaper for the PCM banks.
        if (cs.writeQueue.size() > params.writeQueueLowWatermark) {
            ++pairSubstitutions;
            QueuedWrite qw = std::move(cs.writeQueue.front());
            cs.writeQueue.pop_front();

            WireHeader whdr;
            whdr.cmd = MemCmd::Write;
            whdr.addr = qw.pkt.addr;
            DataBlock payload = qw.pkt.data;
            {
                PendingRead &pend = cs.pending[hdr.tag];
                pend.rbSecond = whdr;
                pend.rbPayload = payload;
            }
            burst.stageData(channel, pads.pad[1], &pads.pad[2], whdr,
                            payload, ctr + 1, std::move(qw.pkt),
                            std::move(qw.cb));
            if (!burst.deferred())
                flushBurst();
            ensureWatchdog(channel);
            return;
        }

        WireHeader dummy_hdr;
        dummy_hdr.cmd = MemCmd::Write;
        dummy_hdr.addr = dummyAddrFor(channel, hdr.addr);
        dummy_hdr.dummy = true;
        DataBlock junk;
        junkRng.fillBytes(junk.data(), junk.size());
        {
            PendingRead &pend = cs.pending[hdr.tag];
            pend.rbSecond = dummy_hdr;
            pend.rbPayload = junk;
        }
        burst.stageData(channel, pads.pad[1], &pads.pad[2], dummy_hdr,
                        junk, ctr + 1);
        if (!burst.deferred())
            flushBurst();
        ensureWatchdog(channel);
        return;
    }

    // Real write: preceded by a dummy read (reads are latency
    // critical, writes are not - paper Sec. 3.3). Both headers are
    // known up front, so the two MACs are computed in one batch.
    ++realWrites;
    ++pairedDummies;
    WireHeader dummy_hdr;
    dummy_hdr.cmd = MemCmd::Read;
    dummy_hdr.addr = dummyAddrFor(channel, pkt.addr);
    dummy_hdr.dummy = true;
    dummy_hdr.tag = allocTag(cs);
    ++cs.outstandingReads;

    WireHeader hdr;
    hdr.cmd = MemCmd::Write;
    hdr.addr = pkt.addr;

    {
        PendingRead pend{MemPacket{}, nullptr, true};
        pend.lastSend = curTick();
        pend.rbFirst = dummy_hdr;
        pend.rbSecond = hdr;
        pend.rbPayload = pkt.data;
        cs.pending[dummy_hdr.tag] = std::move(pend);
    }

    burst.stageHeader(channel, pads.pad[0], dummy_hdr, ctr);
    if (!burst.deferred())
        flushBurst();

    // Second encryption on top of the memory-encryption ciphertext:
    // hides temporal reuse of unmodified data (Observation 1). The
    // write is posted: its completion fires when the sealed frame has
    // fully crossed the bus.
    DataBlock payload = pkt.data;
    burst.stageData(channel, pads.pad[1], &pads.pad[2], hdr, payload,
                    ctr + 1, std::move(pkt), std::move(cb));
    if (!burst.deferred())
        flushBurst();
    ensureWatchdog(channel);
}

void
ObfusMemProcSide::sendDummyGroup(unsigned channel)
{
    auto scope = burstScope(burst, [this] { flushBurst(); });
    ++channelFillGroups;
    ChannelState &cs = channelState[channel];
    uint64_t ctr = cs.reqCounter;
    OBF_DCHECK(ctr <= UINT64_MAX - countersPerRequestGroup,
               "request counter exhausted on channel ", channel);
    cs.reqCounter += countersPerRequestGroup;
    padsUsed += countersPerRequestGroup;
    if (params.uniformPackets) {
        notifyPads(channel, CounterStream::Request, ctr,
                   countersPerRequestGroup);
    } else {
        notifyPads(channel, CounterStream::Request, ctr, 1);
        notifyPads(channel, CounterStream::Request, ctr + 1,
                   countersPerRequestGroup - 1);
    }

    GroupPads pads = genGroupPads(cs.tx, ctr);

    if (params.uniformPackets) {
        // One uniform dummy read message fills the channel.
        WireHeader rd;
        rd.cmd = MemCmd::Read;
        rd.addr = cs.dummyAddr;
        rd.dummy = true;
        rd.tag = allocTag(cs);
        ++cs.outstandingReads;

        DataBlock junk;
        junkRng.fillBytes(junk.data(), junk.size());
        {
            PendingRead pend{MemPacket{}, nullptr, true};
            pend.lastSend = curTick();
            pend.rbFirst = rd;
            pend.rbPayload = junk;
            cs.pending[rd.tag] = std::move(pend);
        }
        burst.stageData(channel, pads.pad[0], &pads.pad[2], rd, junk,
                        ctr);
        if (!burst.deferred())
            flushBurst();
        ensureWatchdog(channel);
        return;
    }

    WireHeader rd;
    rd.cmd = MemCmd::Read;
    rd.addr = dummyAddrFor(channel, cs.dummyAddr);
    rd.dummy = true;
    rd.tag = allocTag(cs);
    ++cs.outstandingReads;

    WireHeader wr;
    wr.cmd = MemCmd::Write;
    wr.addr = dummyAddrFor(channel, cs.dummyAddr);
    wr.dummy = true;

    burst.stageHeader(channel, pads.pad[0], rd, ctr);
    if (!burst.deferred())
        flushBurst();

    DataBlock junk;
    junkRng.fillBytes(junk.data(), junk.size());
    {
        PendingRead pend{MemPacket{}, nullptr, true};
        pend.lastSend = curTick();
        pend.rbFirst = rd;
        pend.rbSecond = wr;
        pend.rbPayload = junk;
        cs.pending[rd.tag] = std::move(pend);
    }
    burst.stageData(channel, pads.pad[1], &pads.pad[2], wr, junk,
                    ctr + 1);
    if (!burst.deferred())
        flushBurst();
    ensureWatchdog(channel);
}

void
ObfusMemProcSide::injectChannelDummies(unsigned active_channel)
{
    if (params.channelScheme == ChannelScheme::None
        || channelState.size() <= 1) {
        return;
    }
    for (unsigned c = 0; c < channelState.size(); ++c) {
        if (c == active_channel)
            continue;
        ChannelState &cs = channelState[c];
        if (cs.health != ChannelHealth::Active)
            continue;
        if (params.channelScheme == ChannelScheme::Opt) {
            bool idle = cs.bus->idle() && cs.outstandingReads == 0;
            if (!idle)
                continue;
        }
        // Substitute a real buffered write for the dummy when one is
        // waiting: same wire pattern, no wasted bandwidth (Sec. 3.3).
        if (!cs.writeQueue.empty()) {
            ++realFillSubstitutions;
            QueuedWrite qw = std::move(cs.writeQueue.front());
            cs.writeQueue.pop_front();
            sendGroup(c, std::move(qw.pkt), std::move(qw.cb));
            continue;
        }
        sendDummyGroup(c);
    }
}

void
ObfusMemProcSide::flushBurst()
{
    // The back half of the pipeline runs here: one vectorized MAC
    // batch over every staged (header, counter) pair, one SoA seal
    // pass, then the bus enqueues in stage order. Enqueue order is all
    // the bus observes of us within a tick (serialization happens on
    // later ticks), so the wire trace is bit-identical to per-message
    // flushing — CI diffs OBFUSMEM_BURST_BATCH=0/1 to hold us to that.
    burst.flushWith(mac, params.auth,
        [this](unsigned channel, WireMessage &&msg,
               BurstBatch::Completion &&done) {
            deliverStaged(channel, std::move(msg), std::move(done));
        });
}

void
ObfusMemProcSide::deliverStaged(unsigned channel, WireMessage &&msg,
                                BurstBatch::Completion &&done)
{
    ChannelState &cs = channelState[channel];
    uint64_t snoop_addr = msg.snoopAddr();
    uint32_t bytes = msg.wireBytes(params.headerWireBytes,
                                   params.macWireBytes);
    bool is_data = msg.hasData;
    cs.bus->send(BusDir::ToMemory, bytes, snoop_addr, is_data,
        [this, channel, msg = std::move(msg), pkt = std::move(done.pkt),
         cb = std::move(done.cb)](const BusFault &fault) mutable {
            ChannelState &cs2 = channelState[channel];
            if (fault.corrupted)
                corruptHeaderBit(msg, fault.entropy);
            if (cs2.toMem) {
                // Test/tooling intercept (fault injection, capture).
                if (fault.duplicated) {
                    WireMessage copy = msg;
                    cs2.toMem(std::move(copy));
                }
                cs2.toMem(std::move(msg));
            } else {
                panic_if(!cs2.memSide, "no request target wired");
                if (fault.duplicated) {
                    WireMessage copy = msg;
                    cs2.memSide->receiveMessage(std::move(copy));
                }
                cs2.memSide->receiveMessage(std::move(msg));
            }
            // Posted-write completion: the requester learns the write
            // crossed the bus, exactly when the far pin saw it.
            if (cb)
                cb(std::move(pkt));
        });
}

void
ObfusMemProcSide::receiveReply(unsigned channel, WireMessage &&msg)
{
    OBF_ASSERT(channel < channelState.size(),
               "reply for unknown channel ", channel);
    ChannelState &cs = channelState[channel];
    if (cs.health == ChannelHealth::Quarantined) {
        ++framesDiscarded;
        return;
    }
    uint64_t ctr = cs.respCounter;
    OBF_DCHECK(ctr <= UINT64_MAX - countersPerReply,
               "response counter exhausted on channel ", channel);

    ReplyPads pads = genReplyPads(cs.rx, ctr);
    std::optional<WireHeader> hdr =
        decryptHeaderWithPad(pads.header(), msg.cipherHeader);

    if (!hdr && params.recovery.enabled) {
        // An unattributable frame must not consume a counter
        // position: trial-resync forward, try the control plane, or
        // discard.
        recoverReplyFrame(channel, std::move(msg));
        return;
    }

    cs.respCounter += countersPerReply;
    padsUsed += countersPerReply;
    notifyPads(channel, CounterStream::Response, ctr,
               countersPerReply);

    if (!hdr) {
        ++headerDesyncs;
        if (audit) {
            audit->onIncident(curTick(), channel,
                              EndpointSide::Processor,
                              ChannelIncident::HeaderDesync);
        }
        return;
    }
    if (params.auth) {
        if (!msg.hasMac || !mac.verify(*hdr, ctr, msg.mac)) {
            ++macFailures;
            if (audit) {
                audit->onIncident(curTick(), channel,
                                  EndpointSide::Processor,
                                  ChannelIncident::MacMismatch);
            }
            return;
        }
    }

    DataBlock data = cryptPayloadWithPads(pads.payload(), msg.cipherData);

    auto it = cs.pending.find(hdr->tag);
    if (it == cs.pending.end()) {
        ++headerDesyncs; // reply for an unknown tag
        if (audit) {
            audit->onIncident(curTick(), channel,
                              EndpointSide::Processor,
                              ChannelIncident::UnknownTag);
        }
        return;
    }
    PendingRead pending = std::move(it->second);
    cs.pending.erase(it);
    panic_if(cs.outstandingReads == 0, "outstanding underflow");
    --cs.outstandingReads;

    if (pending.dummy) {
        ++repliesDiscarded;
        maybeDrainWrites(channel);
        return;
    }

    Tick lat = params.xorLatency
               + (params.auth ? mac.receiverLatency() : 0);
    scheduleAfter(lat,
        [pkt = std::move(pending.pkt), cb = std::move(pending.cb),
         data]() mutable {
            pkt.data = data;
            cb(std::move(pkt));
        });
    maybeDrainWrites(channel);
}

// --- Recovery ------------------------------------------------------

void
ObfusMemProcSide::ensureWatchdog(unsigned channel)
{
    ChannelState &cs = channelState[channel];
    if (!params.recovery.enabled || cs.watchdogActive)
        return;
    if (cs.pending.empty() && cs.health != ChannelHealth::Rekeying)
        return;
    cs.watchdogActive = true;
    Tick period = std::max<Tick>(params.recovery.retryTimeout / 2, 1);
    scheduleAfter(period, [this, channel]() { watchdogTick(channel); });
}

void
ObfusMemProcSide::watchdogTick(unsigned channel)
{
    // Retransmits of every overdue group batch into one burst.
    auto scope = burstScope(burst, [this] { flushBurst(); });
    ChannelState &cs = channelState[channel];
    cs.watchdogActive = false;
    if (cs.health == ChannelHealth::Quarantined)
        return;
    Tick now = curTick();

    if (cs.health == ChannelHealth::Rekeying) {
        Tick limit = params.recovery.retryTimeout
                     << std::min(cs.rekeyAttempts, 6u);
        if (now - cs.rekeySentTick >= limit)
            sendRekeyRequest(channel); // may quarantine
        ensureWatchdog(channel);
        return;
    }

    // Collect overdue tags first and visit them in sorted order:
    // unordered_map iteration order must never leak into protocol
    // behavior (determinism across standard libraries).
    std::vector<uint16_t> overdue;
    for (const auto &kv : cs.pending) {
        Tick limit = params.recovery.retryTimeout
                     << std::min(kv.second.attempts, 6u);
        if (now - kv.second.lastSend >= limit)
            overdue.push_back(kv.first);
    }
    std::sort(overdue.begin(), overdue.end());
    for (uint16_t tag : overdue) {
        auto it = cs.pending.find(tag);
        if (it == cs.pending.end())
            continue;
        if (it->second.attempts >= params.recovery.retryMax) {
            // Bounded retries exhausted: the counters or the key are
            // damaged beyond in-band resync. Renegotiate the session.
            startRekey(channel);
            break;
        }
        retransmitGroup(channel, tag);
    }
    ensureWatchdog(channel);
}

void
ObfusMemProcSide::retransmitGroup(unsigned channel, uint16_t tag)
{
    auto scope = burstScope(burst, [this] { flushBurst(); });
    ChannelState &cs = channelState[channel];
    if (cs.health != ChannelHealth::Active)
        return;
    auto it = cs.pending.find(tag);
    if (it == cs.pending.end())
        return;
    PendingRead &p = it->second;

    // A retransmit is a brand-new group on the wire: fresh counters,
    // fresh pads, fresh MACs. Reusing the original pads would violate
    // pad freshness and hand an observer a ciphertext repeat.
    uint64_t ctr = cs.reqCounter;
    OBF_DCHECK(ctr <= UINT64_MAX - countersPerRequestGroup,
               "request counter exhausted on channel ", channel);
    cs.reqCounter += countersPerRequestGroup;
    padsUsed += countersPerRequestGroup;
    if (params.uniformPackets) {
        notifyPads(channel, CounterStream::Request, ctr,
                   countersPerRequestGroup);
    } else {
        notifyPads(channel, CounterStream::Request, ctr, 1);
        notifyPads(channel, CounterStream::Request, ctr + 1,
                   countersPerRequestGroup - 1);
    }
    GroupPads pads = genGroupPads(cs.tx, ctr);

    ++retransmits;
    p.attempts += 1;
    p.lastSend = curTick();

    if (params.uniformPackets) {
        burst.stageData(channel, pads.pad[0], &pads.pad[2], p.rbFirst,
                        p.rbPayload, ctr);
        if (!burst.deferred())
            flushBurst();
        return;
    }

    burst.stageHeader(channel, pads.pad[0], p.rbFirst, ctr);
    if (!burst.deferred())
        flushBurst();
    burst.stageData(channel, pads.pad[1], &pads.pad[2], p.rbSecond,
                    p.rbPayload, ctr + 1);
    if (!burst.deferred())
        flushBurst();
}

void
ObfusMemProcSide::startRekey(unsigned channel)
{
    ChannelState &cs = channelState[channel];
    if (cs.health != ChannelHealth::Active)
        return;
    cs.health = ChannelHealth::Rekeying;
    ++rekeysStarted;
    if (audit) {
        audit->onIncident(curTick(), channel, EndpointSide::Processor,
                          ChannelIncident::RekeyStarted);
    }
    sendRekeyRequest(channel);
}

void
ObfusMemProcSide::sendRekeyRequest(unsigned channel)
{
    // All handshake chunks of one attempt batch into one burst.
    auto scope = burstScope(burst, [this] { flushBurst(); });
    ChannelState &cs = channelState[channel];
    if (cs.rekeyAttempts >= params.recovery.rekeyMaxAttempts) {
        quarantineChannel(channel);
        return;
    }
    ++cs.rekeyAttempts;

    // A fresh epoch (and DH key pair) per attempt keeps chunk
    // collection on the far side unambiguous across attempts. The
    // test group keeps the modexp cheap at simulation scale; the
    // handshake structure is group-agnostic.
    cs.rekeyEpoch += 1;
    cs.respCollectEpoch = 0;
    cs.respCollectTotal = 0;
    cs.respCollectMask = 0;
    cs.dh = std::make_unique<crypto::DhEndpoint>(
        crypto::DhGroup::testGroup256(), rekeyRng);

    std::vector<uint8_t> pub = cs.dh->publicValue().toBytes();
    uint8_t total = static_cast<uint8_t>(
        (pub.size() + handshakeChunkBytes - 1) / handshakeChunkBytes);
    if (total == 0)
        total = 1;
    for (uint8_t i = 0; i < total; ++i) {
        HandshakeChunk c;
        c.epoch = cs.rekeyEpoch;
        c.chunk = i;
        c.total = total;
        size_t off = static_cast<size_t>(i) * handshakeChunkBytes;
        c.len = static_cast<uint16_t>(
            std::min(handshakeChunkBytes, pub.size() - off));
        std::copy_n(pub.begin() + off, c.len, c.data.begin());
        sendControlGroup(channel, packHandshakeChunk(c));
    }
    cs.rekeySentTick = curTick();
    ensureWatchdog(channel);
}

void
ObfusMemProcSide::sendControlGroup(unsigned channel,
                                   const DataBlock &payload)
{
    auto scope = burstScope(burst, [this] { flushBurst(); });
    // Control frames mirror a normal request group's wire shape
    // exactly; only the key and the counter stream differ, neither of
    // which is visible on the wire. Control pads are not reported to
    // the auditor (they live outside the data-plane ledgers).
    ChannelState &cs = channelState[channel];
    uint64_t ctr = cs.ctlReqCounter;
    cs.ctlReqCounter += countersPerRequestGroup;
    GroupPads pads = genGroupPads(cs.ctlTx, ctr);

    if (params.uniformPackets) {
        WireHeader hdr;
        hdr.cmd = MemCmd::Write;
        hdr.addr = cs.dummyAddr;
        hdr.dummy = true;
        burst.stageData(channel, pads.pad[0], &pads.pad[2], hdr,
                        payload, ctr);
        if (!burst.deferred())
            flushBurst();
        return;
    }

    WireHeader rd;
    rd.cmd = MemCmd::Read;
    rd.addr = cs.dummyAddr;
    rd.dummy = true;
    WireHeader wr;
    wr.cmd = MemCmd::Write;
    wr.addr = cs.dummyAddr;
    wr.dummy = true;

    burst.stageHeader(channel, pads.pad[0], rd, ctr);
    if (!burst.deferred())
        flushBurst();
    burst.stageData(channel, pads.pad[1], &pads.pad[2], wr, payload,
                    ctr + 1);
    if (!burst.deferred())
        flushBurst();
}

void
ObfusMemProcSide::recoverReplyFrame(unsigned channel, WireMessage msg)
{
    ChannelState &cs = channelState[channel];
    const RecoveryParams &rp = params.recovery;

    // 1) Trial-decrypt a bounded window of future reply positions. A
    // verified hit means replies were lost (the memory side is ahead):
    // jump forward, burning the skipped pads so the ledgers merge.
    for (unsigned k = 1; k <= rp.resyncWindowGroups; ++k) {
        uint64_t pos = cs.respCounter + k * countersPerReply;
        std::optional<WireHeader> cand =
            decryptHeader(cs.rx, pos, msg.cipherHeader);
        if (!cand)
            continue;
        if (params.auth
            && (!msg.hasMac || !mac.verify(*cand, pos, msg.mac)))
            continue;
        ++resyncs;
        if (audit) {
            audit->onIncident(curTick(), channel,
                              EndpointSide::Processor,
                              ChannelIncident::CounterResync);
        }
        notifyPads(channel, CounterStream::Response, cs.respCounter,
                   pos - cs.respCounter);
        cs.respCounter = pos;
        receiveReply(channel, std::move(msg));
        return;
    }

    // 2) Not data traffic: maybe a handshake response on the control
    // reply stream.
    for (unsigned k = 0; k <= rp.resyncWindowGroups; ++k) {
        uint64_t pos = cs.ctlRespCursor + k * countersPerReply;
        std::optional<WireHeader> cand =
            decryptHeader(cs.ctlRx, pos, msg.cipherHeader);
        if (!cand)
            continue;
        if (params.auth
            && (!msg.hasMac || !mac.verify(*cand, pos, msg.mac)))
            continue;
        cs.ctlRespCursor = pos + countersPerReply;
        if (msg.hasData) {
            DataBlock plain =
                cryptPayload(cs.ctlRx, pos + 1, msg.cipherData);
            std::optional<HandshakeChunk> chunk =
                unpackHandshakeChunk(plain);
            if (chunk)
                handleControlReply(channel, *chunk);
        }
        return;
    }

    // 3) Unattributable: duplicate, replay, corruption, or garbage.
    ++framesDiscarded;
    if (audit) {
        audit->onIncident(curTick(), channel, EndpointSide::Processor,
                          ChannelIncident::FrameDiscarded);
    }
}

void
ObfusMemProcSide::handleControlReply(unsigned channel,
                                     const HandshakeChunk &chunk)
{
    ChannelState &cs = channelState[channel];
    if (cs.health != ChannelHealth::Rekeying || !cs.dh
        || chunk.epoch != cs.rekeyEpoch)
        return; // stale response from an abandoned attempt
    if (chunk.total == 0 || chunk.total > cs.respChunks.size()
        || chunk.len > handshakeChunkBytes)
        return;
    if (cs.respCollectEpoch != chunk.epoch
        || cs.respCollectTotal != chunk.total) {
        cs.respCollectEpoch = chunk.epoch;
        cs.respCollectTotal = chunk.total;
        cs.respCollectMask = 0;
    }
    if (chunk.chunk >= cs.respCollectTotal)
        return;
    cs.respChunks[chunk.chunk] = chunk;
    cs.respCollectMask |= 1u << chunk.chunk;
    if (cs.respCollectMask != (1u << cs.respCollectTotal) - 1)
        return;

    std::vector<uint8_t> pub_bytes;
    for (unsigned i = 0; i < cs.respCollectTotal; ++i) {
        const HandshakeChunk &c = cs.respChunks[i];
        pub_bytes.insert(pub_bytes.end(), c.data.begin(),
                         c.data.begin() + c.len);
    }
    finishRekey(channel, pub_bytes);
}

void
ObfusMemProcSide::finishRekey(unsigned channel,
                              const std::vector<uint8_t> &peer_pub)
{
    // The replay of every outstanding group and the release of held
    // requests all stage into one burst under the new epoch key.
    auto scope = burstScope(burst, [this] { flushBurst(); });
    ChannelState &cs = channelState[channel];
    crypto::BigUint pub =
        crypto::BigUint::fromBytes(peer_pub.data(), peer_pub.size());
    crypto::Aes128::Key key = epochSessionKey(
        crypto::DhEndpoint::deriveSessionKey(cs.dh->computeShared(pub)),
        cs.rekeyEpoch, channel);

    // Both data-plane streams restart at counter zero under the new
    // epoch key.
    cs.tx.setKey(key, 2ull * channel);
    cs.rx.setKey(key, 2ull * channel + 1);
    cs.reqCounter = 0;
    cs.respCounter = 0;
    cs.dh.reset();
    cs.rekeyAttempts = 0;
    cs.health = ChannelHealth::Active;
    ++rekeysCompleted;
    if (audit) {
        audit->onIncident(curTick(), channel, EndpointSide::Processor,
                          ChannelIncident::RekeyCompleted);
    }

    // Every outstanding group predates the new epoch; replay each at
    // the new counters, in deterministic tag order.
    std::vector<uint16_t> tags;
    tags.reserve(cs.pending.size());
    for (const auto &kv : cs.pending)
        tags.push_back(kv.first);
    std::sort(tags.begin(), tags.end());
    for (uint16_t tag : tags) {
        auto it = cs.pending.find(tag);
        if (it != cs.pending.end())
            it->second.attempts = 0;
        retransmitGroup(channel, tag);
    }

    // Release requests held while the channel re-keyed.
    while (!cs.rekeyHold.empty()
           && cs.health == ChannelHealth::Active) {
        QueuedWrite qw = std::move(cs.rekeyHold.front());
        cs.rekeyHold.pop_front();
        dispatch(channel, std::move(qw.pkt), std::move(qw.cb));
    }
    maybeDrainWrites(channel);
    ensureWatchdog(channel);
}

void
ObfusMemProcSide::quarantineChannel(unsigned channel)
{
    ChannelState &cs = channelState[channel];
    if (cs.health == ChannelHealth::Quarantined)
        return;
    cs.health = ChannelHealth::Quarantined;
    ++quarantines;
    if (audit) {
        audit->onIncident(curTick(), channel, EndpointSide::Processor,
                          ChannelIncident::ChannelQuarantined);
    }
    warn("obfusmem: channel ", channel, " quarantined after ",
         cs.rekeyAttempts, " failed re-key attempts");
    // Fail everything queued or in flight; the channel is dead.
    // Dropped callbacks simply never fire (the requester observes an
    // unserviceable channel, which is what quarantine means).
    cs.pending.clear();
    cs.outstandingReads = 0;
    cs.writeQueue.clear();
    cs.drainingWrites = false;
    cs.epochQueue.clear();
    cs.rekeyHold.clear();
    cs.dh.reset();
}

} // namespace obfusmem
