/**
 * @file
 * MemoryEncryptionEngine implementation.
 */

#include "secure/encryption_engine.hh"

#include <algorithm>

#include "util/assert.hh"
#include "util/logging.hh"

namespace obfusmem {

MemoryEncryptionEngine::MemoryEncryptionEngine(
    const std::string &name, EventQueue &eq, statistics::Group *parent,
    const EncryptionParams &params_, MemSink &inner_,
    uint64_t data_capacity, uint64_t counter_region_base,
    uint64_t bmt_region_base, const crypto::Aes128::Key &key)
    : SimObject(name, eq, parent), params(params_), inner(inner_),
      dataCapacity(data_capacity),
      counterRegionBase(counter_region_base),
      bmtRegionBase(bmt_region_base), padSource(key, 0),
      tree(data_capacity / params_.pageBytes, 4,
           freshPageDigest(params_.pageBytes)),
      counterCache(CacheParams{params_.counterCacheBytes,
                               params_.counterCacheAssoc,
                               params_.counterCacheLatency}),
      bmtCache(CacheParams{params_.bmtCacheBytes, params_.bmtCacheAssoc,
                           params_.counterCacheLatency})
{
    // Pack interior Merkle levels back to back in the BMT region.
    bmtLevelStart.resize(tree.levels() + 1, 0);
    uint64_t nodes_at_level = tree.leafCount();
    uint64_t offset = 0;
    for (unsigned level = 1; level <= tree.levels(); ++level) {
        nodes_at_level = (nodes_at_level + 3) / 4;
        bmtLevelStart[level] = offset;
        offset += nodes_at_level;
    }

    stats().addScalar("ctrHits", &ctrHits, "counter cache hits");
    stats().addScalar("ctrMisses", &ctrMisses, "counter cache misses");
    stats().addScalar("ctrWritebacks", &ctrWritebacks,
                      "dirty counter blocks written back");
    stats().addScalar("bmtFetches", &bmtFetches,
                      "Merkle node fetches from memory");
    stats().addScalar("bmtWritebacks", &bmtWritebacks,
                      "dirty Merkle nodes written back");
    stats().addScalar("integrityViolations", &integrityViolations,
                      "Merkle verification failures");
    stats().addScalar("blocksEncrypted", &blocksEncrypted,
                      "data blocks encrypted on the write path");
    stats().addScalar("blocksDecrypted", &blocksDecrypted,
                      "data blocks decrypted on the read path");
    stats().addScalar("forwardedReads", &forwardedReads,
                      "reads served from an in-flight write");
    // Retired pad-memo counters, kept at zero for perfbench's readers.
    for (const char *s : {"padMemoHits", "padMemoMisses"})
        stats().addScalar(s, &retiredZero, "always 0 (retired)");
}

MemoryEncryptionEngine::PageCounters &
MemoryEncryptionEngine::countersFor(uint64_t page)
{
    auto it = counters.find(page);
    if (it == counters.end()) {
        PageCounters fresh;
        fresh.minors.assign(params.pageBytes / blockBytes, 0);
        it = counters.emplace(page, std::move(fresh)).first;
    }
    return it->second;
}

const MemoryEncryptionEngine::PageCounters *
MemoryEncryptionEngine::countersForConst(uint64_t page) const
{
    auto it = counters.find(page);
    return it == counters.end() ? nullptr : &it->second;
}

void
MemoryEncryptionEngine::padsFor(uint64_t addr, const PageCounters &ctrs,
                                crypto::Block128 out[4]) const
{
    unsigned block_idx = blockIndexOf(addr);
    OBF_DCHECK(block_idx < ctrs.minors.size(),
               "block index ", block_idx, " outside page counters");
    crypto::MemoryEncryptionIv iv;
    iv.pageId = pageOf(addr);
    iv.pageOffset = block_idx;
    iv.minorCounter = ctrs.minors[block_idx];
    iv.majorCounter = ctrs.major;
    crypto::Block128 base = iv.pack();
    for (unsigned i = 0; i < 4; ++i) {
        out[i] = base;
        // Sub-block index occupies a byte the IV layout leaves free.
        out[i][9] ^= static_cast<uint8_t>(i << 6);
        out[i][10] ^= static_cast<uint8_t>(i);
    }
    // One batched pass over the four sub-block IVs (in place).
    padSource.padsForIvs(out, out, 4);
}

DataBlock
MemoryEncryptionEngine::applyPads(uint64_t addr,
                                  const PageCounters &ctrs,
                                  const DataBlock &in) const
{
    crypto::Block128 pads[4];
    padsFor(addr, ctrs, pads);
    DataBlock out = in;
    for (unsigned i = 0; i < 4; ++i)
        crypto::xorInto(out.data() + 16 * i, pads[i].data(), 16);
    return out;
}

crypto::Md5Digest
MemoryEncryptionEngine::freshPageDigest(uint64_t page_bytes)
{
    crypto::Md5 ctx;
    uint8_t buf[8];
    crypto::storeLe64(buf, 0);
    ctx.update(buf, 8);
    uint8_t zeros[4] = {0, 0, 0, 0};
    for (uint64_t i = 0; i < page_bytes / blockBytes; ++i)
        ctx.update(zeros, 4);
    return ctx.finalize();
}

crypto::Md5Digest
MemoryEncryptionEngine::counterDigest(uint64_t page) const
{
    const PageCounters *ctrs = countersForConst(page);
    crypto::Md5 ctx;
    uint8_t buf[8];
    uint64_t major = ctrs ? ctrs->major : 0;
    crypto::storeLe64(buf, major);
    ctx.update(buf, 8);
    if (ctrs) {
        for (uint32_t minor : ctrs->minors) {
            crypto::storeLe64(buf, minor);
            ctx.update(buf, 4);
        }
    } else {
        // Untouched page: all-zero minors.
        uint8_t zeros[4] = {0, 0, 0, 0};
        for (uint64_t i = 0; i < params.pageBytes / blockBytes; ++i)
            ctx.update(zeros, 4);
    }
    return ctx.finalize();
}

void
MemoryEncryptionEngine::bmtVerify(uint64_t page, TickCont k)
{
    if (!params.integrity) {
        k(curTick());
        return;
    }

    // Functional check: the fetched counter block must be consistent
    // with the tree (the root is the on-chip trust anchor).
    if (!tree.verify(page, counterDigest(page)))
        ++integrityViolations;

    // Traffic model: walk up the interior nodes until a cached
    // (trusted) ancestor is found; each miss fetches one node block.
    auto walk = std::make_shared<BmtWalk>();
    walk->level = 1;
    walk->index = page / 4;
    walk->k = std::move(k);
    bmtWalkStep(std::move(walk));
}

void
MemoryEncryptionEngine::bmtWalkStep(std::shared_ptr<BmtWalk> walk)
{
    if (walk->level >= tree.levels()) {
        // Reached the root, which is held on chip.
        walk->k(curTick());
        return;
    }
    uint64_t node_addr = bmtNodeAddr(walk->level, walk->index);
    if (bmtCache.find(node_addr)) {
        // A cached ancestor is trusted; the walk terminates here.
        walk->k(curTick());
        return;
    }
    ++bmtFetches;
    MemPacket pkt;
    pkt.id = nextPktId++;
    pkt.cmd = MemCmd::Read;
    pkt.addr = node_addr;
    pkt.issueTick = curTick();
    inner.access(std::move(pkt),
        [this, walk = std::move(walk), node_addr](MemPacket &&)
            mutable {
            auto victim = bmtCache.insert(node_addr, DataBlock{},
                                          false, false);
            if (victim.valid && victim.dirty) {
                ++bmtWritebacks;
                MemPacket wb;
                wb.id = nextPktId++;
                wb.cmd = MemCmd::Write;
                wb.addr = victim.addr;
                wb.issueTick = curTick();
                inner.access(std::move(wb), [](MemPacket &&) {});
            }
            walk->level += 1;
            walk->index /= 4;
            bmtWalkStep(std::move(walk));
        });
}

void
MemoryEncryptionEngine::bmtUpdate(uint64_t page, Tick when)
{
    if (!params.integrity)
        return;
    tree.update(page, counterDigest(page));

    // Dirty the interior path nodes in the BMT cache; evicted dirty
    // nodes become memory writes.
    uint64_t index = page / 4;
    for (unsigned level = 1; level < tree.levels(); ++level) {
        uint64_t node_addr = bmtNodeAddr(level, index);
        auto victim = bmtCache.insert(node_addr, DataBlock{}, true,
                                      false);
        if (victim.valid && victim.dirty) {
            ++bmtWritebacks;
            MemPacket wb;
            wb.id = nextPktId++;
            wb.cmd = MemCmd::Write;
            wb.addr = victim.addr;
            wb.issueTick = std::max(when, curTick());
            inner.access(std::move(wb), [](MemPacket &&) {});
        }
        index /= 4;
    }
}

void
MemoryEncryptionEngine::writebackCounter(uint64_t ctr_block_addr,
                                         Tick when)
{
    ++ctrWritebacks;
    MemPacket wb;
    wb.id = nextPktId++;
    wb.cmd = MemCmd::Write;
    wb.addr = ctr_block_addr;
    wb.issueTick = std::max(when, curTick());
    inner.access(std::move(wb), [](MemPacket &&) {});
    bmtUpdate((ctr_block_addr - counterRegionBase) / blockBytes, when);
}

void
MemoryEncryptionEngine::withCounter(uint64_t page, TickCont k)
{
    uint64_t ctr_addr = counterBlockAddr(page);
    Tick cache_lat = params.counterCacheLatency * params.corePeriod;

    if (counterCache.find(ctr_addr)) {
        ++ctrHits;
        k(curTick() + cache_lat);
        return;
    }

    auto pending = pendingCounterFetches.find(ctr_addr);
    if (pending != pendingCounterFetches.end()) {
        pending->second.push_back(std::move(k));
        return;
    }

    ++ctrMisses;
    pendingCounterFetches[ctr_addr].push_back(std::move(k));

    MemPacket pkt;
    pkt.id = nextPktId++;
    pkt.cmd = MemCmd::Read;
    pkt.addr = ctr_addr;
    pkt.issueTick = curTick();
    inner.access(std::move(pkt),
        [this, ctr_addr, page](MemPacket &&) {
            // Verification proceeds in the background (speculative
            // use, as in Bonsai Merkle trees): the fetched counter is
            // usable immediately, while the node fetches still cost
            // memory bandwidth and tampering is still flagged.
            bmtVerify(page, [](Tick) {});

            Tick ready = curTick();
            auto victim = counterCache.insert(ctr_addr, DataBlock{},
                                              false, false);
            if (victim.valid && victim.dirty)
                writebackCounter(victim.addr, ready);
            auto waiters = std::move(pendingCounterFetches[ctr_addr]);
            pendingCounterFetches.erase(ctr_addr);
            for (auto &waiter : waiters)
                waiter(ready);
        });
}

void
MemoryEncryptionEngine::access(MemPacket pkt, PacketCallback cb)
{
    panic_if(pkt.addr >= dataCapacity,
             "encryption engine received a non-data address");

    uint64_t page = pageOf(pkt.addr);

    if (pkt.isWrite()) {
        InflightWrite &inflight = inflightWrites[pkt.addr];
        inflight.plaintext = pkt.data;
        ++inflight.count;
        // Bump the minor counter, encrypt and send the write down.
        withCounter(page,
            [this, pkt = std::move(pkt), cb = std::move(cb),
             page](Tick ready) mutable {
                PageCounters &ctrs = countersFor(page);
                unsigned idx = blockIndexOf(pkt.addr);
                ++ctrs.minors[idx];
                panic_if(ctrs.minors[idx] == 0,
                         "minor counter overflow; page re-encryption "
                         "not modelled");
                if (auto *line =
                        counterCache.find(counterBlockAddr(page))) {
                    line->dirty = true;
                }
                ++blocksEncrypted;
                pkt.data = applyPads(pkt.addr, ctrs, pkt.data);
                Tick send = std::max(ready + params.xorLatency,
                                     curTick());
                eventQueue().schedule(send,
                    [this, pkt = std::move(pkt),
                     cb = std::move(cb)]() mutable {
                        uint64_t addr = pkt.addr;
                        inner.access(std::move(pkt),
                            [this, addr, cb = std::move(cb)](
                                MemPacket &&resp) mutable {
                                auto it = inflightWrites.find(addr);
                                if (it != inflightWrites.end()
                                    && --it->second.count == 0) {
                                    inflightWrites.erase(it);
                                }
                                cb(std::move(resp));
                            });
                    });
            });
        return;
    }

    // A read racing an in-flight write is served from the write's
    // plaintext: memory may still hold the old ciphertext while the
    // counter has already advanced.
    if (auto it = inflightWrites.find(pkt.addr);
        it != inflightWrites.end()) {
        pkt.data = it->second.plaintext;
        ++blocksDecrypted;
        ++forwardedReads;
        // Timing: a real controller would still fetch from memory (or
        // its write queue); charge a typical queue-forward latency so
        // this correctness path is not a performance fast-path.
        Tick done = curTick() + params.xorLatency
                    + params.forwardLatency;
        eventQueue().schedule(done,
            [pkt = std::move(pkt), cb = std::move(cb)]() mutable {
                cb(std::move(pkt));
            });
        return;
    }

    // Read: fetch data and counter in parallel; decrypt when both the
    // ciphertext and the pad are available.
    struct Join
    {
        bool dataDone = false;
        bool padDone = false;
        Tick dataTick = 0;
        Tick padTick = 0;
        MemPacket pkt;
        PacketCallback cb;
    };
    auto join = std::make_shared<Join>();
    join->cb = std::move(cb);

    auto finish = [this, join, page]() {
        if (!join->dataDone || !join->padDone)
            return;
        Tick done = std::max(join->dataTick, join->padTick)
                    + params.xorLatency;
        ++blocksDecrypted;
        PageCounters &ctrs = countersFor(page);
        join->pkt.data = applyPads(join->pkt.addr, ctrs,
                                   join->pkt.data);
        Tick fire = std::max(done, curTick());
        eventQueue().schedule(fire, [join]() {
            join->cb(std::move(join->pkt));
        });
    };

    MemPacket req = std::move(pkt);
    withCounter(page, [this, join, finish](Tick ready) {
        join->padTick = ready + params.aesPadLatency;
        join->padDone = true;
        finish();
    });

    inner.access(std::move(req),
        [this, join, finish](MemPacket &&resp) {
            join->pkt = std::move(resp);
            join->dataTick = curTick();
            join->dataDone = true;
            finish();
        });
}

DataBlock
MemoryEncryptionEngine::debugDecrypt(uint64_t addr,
                                     const DataBlock &ciphertext) const
{
    uint64_t page = pageOf(addr);
    const PageCounters *ctrs = countersForConst(page);
    if (!ctrs) {
        PageCounters fresh;
        fresh.minors.assign(params.pageBytes / blockBytes, 0);
        return applyPads(addr, fresh, ciphertext);
    }
    return applyPads(addr, *ctrs, ciphertext);
}

DataBlock
MemoryEncryptionEngine::debugEncrypt(uint64_t addr,
                                     const DataBlock &plaintext) const
{
    // Counter-mode: encrypt and decrypt are the same XOR.
    return debugDecrypt(addr, plaintext);
}

void
MemoryEncryptionEngine::tamperCounter(uint64_t addr)
{
    PageCounters &ctrs = countersFor(pageOf(addr));
    ctrs.minors[blockIndexOf(addr)] ^= 0x1;
    // Deliberately no tree.update(): this models an attacker, so the
    // next verification of this page must fail.
}

} // namespace obfusmem
