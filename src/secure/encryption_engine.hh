/**
 * @file
 * Counter-mode memory encryption (paper Sec. 2.4), the baseline
 * protection that every secure configuration includes.
 *
 * Data blocks sent to memory are XORed with AES pads derived from a
 * per-page major counter and per-block minor counter. Counters live in
 * memory, cached on chip in the 256 KB counter cache of Table 2;
 * counter-cache misses generate real extra memory reads, dirty
 * counter evictions generate writes, and counter blocks are protected
 * by a Bonsai-style Merkle tree whose node fetches also show up as
 * memory traffic. Pad generation is overlapped with the data fetch,
 * leaving roughly the XOR on the critical path, as in the paper.
 */

#ifndef OBFUSMEM_SECURE_ENCRYPTION_ENGINE_HH
#define OBFUSMEM_SECURE_ENCRYPTION_ENGINE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cpu/cache_hierarchy.hh"
#include "crypto/ctr_mode.hh"
#include "mem/packet.hh"
#include "secure/merkle.hh"
#include "sim/inline_function.hh"
#include "sim/sim_object.hh"
#include "util/secret.hh"

namespace obfusmem {

/** Parameters of the memory-encryption engine. */
struct EncryptionParams
{
    /** Counter cache: 256 KB, 8-way, 5-cycle (Table 2). */
    uint64_t counterCacheBytes = 256 * 1024;
    unsigned counterCacheAssoc = 8;
    Cycles counterCacheLatency = 5;
    Tick corePeriod = 500;

    /**
     * Pad-generation latency of the processor-side AES pipeline (24
     * stages at the 2 GHz core clock). Small enough that pad
     * generation overlaps the data fetch, leaving only the XOR on the
     * critical path, as the paper requires (Sec. 2.4).
     */
    Tick aesPadLatency = 24 * 500;
    /** XOR of pad and data. */
    Tick xorLatency = 1000;

    /**
     * Latency charged when a read is served from an in-flight write
     * (write-queue forwarding at the memory controller).
     */
    Tick forwardLatency = 40 * tickPerNs;

    /**
     * Enable the Bonsai Merkle tree over counters (functional
     * verification plus node-fetch traffic). Off by default in the
     * performance configurations: the paper's 2.2% memory-encryption
     * overhead does not include integrity traffic, treating
     * verification as speculative/amortized. The integrity ablation
     * bench turns this on.
     */
    bool integrity = false;
    uint64_t bmtCacheBytes = 64 * 1024;
    unsigned bmtCacheAssoc = 8;

    uint64_t pageBytes = 4096;
};

/**
 * The encryption engine wraps the path to memory: plaintext above,
 * ciphertext below.
 */
class MemoryEncryptionEngine : public SimObject, public MemSink
{
  public:
    /**
     * @param inner Downstream path (bus adapters / obfuscation).
     * @param data_capacity Size of the protected data region,
     *        starting at address 0.
     * @param counter_region_base Address where counter blocks live.
     * @param bmt_region_base Address where Merkle nodes live.
     * @param key The processor's memory-encryption key.
     */
    MemoryEncryptionEngine(const std::string &name, EventQueue &eq,
                           statistics::Group *parent,
                           const EncryptionParams &params,
                           MemSink &inner, uint64_t data_capacity,
                           uint64_t counter_region_base,
                           uint64_t bmt_region_base,
                           OBF_SECRET const crypto::Aes128::Key &key);

    void access(MemPacket pkt, PacketCallback cb) override;

    /** Decrypt a stored ciphertext block under the current counters. */
    DataBlock debugDecrypt(uint64_t addr,
                           const DataBlock &ciphertext) const;

    /** Encrypt a plaintext block under the current counters. */
    DataBlock debugEncrypt(uint64_t addr,
                           const DataBlock &plaintext) const;

    /**
     * Test hook: corrupt the stored counter for a block without
     * updating the Merkle tree, modelling an attacker flipping bits
     * in counter storage.
     */
    void tamperCounter(uint64_t addr);

    uint64_t integrityViolationCount() const
    {
        return static_cast<uint64_t>(integrityViolations.value());
    }

  private:
    struct PageCounters
    {
        uint64_t major = 0;
        std::vector<uint32_t> minors;
    };

    uint64_t pageOf(uint64_t addr) const
    {
        return addr / params.pageBytes;
    }

    unsigned blockIndexOf(uint64_t addr) const
    {
        return static_cast<unsigned>((addr % params.pageBytes)
                                     / blockBytes);
    }

    uint64_t counterBlockAddr(uint64_t page) const
    {
        return counterRegionBase + page * blockBytes;
    }

    PageCounters &countersFor(uint64_t page);
    const PageCounters *countersForConst(uint64_t page) const;

    /** Generate the 4 pads for one data block. */
    void padsFor(uint64_t addr, const PageCounters &ctrs,
                 OBF_SECRET crypto::Block128 out[4]) const;

    DataBlock applyPads(uint64_t addr, const PageCounters &ctrs,
                        const DataBlock &in) const;

    /** Digest of a page's counter block (Merkle leaf value). */
    crypto::Md5Digest counterDigest(uint64_t page) const;

    /** Digest of an untouched page's counter block. */
    static crypto::Md5Digest freshPageDigest(uint64_t page_bytes);

    /**
     * Continuation resumed with the tick at which its input (counter
     * block, Merkle ancestor) is available. Inline storage sized for
     * the largest capture on the write path (this + MemPacket +
     * PacketCallback + page); anything bigger fails to compile rather
     * than reintroducing a heap hop per counter fetch.
     */
    using TickCont = InlineFunction<void(Tick), 192>;

    /**
     * Ensure the counter block for `page` is on chip; k runs with the
     * tick at which the counters are available.
     */
    void withCounter(uint64_t page, TickCont k);

    /** Model Merkle verification traffic for a fetched counter. */
    void bmtVerify(uint64_t page, TickCont k);

    /** State of an in-progress Merkle path walk. */
    struct BmtWalk
    {
        unsigned level;
        uint64_t index;
        TickCont k;
    };

    /** One async step of the Merkle path walk. */
    void bmtWalkStep(std::shared_ptr<BmtWalk> walk);

    /**
     * Linearized address of an interior Merkle node inside the BMT
     * region (levels packed consecutively, shrinking by the arity).
     */
    uint64_t bmtNodeAddr(unsigned level, uint64_t index) const
    {
        return bmtRegionBase
               + (bmtLevelStart[level] + index) * blockBytes;
    }

    /** Functional tree update + dirty-node traffic on writeback. */
    void bmtUpdate(uint64_t page, Tick when);

    void writebackCounter(uint64_t ctr_block_addr, Tick when);

    EncryptionParams params;
    MemSink &inner;
    uint64_t dataCapacity;
    uint64_t counterRegionBase;
    uint64_t bmtRegionBase;

    /**
     * Pad source for the engine's page/block-counter IVs. Routed
     * through AesCtr's IV passthrough so the crypto dispatch (and the
     * AES-NI batch path) stays behind one construction site in
     * crypto/.
     */
    crypto::AesCtr padSource;
    std::unordered_map<uint64_t, PageCounters> counters;
    MerkleTree tree;
    /** Block offset of each interior level in the BMT region. */
    std::vector<uint64_t> bmtLevelStart;

    FuncCache counterCache;
    FuncCache bmtCache;

    std::unordered_map<uint64_t, std::vector<TickCont>>
        pendingCounterFetches;

    /**
     * Plaintext of writes still travelling to memory, so a racing
     * read never pairs an old ciphertext with a bumped counter.
     */
    struct InflightWrite
    {
        /** Un-encrypted write data: the confidentiality target. */
        OBF_SECRET DataBlock plaintext;
        unsigned count = 0;
    };
    std::unordered_map<uint64_t, InflightWrite> inflightWrites;

    uint64_t nextPktId = 1u << 30;

    statistics::Scalar ctrHits, ctrMisses, ctrWritebacks;
    statistics::Scalar bmtFetches, bmtWritebacks;
    statistics::Scalar integrityViolations;
    statistics::Scalar blocksEncrypted, blocksDecrypted;
    statistics::Scalar forwardedReads;
    statistics::Scalar retiredZero;
};

} // namespace obfusmem

#endif // OBFUSMEM_SECURE_ENCRYPTION_ENGINE_HH
