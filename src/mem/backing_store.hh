/**
 * @file
 * Sparse functional memory: the authoritative contents of the
 * simulated PCM. Only blocks that have ever been written are stored;
 * reads of untouched blocks return a deterministic pseudo-random fill
 * (modelling uninitialized memory without 8 GB of host allocation).
 */

#ifndef OBFUSMEM_MEM_BACKING_STORE_HH
#define OBFUSMEM_MEM_BACKING_STORE_HH

#include <cstdint>
#include <unordered_map>

#include "mem/packet.hh"

namespace obfusmem {

/**
 * Functional backing store keyed by block address.
 */
class BackingStore
{
  public:
    explicit BackingStore(uint64_t capacity_bytes)
        : capacityBytes(capacity_bytes)
    {}

    /** Read a block (deterministic junk if never written). */
    DataBlock read(uint64_t addr) const;

    /** Write a block. */
    void write(uint64_t addr, const DataBlock &data);

    /** Whether the block has ever been written. */
    bool populated(uint64_t addr) const;

    /** Number of distinct blocks written so far. */
    size_t blocksAllocated() const { return blocks.size(); }

    uint64_t capacity() const { return capacityBytes; }

  private:
    uint64_t capacityBytes;
    std::unordered_map<uint64_t, DataBlock> blocks;
};

/**
 * Deterministic "uninitialized memory" content for the first read of
 * a never-written logical ORAM block, shared by every functional ORAM
 * structure so first-touch junk is identical across backends. It is
 * the same xorshift fill as an unwritten BackingStore block, under
 * another seed.
 */
DataBlock junkDataBlock(uint64_t block_id);

} // namespace obfusmem

#endif // OBFUSMEM_MEM_BACKING_STORE_HH
