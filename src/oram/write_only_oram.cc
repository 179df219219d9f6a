/**
 * @file
 * WriteOnlyOram implementation.
 */

#include "oram/write_only_oram.hh"

#include <istream>
#include <ostream>
#include <utility>

#include "mem/backing_store.hh"
#include "util/assert.hh"
#include "util/logging.hh"
#include "util/serial.hh"

namespace obfusmem {

WriteOnlyOram::WriteOnlyOram(const Params &params_)
    : params(params_)
{
    fatal_if(params.capacityBlocks == 0, "empty write-only ORAM");
}

DataBlock
WriteOnlyOram::freshest(uint64_t block_id) const
{
    auto it = holdPos.find(block_id);
    if (it != holdPos.end())
        return holdArea.at(it->second).data;
    auto main_it = mainArea.find(block_id);
    if (main_it != mainArea.end())
        return main_it->second;
    return junkDataBlock(block_id);
}

DataBlock
WriteOnlyOram::read(uint64_t block_id)
{
    OBF_ASSERT(block_id < params.capacityBlocks,
               "write-only ORAM block ", block_id, " out of range");
    ++accessCount;
    ++physReads;
    lastReads.clear();
    lastWrites.clear();

    // Never-written blocks still cost one main-area read; the
    // returned content is deterministic junk.
    auto it = holdPos.find(block_id);
    lastReads.push_back(it != holdPos.end()
                            ? params.capacityBlocks + it->second
                            : block_id);
    return freshest(block_id);
}

void
WriteOnlyOram::write(uint64_t block_id, const DataBlock &data)
{
    const uint64_t n = params.capacityBlocks;
    OBF_ASSERT(block_id < n,
               "write-only ORAM block ", block_id, " out of range");
    ++accessCount;
    lastReads.clear();
    lastWrites.clear();

    const uint64_t w = writeCounter % n;

    // Slot reuse safety: the round-robin refresh must have propagated
    // (or a newer write superseded) whatever lived here - see the
    // header's reuse argument. A firing assert means the refresh
    // schedule is broken and data would be silently lost.
    auto reused = holdArea.find(w);
    OBF_ASSERT(reused == holdArea.end(),
               "write-only ORAM holding slot ", w,
               " reused before its block ", reused->second.blockId,
               " was propagated (write ", writeCounter, ")");

    // Step 1: the logical write, appended to the holding area.
    auto old_it = holdPos.find(block_id);
    if (old_it != holdPos.end())
        holdArea.erase(old_it->second);
    holdArea[w] = {block_id, data};
    holdPos[block_id] = w;
    ++physWrites;
    lastWrites.push_back(n + w);

    // Step 2: round-robin refresh of main block r = c mod N. The
    // freshest copy of r (possibly the data just written, when
    // block_id == r) is propagated to M[r]; if it came from holding,
    // that slot is released. A copy already in main is rewritten
    // unchanged. The physical address depends only on the write
    // counter.
    const uint64_t r = w;
    auto ref_it = holdPos.find(r);
    if (ref_it != holdPos.end()) {
        auto held = holdArea.find(ref_it->second);
        mainArea[r] = held->second.data;
        holdArea.erase(held);
        holdPos.erase(ref_it);
    }
    ++physWrites;
    lastWrites.push_back(r);

    ++writeCounter;
}

bool
WriteOnlyOram::inHolding(uint64_t block_id) const
{
    return holdPos.count(block_id) != 0;
}

bool
WriteOnlyOram::checkInvariant() const
{
    const uint64_t n = params.capacityBlocks;
    for (const auto &[block_id, data] : mainArea) {
        if (block_id >= n)
            return false;
    }
    // Distinct blocks owning distinct live slots, as many as there are
    // live slots, leave no slot unowned or owned twice.
    if (holdArea.size() != holdPos.size())
        return false;
    for (const auto &[block_id, slot] : holdPos) {
        auto it = holdArea.find(slot);
        if (block_id >= n || slot >= n || it == holdArea.end()
            || it->second.blockId != block_id) {
            return false;
        }
        // H[slot] was last written `age` writes ago, so age must be
        // below the write count; its block's refresh comes `ahead`
        // writes after that write, and must still be to come.
        const uint64_t age = ((writeCounter - 1) % n + n - slot) % n;
        const uint64_t ahead = (block_id + n - slot) % n;
        if (age >= writeCounter || ahead <= age)
            return false;
    }
    return true;
}

namespace {
/** "WORAMv2\0" as a little-endian u64 format tag. */
constexpr uint64_t kWoOramMagic = 0x0032764d41524f57ULL;
} // namespace

void
WriteOnlyOram::serialize(std::ostream &os) const
{
    serial::putU64(os, kWoOramMagic);
    serial::putU64(os, params.capacityBlocks);
    serial::putU64(os, writeCounter);

    serial::putU64(os, mainArea.size());
    for (const auto &[block_id, data] : mainArea) {
        serial::putU64(os, block_id);
        serial::putBytes(os, data.data(), data.size());
    }

    serial::putU64(os, holdArea.size());
    for (const auto &[slot, held] : holdArea) {
        serial::putU64(os, held.blockId);
        serial::putU64(os, slot);
        serial::putBytes(os, held.data.data(), held.data.size());
    }

    serial::putU64(os, accessCount);
    serial::putU64(os, physWrites);
    serial::putU64(os, physReads);
}

bool
WriteOnlyOram::deserialize(std::istream &is)
{
    // Parse into a fresh structure and commit it only once the whole
    // payload has been read and passes checkInvariant(), so a rejected
    // stream leaves the live structure untouched. Nothing is reserved
    // by a count read from the stream.
    WriteOnlyOram fresh(params);
    uint64_t main_entries = 0;
    if (!serial::expectU64(is, kWoOramMagic)
        || !serial::expectU64(is, params.capacityBlocks)
        || !serial::getU64(is, fresh.writeCounter)
        || !serial::getU64(is, main_entries)) {
        return false;
    }
    for (uint64_t i = 0; i < main_entries; ++i) {
        uint64_t block_id = 0;
        DataBlock data{};
        if (!serial::getU64(is, block_id)
            || !serial::getBytes(is, data.data(), data.size())) {
            return false;
        }
        fresh.mainArea[block_id] = data;
    }

    uint64_t held = 0;
    if (!serial::getU64(is, held))
        return false;
    for (uint64_t i = 0; i < held; ++i) {
        uint64_t slot = 0;
        HeldCopy copy{};
        if (!serial::getU64(is, copy.blockId)
            || !serial::getU64(is, slot)
            || !serial::getBytes(is, copy.data.data(),
                                 copy.data.size())) {
            return false;
        }
        fresh.holdPos[copy.blockId] = slot;
        fresh.holdArea[slot] = copy;
    }

    if (!serial::getU64(is, fresh.accessCount)
        || !serial::getU64(is, fresh.physWrites)
        || !serial::getU64(is, fresh.physReads)
        || !fresh.checkInvariant()) {
        return false;
    }
    *this = std::move(fresh);
    return true;
}

} // namespace obfusmem
