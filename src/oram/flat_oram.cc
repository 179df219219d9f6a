/**
 * @file
 * FlatOram implementation.
 */

#include "oram/flat_oram.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "mem/backing_store.hh"
#include "util/assert.hh"
#include "util/logging.hh"
#include "util/serial.hh"

namespace obfusmem {

namespace {

/** SplitMix64-style mix for the deterministic unmapped-read probe. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

FlatOram::FlatOram(const Params &params_)
    : params(params_), rng(params_.seed)
{
    fatal_if(params.capacityBlocks == 0, "empty Flat ORAM");
    fatal_if(params.utilization <= 0.0 || params.utilization > 1.0,
             "Flat ORAM utilization must be in (0, 1]");
    physSlots = static_cast<uint64_t>(
        static_cast<double>(params.capacityBlocks)
        / params.utilization);
    physSlots = std::max(physSlots, params.capacityBlocks + 1);
}

DataBlock
FlatOram::read(uint64_t block_id)
{
    ++accessCount;
    ++physReads;
    lastReads.clear();
    lastWrites.clear();

    auto it = posMap.find(block_id);
    if (it == posMap.end()) {
        // Never written: the controller still performs one read (at a
        // deterministic probe slot) so a read miss is not free, and
        // returns "uninitialized memory" junk.
        lastReads.push_back(mix64(block_id) % physSlots);
        return junkDataBlock(block_id);
    }
    lastReads.push_back(it->second);
    return slots.at(it->second).data;
}

void
FlatOram::write(uint64_t block_id, const DataBlock &data)
{
    ++accessCount;
    lastReads.clear();
    lastWrites.clear();

    // The design point: live blocks stay at or below the logical
    // capacity, so a free slot always exists (utilization < 1).
    OBF_ASSERT(posMap.size() < physSlots,
               "Flat ORAM driven past its physical capacity: ",
               posMap.size(), " live blocks in ", physSlots, " slots");

    // Uniformly random free slot: probe the occupancy map (held
    // on-controller, so probes cost no memory traffic) until a free
    // slot comes up. Expected probes = 1/(1 - occupancy).
    uint64_t target = 0;
    unsigned probes = 0;
    do {
        OBF_ASSERT(probes < params.maxProbes,
                   "Flat ORAM exhausted ", params.maxProbes,
                   " occupancy probes (occupancy ", occupancy(),
                   "); the structure is past its design utilization");
        ++probes;
        target = rng.randUnder(physSlots);
    } while (slots.count(target) != 0);
    lastProbes = probes;
    maxProbesSeen = std::max(maxProbesSeen, probes);

    // Free the old slot (metadata-only), then place the new version.
    auto it = posMap.find(block_id);
    if (it != posMap.end())
        slots.erase(it->second);
    slots[target] = {block_id, data};
    posMap[block_id] = target;

    ++physWrites;
    lastWrites.push_back(target);
}

std::optional<uint64_t>
FlatOram::slotOf(uint64_t block_id) const
{
    auto it = posMap.find(block_id);
    if (it == posMap.end())
        return std::nullopt;
    return it->second;
}

bool
FlatOram::checkInvariant() const
{
    // Distinct blocks owning distinct live slots, as many as there are
    // live slots, leave no slot unowned or owned twice.
    if (slots.size() != posMap.size())
        return false;
    for (const auto &[block_id, slot] : posMap) {
        auto it = slots.find(slot);
        if (slot >= physSlots || it == slots.end()
            || it->second.blockId != block_id) {
            return false;
        }
    }
    return true;
}

namespace {
/** "FORAMv1\0" as a little-endian u64 format tag. */
constexpr uint64_t kFlatOramMagic = 0x0031764d41524f46ULL;
} // namespace

void
FlatOram::serialize(std::ostream &os) const
{
    serial::putU64(os, kFlatOramMagic);
    serial::putU64(os, params.capacityBlocks);
    serial::putU64(os, physSlots);

    serial::putU64(os, slots.size());
    for (const auto &[slot, live] : slots) {
        serial::putU64(os, live.blockId);
        serial::putU64(os, slot);
        serial::putBytes(os, live.data.data(), live.data.size());
    }

    for (uint64_t word : rng.rawState())
        serial::putU64(os, word);
    serial::putU64(os, accessCount);
    serial::putU64(os, physWrites);
    serial::putU64(os, physReads);
}

bool
FlatOram::deserialize(std::istream &is)
{
    // Parse into a fresh structure and commit it only once the whole
    // payload has been read and passes checkInvariant(), so a rejected
    // stream leaves the live structure untouched. Nothing is reserved
    // by a count read from the stream.
    FlatOram fresh(params);
    if (!serial::expectU64(is, kFlatOramMagic)
        || !serial::expectU64(is, params.capacityBlocks)
        || !serial::expectU64(is, physSlots)) {
        return false;
    }

    uint64_t live = 0;
    if (!serial::getU64(is, live))
        return false;
    for (uint64_t i = 0; i < live; ++i) {
        uint64_t slot = 0;
        LiveSlot entry{};
        if (!serial::getU64(is, entry.blockId)
            || !serial::getU64(is, slot)
            || !serial::getBytes(is, entry.data.data(),
                                 entry.data.size())) {
            return false;
        }
        fresh.posMap[entry.blockId] = slot;
        fresh.slots[slot] = entry;
    }

    std::array<uint64_t, 4> state{};
    for (uint64_t &word : state) {
        if (!serial::getU64(is, word))
            return false;
    }
    fresh.rng.setRawState(state);
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
