/**
 * @file
 * PathOram implementation.
 */

#include "oram/path_oram.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "util/assert.hh"
#include "util/logging.hh"
#include "util/serial.hh"

namespace obfusmem {

DataBlock
junkDataBlock(uint64_t block_id)
{
    DataBlock result{};
    uint64_t x = block_id ^ 0x0bf5ceedULL;
    for (auto &byte : result) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        byte = static_cast<uint8_t>(x);
    }
    return result;
}

PathOram::PathOram(const Params &params_)
    : params(params_), rng(params_.seed)
{
    fatal_if(params.levels == 0 || params.levels > 30,
             "unsupported tree height");
    numLeaves = uint64_t{1} << params.levels;
    numBuckets = (uint64_t{2} << params.levels) - 1;
    slots.resize(numBuckets * params.bucketSize);
}

uint64_t
PathOram::capacityBlocks() const
{
    return physicalBlocks() / 2;
}

uint64_t
PathOram::bucketOnPath(uint64_t leaf, unsigned level) const
{
    // Heap numbering: root = 0; the leaf bucket for `leaf` is at
    // index (2^L - 1) + leaf. Level 0 = root.
    uint64_t node = (numLeaves - 1) + leaf;
    for (unsigned up = params.levels; up > level; --up)
        node = (node - 1) / 2;
    return node;
}

DataBlock
PathOram::read(uint64_t block_id)
{
    return access(block_id, nullptr);
}

void
PathOram::write(uint64_t block_id, const DataBlock &data)
{
    access(block_id, &data);
}

DataBlock
PathOram::access(uint64_t block_id, const DataBlock *new_data)
{
    ++accessCount;
    lastSlots.clear();

    // Position lookup; unmapped blocks get a fresh random leaf.
    auto pos_it = posMap.find(block_id);
    uint64_t leaf;
    if (pos_it == posMap.end()) {
        leaf = rng.randUnder(numLeaves);
    } else {
        leaf = pos_it->second;
    }

    // Read the whole path into the stash.
    for (unsigned level = 0; level <= params.levels; ++level) {
        uint64_t bucket = bucketOnPath(leaf, level);
        for (unsigned s = 0; s < params.bucketSize; ++s) {
            lastSlots.push_back({bucket, s});
            Slot &slot = slots[bucket * params.bucketSize + s];
            if (slot.valid) {
                stash[slot.blockId] = {slot.leaf, slot.data};
                slot.valid = false;
            }
        }
    }

    // Remap to a fresh random leaf (the heart of the obfuscation).
    uint64_t new_leaf = rng.randUnder(numLeaves);
    posMap[block_id] = new_leaf;

    // Serve the request out of the stash.
    auto stash_it = stash.find(block_id);
    DataBlock result{};
    if (stash_it == stash.end()) {
        // First touch: deterministic junk, like uninitialized memory.
        result = junkDataBlock(block_id);
        stash[block_id] = {new_leaf, result};
    } else {
        stash_it->second.leaf = new_leaf;
        result = stash_it->second.data;
    }
    if (new_data)
        stash[block_id].data = *new_data;

    // The stash is now at its mid-access peak: the whole path plus
    // the accessed block, before eviction drains it. This is the
    // occupancy a hardware stash must hold, so the capacity limit is
    // enforced here - not after eviction, which systematically
    // under-reports pressure.
    lastPeakStash = stash.size();
    maxTransientStash = std::max(maxTransientStash, lastPeakStash);
    if (lastPeakStash > params.stashLimit) {
        OBF_ASSERT(!params.failOnOverflow,
                   "Path ORAM stash overflow: ", lastPeakStash,
                   " blocks > stashLimit ", params.stashLimit,
                   " (access ", accessCount, ", block ", block_id,
                   "); a hardware controller deadlocks here. Set "
                   "Params::failOnOverflow=false only to measure "
                   "overflow frequency past the design point.");
        ++overflows;
    }

    // Write back: from the leaf up, greedily place stash blocks whose
    // assigned path intersects this bucket.
    for (int level = static_cast<int>(params.levels); level >= 0;
         --level) {
        uint64_t bucket = bucketOnPath(leaf, level);
        unsigned placed = 0;
        auto it = stash.begin();
        while (it != stash.end() && placed < params.bucketSize) {
            if (bucketOnPath(it->second.leaf, level) == bucket) {
                Slot &slot =
                    slots[bucket * params.bucketSize + placed];
                slot.valid = true;
                slot.blockId = it->first;
                slot.leaf = it->second.leaf;
                slot.data = it->second.data;
                it = stash.erase(it);
                ++placed;
            } else {
                ++it;
            }
        }
    }

    maxStash = std::max(maxStash, stash.size());

    return result;
}

bool
PathOram::checkInvariant() const
{
    for (const auto &[block_id, leaf] : posMap) {
        if (stash.count(block_id))
            continue;
        bool found = false;
        for (unsigned level = 0; level <= params.levels && !found;
             ++level) {
            uint64_t bucket = bucketOnPath(leaf, level);
            for (unsigned s = 0; s < params.bucketSize; ++s) {
                const Slot &slot =
                    slots[bucket * params.bucketSize + s];
                if (slot.valid && slot.blockId == block_id) {
                    if (slot.leaf != leaf)
                        return false;
                    found = true;
                    break;
                }
            }
        }
        if (!found)
            return false;
    }
    return true;
}

double
PathOram::occupancy() const
{
    uint64_t valid = 0;
    for (const auto &slot : slots) {
        if (slot.valid)
            ++valid;
    }
    return static_cast<double>(valid) / slots.size();
}

std::optional<uint64_t>
PathOram::leafOf(uint64_t block_id) const
{
    auto it = posMap.find(block_id);
    if (it == posMap.end())
        return std::nullopt;
    return it->second;
}

namespace {
/** "PORAMv1\0" as a little-endian u64 format tag. */
constexpr uint64_t kPathOramMagic = 0x0031764d41524f50ULL;
} // namespace

void
PathOram::serialize(std::ostream &os) const
{
    serial::putU64(os, kPathOramMagic);
    serial::putU64(os, params.levels);
    serial::putU64(os, params.bucketSize);

    serial::putU64(os, posMap.size());
    for (const auto &[block_id, leaf] : posMap) {
        serial::putU64(os, block_id);
        serial::putU64(os, leaf);
    }

    serial::putU64(os, stash.size());
    for (const auto &[block_id, entry] : stash) {
        serial::putU64(os, block_id);
        serial::putU64(os, entry.leaf);
        serial::putBytes(os, entry.data.data(), entry.data.size());
    }

    uint64_t valid = 0;
    for (const auto &slot : slots)
        valid += slot.valid ? 1 : 0;
    serial::putU64(os, valid);
    for (uint64_t i = 0; i < slots.size(); ++i) {
        const Slot &slot = slots[i];
        if (!slot.valid)
            continue;
        serial::putU64(os, i);
        serial::putU64(os, slot.blockId);
        serial::putU64(os, slot.leaf);
        serial::putBytes(os, slot.data.data(), slot.data.size());
    }

    for (uint64_t word : rng.rawState())
        serial::putU64(os, word);
    serial::putU64(os, maxStash);
    serial::putU64(os, maxTransientStash);
    serial::putU64(os, overflows);
    serial::putU64(os, accessCount);
}

bool
PathOram::deserialize(std::istream &is)
{
    // Parse everything into locals and commit only once the whole
    // payload has been read, so a rejected stream leaves the live
    // structure untouched. Counts from the stream only bound loops
    // that fail at the first short read; nothing is reserved by them.
    if (!serial::expectU64(is, kPathOramMagic)
        || !serial::expectU64(is, params.levels)
        || !serial::expectU64(is, params.bucketSize)) {
        return false;
    }

    uint64_t pos_entries = 0;
    if (!serial::getU64(is, pos_entries))
        return false;
    std::unordered_map<uint64_t, uint64_t> new_pos_map;
    for (uint64_t i = 0; i < pos_entries; ++i) {
        uint64_t block_id = 0, leaf = 0;
        if (!serial::getU64(is, block_id) || !serial::getU64(is, leaf))
            return false;
        new_pos_map[block_id] = leaf;
    }

    uint64_t stash_entries = 0;
    if (!serial::getU64(is, stash_entries))
        return false;
    std::unordered_map<uint64_t, StashEntry> new_stash;
    for (uint64_t i = 0; i < stash_entries; ++i) {
        uint64_t block_id = 0;
        StashEntry entry{};
        if (!serial::getU64(is, block_id)
            || !serial::getU64(is, entry.leaf)
            || !serial::getBytes(is, entry.data.data(),
                                 entry.data.size())) {
            return false;
        }
        new_stash[block_id] = entry;
    }

    // Only the valid slots are staged (O(entries)), never a second
    // copy of the whole tree.
    uint64_t valid = 0;
    if (!serial::getU64(is, valid))
        return false;
    std::vector<std::pair<uint64_t, Slot>> new_slots;
    for (uint64_t i = 0; i < valid; ++i) {
        uint64_t index = 0;
        Slot slot{};
        if (!serial::getU64(is, index) || index >= slots.size()
            || !serial::getU64(is, slot.blockId)
            || !serial::getU64(is, slot.leaf)
            || !serial::getBytes(is, slot.data.data(),
                                 slot.data.size())) {
            return false;
        }
        slot.valid = true;
        new_slots.emplace_back(index, slot);
    }

    std::array<uint64_t, 4> state{};
    for (uint64_t &word : state) {
        if (!serial::getU64(is, word))
            return false;
    }
    uint64_t max_stash = 0, max_transient = 0, new_overflows = 0,
             new_access_count = 0;
    if (!serial::getU64(is, max_stash)
        || !serial::getU64(is, max_transient)
        || !serial::getU64(is, new_overflows)
        || !serial::getU64(is, new_access_count)) {
        return false;
    }

    posMap = std::move(new_pos_map);
    stash = std::move(new_stash);
    slots.assign(slots.size(), Slot{});
    for (const auto &[index, slot] : new_slots)
        slots[index] = slot;
    rng.setRawState(state);
    maxStash = max_stash;
    maxTransientStash = max_transient;
    overflows = new_overflows;
    accessCount = new_access_count;
    lastPeakStash = 0;
    lastSlots.clear();
    return true;
}

} // namespace obfusmem
