/**
 * @file
 * BackingStore implementation.
 */

#include "mem/backing_store.hh"

#include <array>
#include <bit>

#include "util/logging.hh"

namespace obfusmem {

namespace {

/** The fill's xorshift64 start state is key ^ kFillSeed. */
constexpr uint64_t kFillSeed = 0xdeadbeefcafef00dULL;

/**
 * The fill's definition: the low bytes of 64 successive xorshift64
 * states starting from @p x. Used only to build the tables below.
 */
DataBlock
serialFill(uint64_t x)
{
    DataBlock fill{};
    for (uint8_t &byte : fill) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        byte = static_cast<uint8_t>(x);
    }
    return fill;
}

using FillTables = std::array<std::array<DataBlock, 256>, 8>;

/**
 * Every xorshift step and the byte extraction are linear over GF(2),
 * so serialFill(key ^ kFillSeed) is the XOR of one row per key byte:
 * table t row b is serialFill's image of (b << 8t), and table 0 also
 * carries the image of kFillSeed. Each row is the row with its lowest
 * set bit cleared plus that bit's image.
 */
FillTables
makeFillTables()
{
    std::array<DataBlock, 64> bitImage{};
    for (int j = 0; j < 64; ++j)
        bitImage[j] = serialFill(uint64_t{1} << j);

    FillTables tables{};
    tables[0][0] = serialFill(kFillSeed);
    for (int t = 0; t < 8; ++t) {
        for (unsigned b = 1; b < 256; ++b) {
            DataBlock row = tables[t][b & (b - 1)];
            const DataBlock &image = bitImage[8 * t + std::countr_zero(b)];
            for (size_t i = 0; i < row.size(); ++i)
                row[i] ^= image[i];
            tables[t][b] = row;
        }
    }
    return tables;
}

/**
 * The 128 KB of tables, built once per process (~0.1 ms). They are
 * not a constexpr like the AES T-tables: building them takes ~18M of
 * gcc's 33.5M constant-evaluation operations, and far more than
 * clang's default step budget.
 */
const FillTables &
fillTables()
{
    static const FillTables tables = makeFillTables();
    return tables;
}

} // namespace

DataBlock
BackingStore::read(uint64_t addr) const
{
    uint64_t key = blockAlign(addr);
    panic_if(key >= capacityBytes, "read beyond capacity");
    auto it = blocks.find(key);
    if (it != blocks.end())
        return it->second;

    // Deterministic "uninitialized" fill derived from the address.
    const FillTables &tables = fillTables();
    DataBlock junk = tables[0][key & 0xff];
    for (int t = 1; t < 8; ++t) {
        const DataBlock &row = tables[t][(key >> (8 * t)) & 0xff];
        for (size_t i = 0; i < junk.size(); ++i)
            junk[i] ^= row[i];
    }
    return junk;
}

void
BackingStore::write(uint64_t addr, const DataBlock &data)
{
    uint64_t key = blockAlign(addr);
    panic_if(key >= capacityBytes, "write beyond capacity");
    blocks[key] = data;
}

bool
BackingStore::populated(uint64_t addr) const
{
    return blocks.count(blockAlign(addr)) != 0;
}

} // namespace obfusmem
