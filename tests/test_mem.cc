/**
 * @file
 * Memory substrate tests: address mapping, backing store, and the
 * channel bus.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "mem/channel_bus.hh"
#include "util/random.hh"

using namespace obfusmem;

namespace {

constexpr uint64_t GB = 1ull << 30;

} // namespace

class AddressMapChannels : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AddressMapChannels, DecodeEncodeRoundTrip)
{
    AddressMap map(8 * GB, GetParam());
    Random rng(GetParam());
    for (int i = 0; i < 500; ++i) {
        uint64_t addr = blockAlign(rng.randUnder(8 * GB));
        DecodedAddr loc = map.decode(addr);
        EXPECT_EQ(map.encode(loc), addr);
        EXPECT_LT(loc.channel, GetParam());
        EXPECT_LT(loc.rank, map.ranksPerChannel());
        EXPECT_LT(loc.bank, map.banksPerRank());
        EXPECT_LT(loc.row, map.rowsPerBank());
        EXPECT_LT(loc.column, map.blocksPerRow());
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AddressMapChannels,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(AddressMap, ChannelInterleavesAtRowGranularity)
{
    // RoRaBaChCo: consecutive addresses stay in one channel for a
    // full row buffer (1 KB), then move to the next channel.
    AddressMap map(8 * GB, 4);
    for (uint64_t off = 0; off < 1024; off += blockBytes)
        EXPECT_EQ(map.decode(off).channel, 0u);
    EXPECT_EQ(map.decode(1024).channel, 1u);
    EXPECT_EQ(map.decode(2048).channel, 2u);
    EXPECT_EQ(map.decode(3072).channel, 3u);
    EXPECT_EQ(map.decode(4096).channel, 0u);
}

TEST(AddressMap, ColumnsWithinRow)
{
    AddressMap map(8 * GB, 1);
    EXPECT_EQ(map.blocksPerRow(), 16u); // 1 KB / 64 B
    EXPECT_EQ(map.decode(0).column, 0u);
    EXPECT_EQ(map.decode(64).column, 1u);
    EXPECT_EQ(map.decode(15 * 64).column, 15u);
    EXPECT_EQ(map.decode(16 * 64).column, 0u); // next bank/row unit
}

TEST(AddressMap, GeometryConsistent)
{
    AddressMap map(8 * GB, 2);
    uint64_t total = map.channels() * map.ranksPerChannel()
                     * map.banksPerRank() * map.rowsPerBank()
                     * map.rowBufferBytes();
    EXPECT_EQ(total, 8 * GB);
    EXPECT_FALSE(map.describe().empty());
}

TEST(AddressMapDeathTest, RejectsOutOfRange)
{
    AddressMap map(1 * GB, 1);
    EXPECT_EXIT(map.decode(1 * GB), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(BackingStore, ReadAfterWrite)
{
    BackingStore store(1 * GB);
    DataBlock data;
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i);
    store.write(0x1000, data);
    EXPECT_EQ(store.read(0x1000), data);
    EXPECT_TRUE(store.populated(0x1000));
    EXPECT_TRUE(store.populated(0x1001)); // same block
    EXPECT_FALSE(store.populated(0x2000));
    EXPECT_EQ(store.blocksAllocated(), 1u);
}

TEST(BackingStore, UnwrittenBlocksDeterministicJunk)
{
    BackingStore a(1 * GB), b(1 * GB);
    EXPECT_EQ(a.read(0x5000), b.read(0x5000));
    EXPECT_NE(a.read(0x5000), a.read(0x5040));
}

namespace {

/** The fill's defining serial xorshift64 loop, kept as the oracle. */
DataBlock
serialXorshiftFill(uint64_t key, uint64_t seed = 0xdeadbeefcafef00dULL)
{
    DataBlock junk;
    uint64_t x = key ^ seed;
    for (size_t i = 0; i < junk.size(); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        junk[i] = static_cast<uint8_t>(x);
    }
    return junk;
}

} // namespace

TEST(BackingStore, UnwrittenFillMatchesSerialXorshift)
{
    // Sequential blocks (what the cache warm-up reads)...
    BackingStore small(1 * GB);
    for (uint64_t block = 0; block < 100000; ++block) {
        uint64_t addr = block * blockBytes;
        ASSERT_EQ(small.read(addr), serialXorshiftFill(addr))
            << "block " << block;
    }
    // ...the last block below capacity...
    const uint64_t last = 1 * GB - blockBytes;
    EXPECT_EQ(small.read(last), serialXorshiftFill(last));

    // ...and random block-aligned keys over the full 64-bit range,
    // which exercise every byte of every table.
    BackingStore full(~0ull);
    Random rng(0xf111);
    for (int i = 0; i < 100000; ++i) {
        uint64_t addr = blockAlign(rng.next());
        ASSERT_EQ(full.read(addr), serialXorshiftFill(addr))
            << "addr " << addr;
    }
    const uint64_t top = blockAlign(~0ull);
    EXPECT_EQ(full.read(top), serialXorshiftFill(top));
}

TEST(BackingStore, OramJunkMatchesSerialXorshift)
{
    // The ORAMs' first-touch junk is the same fill under its own seed:
    // small block ids, then random ids over the full 64-bit range.
    for (uint64_t id = 0; id < 10000; ++id)
        ASSERT_EQ(junkDataBlock(id), serialXorshiftFill(id, 0x0bf5ceed))
            << "id " << id;
    Random rng(0x0bf5);
    for (int i = 0; i < 100000; ++i) {
        uint64_t id = rng.next();
        ASSERT_EQ(junkDataBlock(id), serialXorshiftFill(id, 0x0bf5ceed))
            << "id " << id;
    }
    EXPECT_EQ(junkDataBlock(~0ull), serialXorshiftFill(~0ull, 0x0bf5ceed));
}

TEST(BackingStore, SubBlockAddressesAlias)
{
    BackingStore store(1 * GB);
    DataBlock data{};
    data[0] = 0xaa;
    store.write(0x1020, data); // mid-block address
    EXPECT_EQ(store.read(0x1000), data);
}

class BusFixture : public ::testing::Test
{
  protected:
    BusFixture()
        : stats("test", nullptr),
          bus("bus", eq, &stats, 0, ChannelBus::Params{})
    {}

    EventQueue eq;
    statistics::Group stats;
    ChannelBus bus;
};

TEST_F(BusFixture, SixtyFourBytesTakeFiveNs)
{
    Tick delivered = 0;
    bus.send(BusDir::ToMemory, 64, 0, false,
             [&](const BusFault &) { delivered = eq.curTick(); });
    eq.run();
    // 64 B at 12.8 GB/s = 5 ns burst + 1 ns propagation.
    EXPECT_EQ(delivered, 6 * tickPerNs);
}

TEST_F(BusFixture, MessagesSerializeFifo)
{
    std::vector<Tick> deliveries;
    for (int i = 0; i < 3; ++i) {
        bus.send(BusDir::ToMemory, 64, i, false,
                 [&](const BusFault &) { deliveries.push_back(eq.curTick()); });
    }
    eq.run();
    ASSERT_EQ(deliveries.size(), 3u);
    EXPECT_EQ(deliveries[0], 6000u);
    EXPECT_EQ(deliveries[1], 11000u);  // 5 ns later
    EXPECT_EQ(deliveries[2], 16000u);
}

TEST_F(BusFixture, CommandOnlyMessagesAreCheap)
{
    Tick delivered = 0;
    bus.send(BusDir::ToMemory, 0, 0, false,
             [&](const BusFault &) { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered, 1250u + 1000u); // command slot + propagation
}

TEST_F(BusFixture, IdleTracksActivity)
{
    EXPECT_TRUE(bus.idle());
    bus.send(BusDir::ToMemory, 64, 0, false, [](const BusFault &) {});
    EXPECT_FALSE(bus.idle());
    eq.run();
    EXPECT_TRUE(bus.idle());
}

TEST_F(BusFixture, ProbeSeesWireFacts)
{
    struct Probe : BusProbe
    {
        std::vector<BusSnoop> seen;
        void observe(const BusSnoop &s) override { seen.push_back(s); }
    } probe;
    bus.attachProbe(&probe);

    bus.send(BusDir::ToMemory, 64, 0xdead, true, [](const BusFault &) {});
    bus.send(BusDir::ToProcessor, 32, 0xbeef, false, [](const BusFault &) {});
    eq.run();

    ASSERT_EQ(probe.seen.size(), 2u);
    EXPECT_EQ(probe.seen[0].wireAddr, 0xdeadu);
    EXPECT_TRUE(probe.seen[0].wireIsWrite);
    EXPECT_EQ(probe.seen[0].dir, BusDir::ToMemory);
    EXPECT_EQ(probe.seen[1].wireAddr, 0xbeefu);
    EXPECT_EQ(probe.seen[1].dir, BusDir::ToProcessor);
    EXPECT_EQ(probe.seen[1].bytes, 32u);
}

TEST_F(BusFixture, UtilizationAccounting)
{
    bus.send(BusDir::ToMemory, 128, 0, false, [](const BusFault &) {});
    eq.run();
    // 10 ns busy out of 10 ns elapsed transfer time (bus frees at
    // burst end; event at 11 ns for delivery).
    EXPECT_GT(bus.utilization(), 0.5);
}
