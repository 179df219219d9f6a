/**
 * @file
 * ObfusMem wire format, MAC engine and burst-batch pipeline tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "obfusmem/burst_batch.hh"
#include "obfusmem/mac_engine.hh"
#include "obfusmem/wire_format.hh"
#include "util/random.hh"

using namespace obfusmem;
using namespace obfusmem::crypto;

namespace {

Aes128::Key
testKey()
{
    Aes128::Key key{};
    for (size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<uint8_t>(i * 11 + 3);
    return key;
}

} // namespace

TEST(WireHeader, PackUnpackRoundTrip)
{
    WireHeader hdr;
    hdr.cmd = MemCmd::Write;
    hdr.addr = 0x123456789abcull;
    hdr.tag = 0xbeef;
    hdr.dummy = true;
    auto parsed = WireHeader::unpack(hdr.pack());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cmd, MemCmd::Write);
    EXPECT_EQ(parsed->addr, hdr.addr);
    EXPECT_EQ(parsed->tag, hdr.tag);
    EXPECT_TRUE(parsed->dummy);
}

TEST(WireHeader, BadMagicRejected)
{
    WireHeader hdr;
    hdr.addr = 0x1000;
    Block128 packed = hdr.pack();
    packed[11] ^= 0x01; // corrupt magic
    EXPECT_FALSE(WireHeader::unpack(packed).has_value());
}

TEST(WireHeader, RandomBlocksAlmostNeverParse)
{
    Random rng(1);
    int parsed = 0;
    for (int i = 0; i < 1000; ++i) {
        Block128 junk;
        rng.fillBytes(junk.data(), junk.size());
        parsed += WireHeader::unpack(junk).has_value();
    }
    // 16-bit magic + validity bits: parsing junk is ~1 in 2^18.
    EXPECT_LE(parsed, 1);
}

TEST(WireFormat, HeaderEncryptionRoundTrip)
{
    AesCtr cipher(testKey(), 0);
    WireHeader hdr;
    hdr.cmd = MemCmd::Read;
    hdr.addr = 0xdeadbee0;
    hdr.tag = 17;
    Block128 wire = encryptHeader(cipher, 42, hdr);
    auto back = decryptHeader(cipher, 42, wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->addr, hdr.addr);
    EXPECT_EQ(back->tag, hdr.tag);
}

TEST(WireFormat, WrongCounterFailsToDecrypt)
{
    AesCtr cipher(testKey(), 0);
    WireHeader hdr;
    hdr.addr = 0x1000;
    Block128 wire = encryptHeader(cipher, 42, hdr);
    EXPECT_FALSE(decryptHeader(cipher, 43, wire).has_value());
}

TEST(WireFormat, SameHeaderEncryptsDifferentlyEachCounter)
{
    // The heart of temporal-pattern obfuscation: identical requests
    // look different on the wire every time.
    AesCtr cipher(testKey(), 0);
    WireHeader hdr;
    hdr.addr = 0x4000;
    std::set<std::string> wires;
    for (uint64_t ctr = 0; ctr < 100; ++ctr)
        wires.insert(toHex(encryptHeader(cipher, ctr * 6, hdr)));
    EXPECT_EQ(wires.size(), 100u);
}

TEST(WireFormat, PayloadRoundTrip)
{
    AesCtr cipher(testKey(), 5);
    Random rng(2);
    DataBlock data;
    rng.fillBytes(data.data(), data.size());
    DataBlock wire = cryptPayload(cipher, 1000, data);
    EXPECT_NE(wire, data);
    EXPECT_EQ(cryptPayload(cipher, 1000, wire), data);
}

TEST(WireFormat, WireBytesArithmetic)
{
    WireMessage msg;
    EXPECT_EQ(msg.wireBytes(0, 8), 0u);
    EXPECT_EQ(msg.wireBytes(16, 8), 16u);
    msg.hasData = true;
    EXPECT_EQ(msg.wireBytes(0, 8), 64u);
    msg.hasMac = true;
    EXPECT_EQ(msg.wireBytes(0, 8), 72u);
    EXPECT_EQ(msg.wireBytes(16, 16), 96u);
}

TEST(WireFormat, CounterDiscipline)
{
    // Six pads per request group, five per reply (paper Fig. 3).
    EXPECT_EQ(countersPerRequestGroup, 6u);
    EXPECT_EQ(countersPerReply, 5u);
}

TEST(MacEngine, ComputeVerifyRoundTrip)
{
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.cmd = MemCmd::Write;
    hdr.addr = 0x8000;
    auto tag = mac.compute(hdr, 77);
    EXPECT_TRUE(mac.verify(hdr, 77, tag));
}

TEST(MacEngine, DetectsTypeTamper)
{
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.cmd = MemCmd::Write;
    hdr.addr = 0x8000;
    auto tag = mac.compute(hdr, 77);
    WireHeader tampered = hdr;
    tampered.cmd = MemCmd::Read;
    EXPECT_FALSE(mac.verify(tampered, 77, tag));
}

TEST(MacEngine, DetectsAddressTamper)
{
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.addr = 0x8000;
    auto tag = mac.compute(hdr, 77);
    WireHeader tampered = hdr;
    tampered.addr = 0x8040;
    EXPECT_FALSE(mac.verify(tampered, 77, tag));
}

TEST(MacEngine, DetectsCounterSkewFromDropOrReplay)
{
    // A dropped or replayed message shifts the receiver's counter:
    // the recomputed MAC uses a different (fresh) counter value.
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.addr = 0x8000;
    auto tag = mac.compute(hdr, 77);
    EXPECT_FALSE(mac.verify(hdr, 78, tag)); // drop
    EXPECT_FALSE(mac.verify(hdr, 71, tag)); // replay
}

TEST(MacEngine, ComputeBatchMatchesPerMessageCompute)
{
    // Batch sizes straddle the lane groupings (8, 16, pairs of 32)
    // and the 64-message stack buffer; n > 64 packs on the heap.
    MacEngine mac(MacEngine::Params{});
    Random rng(5);
    for (size_t n : {1u, 2u, 3u, 7u, 8u, 15u, 16u, 17u, 32u, 33u, 64u,
                     65u, 100u}) {
        std::vector<WireHeader> hdrs(n);
        std::vector<uint64_t> counters(n);
        for (size_t i = 0; i < n; ++i) {
            hdrs[i].cmd = i % 3 ? MemCmd::Read : MemCmd::Write;
            hdrs[i].addr = rng.next() & ~uint64_t{63};
            counters[i] = rng.next();
        }
        std::vector<Md5Digest> tags(n);
        const size_t laned =
            mac.computeBatch(hdrs.data(), counters.data(), tags.data(), n);
        EXPECT_LE(laned, n);
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(tags[i], mac.compute(hdrs[i], counters[i]))
                << "n=" << n << " i=" << i;
    }
}

TEST(MacEngine, VerifyRejectsEverySingleBitFlip)
{
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.cmd = MemCmd::Read;
    hdr.addr = 0x7fffc0;
    const uint64_t counter = 0x0123456789abcdefull;
    const Md5Digest tag = mac.compute(hdr, counter);
    ASSERT_TRUE(mac.verify(hdr, counter, tag));
    for (size_t bit = 0; bit < 8 * tag.size(); ++bit) {
        Md5Digest flipped = tag;
        flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(mac.verify(hdr, counter, flipped)) << "bit " << bit;
    }
}

TEST(MacEngine, EncryptAndMacIsFasterThanEncryptThenMac)
{
    // Observation 4: overlapping MAC generation with encryption
    // keeps it off the critical path.
    MacEngine::Params and_params;
    and_params.mode = MacMode::EncryptAndMac;
    MacEngine::Params then_params;
    then_params.mode = MacMode::EncryptThenMac;
    MacEngine and_mac(and_params), then_mac(then_params);
    EXPECT_LT(and_mac.senderLatency(), then_mac.senderLatency());
    EXPECT_LT(and_mac.receiverLatency(), then_mac.receiverLatency());
    // The serial mode pays the full 64-stage MD5 pipeline.
    EXPECT_EQ(then_mac.senderLatency(), 64 * 4 * tickPerNs);
}

TEST(FrameBatch, SealMatchesScalarBuilders)
{
    // The SoA staging + stage-wise seal must emit frames bit-identical
    // to the per-message builders, with header-only and data frames
    // interleaved in arbitrary order (the payload lanes are dense, so
    // slot bookkeeping has to survive mixing).
    AesCtr cipher(testKey(), 9);
    MacEngine mac(MacEngine::Params{});
    Random rng(77);

    FrameBatch frames;
    std::vector<WireMessage> expect;
    uint64_t ctr = 5000;
    for (int i = 0; i < 23; ++i) {
        WireHeader hdr;
        hdr.cmd = (i % 3 == 1) ? MemCmd::Write : MemCmd::Read;
        hdr.addr = 0x1000u * i;
        hdr.tag = static_cast<uint16_t>(i);
        if (i % 3 == 0) {
            Block128 pad = cipher.pad(ctr);
            frames.stageHeaderFrame(pad, hdr, ctr);
            WireMessage m = makeHeaderMessage(pad, hdr);
            attachMac(m, mac.compute(hdr, ctr));
            expect.push_back(m);
            ctr += 1;
        } else {
            DataBlock payload;
            rng.fillBytes(payload.data(), payload.size());
            Block128 pads[5];
            cipher.genPads(ctr, pads, 5);
            frames.stageDataFrame(pads[0], &pads[1], hdr, payload,
                                  ctr);
            WireMessage m =
                makeDataMessage(pads[0], &pads[1], hdr, payload);
            attachMac(m, mac.compute(hdr, ctr));
            expect.push_back(m);
            ctr += 5;
        }
    }

    const size_t n = frames.size();
    ASSERT_EQ(n, expect.size());
    std::vector<Md5Digest> macs(n);
    mac.computeBatch(frames.headers(), frames.macCounters(),
                     macs.data(), n);
    std::vector<WireMessage> got(n);
    frames.seal(macs.data(), got.data());
    EXPECT_TRUE(frames.empty());

    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i].cipherHeader, expect[i].cipherHeader) << i;
        EXPECT_EQ(got[i].hasData, expect[i].hasData) << i;
        EXPECT_EQ(got[i].cipherData, expect[i].cipherData) << i;
        EXPECT_EQ(got[i].hasMac, expect[i].hasMac) << i;
        EXPECT_EQ(got[i].mac, expect[i].mac) << i;
    }
}

TEST(FrameBatch, SealWithoutMacsLeavesFramesUnauthenticated)
{
    AesCtr cipher(testKey(), 9);
    FrameBatch frames;
    WireHeader hdr;
    hdr.cmd = MemCmd::Read;
    hdr.addr = 0x40;
    Block128 pad = cipher.pad(1);
    frames.stageHeaderFrame(pad, hdr, 1);
    WireMessage got;
    frames.seal(nullptr, &got);
    EXPECT_FALSE(got.hasMac);
    EXPECT_EQ(got.cipherHeader, makeHeaderMessage(pad, hdr).cipherHeader);
}

namespace {

/** One frame as BurstBatch::flushWith handed it to the owner. */
struct Delivered
{
    unsigned channel;
    WireMessage msg;
    BurstBatch::Completion done;
};

} // namespace

TEST(BurstBatch, NestedScopesFlushOnceAtOutermostClose)
{
    AesCtr cipher(testKey(), 9);
    MacEngine mac(MacEngine::Params{});
    BurstBatch burst;
    std::vector<Delivered> out;
    int flushes = 0;
    auto flush = [&] {
        ++flushes;
        burst.flushWith(mac, true,
            [&](unsigned ch, WireMessage &&m,
                BurstBatch::Completion &&d) {
                out.push_back({ch, std::move(m), std::move(d)});
            });
    };
    WireHeader hdr;
    hdr.cmd = MemCmd::Read;
    {
        auto outer = burstScope(burst, flush);
        burst.stageHeader(0, cipher.pad(1), hdr, 1);
        {
            auto inner = burstScope(burst, flush);
            burst.stageHeader(1, cipher.pad(2), hdr, 2);
        }
        EXPECT_EQ(flushes, 0);
        EXPECT_TRUE(out.empty());
        burst.stageHeader(2, cipher.pad(3), hdr, 3);
    }
    EXPECT_EQ(flushes, 1);
    ASSERT_EQ(out.size(), 3u);

    // The batch is reusable: a fresh scope flushes on its own close.
    {
        auto again = burstScope(burst, flush);
        burst.stageHeader(3, cipher.pad(4), hdr, 4);
    }
    EXPECT_EQ(flushes, 2);
    EXPECT_EQ(out.size(), 4u);
}

TEST(BurstBatch, DeliversInStageOrderWithCompletions)
{
    AesCtr cipher(testKey(), 9);
    MacEngine mac(MacEngine::Params{});
    Random rng(5);
    BurstBatch burst;
    std::vector<Delivered> out;
    std::vector<WireMessage> expect;
    auto flush = [&] {
        burst.flushWith(mac, true,
            [&](unsigned ch, WireMessage &&m,
                BurstBatch::Completion &&d) {
                out.push_back({ch, std::move(m), std::move(d)});
            });
    };

    uint64_t completedAddr = 0;
    {
        auto scope = burstScope(burst, flush);
        WireHeader rd;
        rd.cmd = MemCmd::Read;
        rd.addr = 0x40;
        Block128 pad = cipher.pad(10);
        burst.stageHeader(3, pad, rd, 10);
        expect.push_back(makeHeaderMessage(pad, rd));
        attachMac(expect.back(), mac.compute(rd, 10));

        for (uint64_t ctr : {11u, 16u}) {
            WireHeader wr;
            wr.cmd = MemCmd::Write;
            wr.addr = 0x80 * ctr;
            DataBlock payload;
            rng.fillBytes(payload.data(), payload.size());
            Block128 pads[5];
            cipher.genPads(ctr, pads, 5);
            if (ctr == 11) {
                burst.stageData(1, pads[0], &pads[1], wr, payload, ctr);
            } else {
                MemPacket pkt;
                pkt.addr = wr.addr;
                burst.stageData(2, pads[0], &pads[1], wr, payload, ctr,
                                {pkt, [&](MemPacket &&done) {
                                     completedAddr = done.addr;
                                 }});
            }
            expect.push_back(
                makeDataMessage(pads[0], &pads[1], wr, payload));
            attachMac(expect.back(), mac.compute(wr, ctr));
        }
    }

    ASSERT_EQ(out.size(), expect.size());
    const unsigned channels[] = {3, 1, 2};
    for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].channel, channels[i]) << i;
        EXPECT_EQ(out[i].msg.cipherHeader, expect[i].cipherHeader) << i;
        EXPECT_EQ(out[i].msg.hasData, expect[i].hasData) << i;
        EXPECT_EQ(out[i].msg.cipherData, expect[i].cipherData) << i;
        EXPECT_EQ(out[i].msg.mac, expect[i].mac) << i;
    }
    // Only the frame staged with a completion carries one.
    EXPECT_FALSE(out[0].done.cb);
    EXPECT_FALSE(out[1].done.cb);
    ASSERT_TRUE(out[2].done.cb);
    out[2].done.cb(std::move(out[2].done.pkt));
    EXPECT_EQ(completedAddr, 0x80u * 16);
}

TEST(BurstBatch, FlushWithOnEmptyBatchCallsNothing)
{
    MacEngine mac(MacEngine::Params{});
    BurstBatch burst;
    int calls = 0;
    auto count = [&](unsigned, WireMessage &&, BurstBatch::Completion &&) {
        ++calls;
    };
    burst.flushWith(mac, true, count);
    EXPECT_EQ(calls, 0);
    // A scope that stages nothing flushes an empty batch.
    {
        auto scope = burstScope(burst, [&] {
            burst.flushWith(mac, false, count);
        });
    }
    EXPECT_EQ(calls, 0);
}

#if OBFUSMEM_DCHECK_ACTIVE
TEST(BurstBatchDeathTest, StageOutsideScopePanics)
{
    AesCtr cipher(testKey(), 9);
    BurstBatch burst;
    WireHeader hdr;
    EXPECT_DEATH(burst.stageHeader(0, cipher.pad(1), hdr, 1),
                 "outside a burst scope");
}
#endif

namespace {

/** A handshake value of `len` bytes, distinct per `seed`. */
std::vector<uint8_t>
handshakeValue(size_t len, uint8_t seed = 1)
{
    std::vector<uint8_t> v(len);
    for (size_t i = 0; i < len; ++i)
        v[i] = static_cast<uint8_t>(seed * 31 + i);
    return v;
}

/** Split a value and parse every payload back into its chunk. */
std::vector<HandshakeChunk>
chunksOf(uint32_t epoch, const std::vector<uint8_t> &value)
{
    std::vector<HandshakeChunk> out;
    for (const DataBlock &b : splitHandshakeValue(epoch, value)) {
        std::optional<HandshakeChunk> c = unpackHandshakeChunk(b);
        EXPECT_TRUE(c.has_value());
        if (c)
            out.push_back(*c);
    }
    return out;
}

} // namespace

TEST(HandshakeCodec, SplitThenReassembleInOrder)
{
    // Empty, one, two and three chunks, including exact multiples of
    // the chunk size.
    for (size_t len : {0, 1, 32, 54, 55, 108, 109, 150, 162}) {
        const std::vector<uint8_t> value = handshakeValue(len);
        const std::vector<HandshakeChunk> chunks = chunksOf(7, value);
        const size_t total = std::max<size_t>(
            1, (len + handshakeChunkBytes - 1) / handshakeChunkBytes);
        ASSERT_EQ(chunks.size(), total) << len;
        HandshakeCollector col;
        for (size_t i = 0; i < total; ++i) {
            EXPECT_EQ(chunks[i].epoch, 7u);
            EXPECT_EQ(chunks[i].chunk, i);
            EXPECT_EQ(chunks[i].total, total);
            std::optional<std::vector<uint8_t>> got = col.offer(chunks[i]);
            if (i + 1 < total) {
                EXPECT_FALSE(got) << len << " chunk " << i;
            } else {
                ASSERT_TRUE(got) << len;
                EXPECT_EQ(*got, value) << len;
            }
        }
    }
}

TEST(HandshakeCodec, ReassemblesOutOfOrderAndThroughDuplicates)
{
    const std::vector<uint8_t> three = handshakeValue(150);
    const std::vector<HandshakeChunk> c3 = chunksOf(9, three);
    ASSERT_EQ(c3.size(), 3u);
    HandshakeCollector col;
    EXPECT_FALSE(col.offer(c3[2]));
    EXPECT_FALSE(col.offer(c3[2]));
    EXPECT_FALSE(col.offer(c3[0]));
    EXPECT_FALSE(col.offer(c3[0]));
    std::optional<std::vector<uint8_t>> got = col.offer(c3[1]);
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, three);

    const std::vector<uint8_t> two = handshakeValue(100, 2);
    const std::vector<HandshakeChunk> c2 = chunksOf(10, two);
    ASSERT_EQ(c2.size(), 2u);
    EXPECT_FALSE(col.offer(c2[1]));
    EXPECT_FALSE(col.offer(c2[1]));
    got = col.offer(c2[0]);
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, two);
}

TEST(HandshakeCodec, MalformedChunksAreRejectedWithoutTouchingState)
{
    const std::vector<uint8_t> value = handshakeValue(100);
    const std::vector<HandshakeChunk> c = chunksOf(4, value);
    ASSERT_EQ(c.size(), 2u);

    // Each malformed variant is offered both inside the collection in
    // progress (epoch 4) and as a would-be restart (epoch 5); either
    // way the epoch-4 collection must still complete afterwards.
    for (uint32_t epoch : {4u, 5u}) {
        HandshakeChunk zero_total = c[1];
        zero_total.total = 0;
        HandshakeChunk too_many = c[1];
        too_many.total = HandshakeCollector::maxChunks + 1;
        HandshakeChunk past_end = c[1];
        past_end.chunk = past_end.total;
        HandshakeChunk too_long = c[1];
        too_long.len = handshakeChunkBytes + 1;
        for (HandshakeChunk bad :
             {zero_total, too_many, past_end, too_long}) {
            bad.epoch = epoch;
            HandshakeCollector col;
            EXPECT_FALSE(col.offer(c[0]));
            EXPECT_FALSE(col.offer(bad));
            std::optional<std::vector<uint8_t>> got = col.offer(c[1]);
            ASSERT_TRUE(got) << "epoch " << epoch << " total "
                             << unsigned(bad.total) << " chunk "
                             << unsigned(bad.chunk) << " len "
                             << bad.len;
            EXPECT_EQ(*got, value);
        }
    }
}

TEST(HandshakeCodec, EpochChangeMidCollectionRestarts)
{
    const std::vector<uint8_t> old_value = handshakeValue(150, 1);
    const std::vector<uint8_t> new_value = handshakeValue(150, 2);
    const std::vector<HandshakeChunk> a = chunksOf(1, old_value);
    const std::vector<HandshakeChunk> b = chunksOf(2, new_value);
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(b.size(), 3u);

    HandshakeCollector col;
    EXPECT_FALSE(col.offer(a[0]));
    EXPECT_FALSE(col.offer(a[1]));
    // Epoch 2's last chunk must not complete epoch 1's partial value.
    EXPECT_FALSE(col.offer(b[2]));
    EXPECT_FALSE(col.offer(b[0]));
    std::optional<std::vector<uint8_t>> got = col.offer(b[1]);
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, new_value);

    // reset() forgets a partial collection the same way.
    EXPECT_FALSE(col.offer(a[0]));
    EXPECT_FALSE(col.offer(a[1]));
    col.reset();
    EXPECT_FALSE(col.offer(a[2]));
}
