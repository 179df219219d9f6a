/**
 * @file
 * Known-answer tests for MD5 (RFC 1321), SHA-1 (RFC 3174 / FIPS
 * 180-1) and HMAC (RFC 2202).
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "crypto/bytes.hh"
#include "crypto/cpu_features.hh"
#include "crypto/hmac.hh"
#include "crypto/md5.hh"
#include "crypto/md5_lanes.hh"
#include "crypto/sha1.hh"
#include "util/random.hh"

using namespace obfusmem::crypto;

namespace {

std::string
md5Hex(const std::string &s)
{
    return toHex(Md5::digest(s));
}

std::string
sha1Hex(const std::string &s)
{
    return toHex(Sha1::digest(s));
}

constexpr size_t macLen = 17; // the MAC preimage length

/** One W-lane kernel group of random MAC-sized messages, packed. */
template <size_t W>
struct KernelGroup
{
    explicit KernelGroup(obfusmem::Random &rng)
    {
        for (size_t l = 0; l < W; ++l) {
            rng.fillBytes(msgs[l].data(), macLen);
            detail::md5PackShort(msgs[l].data(), macLen,
                                 words.data() + l, W);
        }
    }

    /** Every lane of the kernel's state against Md5::digest. */
    void
    expectDigests(const char *kernel) const
    {
        for (size_t l = 0; l < W; ++l) {
            Md5Digest got;
            for (size_t s = 0; s < 4; ++s)
                storeLe32(got.data() + 4 * s, state[s * W + l]);
            EXPECT_EQ(got, Md5::digest(msgs[l].data(), macLen))
                << kernel << " lane " << l;
        }
    }

    std::array<std::array<uint8_t, macLen>, W> msgs{};
    std::array<uint32_t, 16 * W> words{};
    std::array<uint32_t, 4 * W> state{};
};

} // namespace

TEST(Md5, Rfc1321TestSuite)
{
    EXPECT_EQ(md5Hex(""), "d41d8cd98f00b204e9800998ecf8427e");
    EXPECT_EQ(md5Hex("a"), "0cc175b9c0f1b6a831c399e269772661");
    EXPECT_EQ(md5Hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
    EXPECT_EQ(md5Hex("message digest"),
              "f96b697d7cb7938d525a2f31aaf161d0");
    EXPECT_EQ(md5Hex("abcdefghijklmnopqrstuvwxyz"),
              "c3fcd3d76192e4007dfb496cca67e13b");
    EXPECT_EQ(md5Hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstu"
                     "vwxyz0123456789"),
              "d174ab98d277d9f5a5611c2c9f419d9f");
    EXPECT_EQ(md5Hex("1234567890123456789012345678901234567890123456"
                     "7890123456789012345678901234567890"),
              "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot)
{
    std::string msg = "the quick brown fox jumps over the lazy dog, "
                      "repeatedly, across block boundaries. ";
    for (int i = 0; i < 4; ++i)
        msg += msg;

    Md5 ctx;
    size_t pos = 0;
    size_t chunk = 7;
    while (pos < msg.size()) {
        size_t n = std::min(chunk, msg.size() - pos);
        ctx.update(reinterpret_cast<const uint8_t *>(msg.data()) + pos,
                   n);
        pos += n;
        chunk = chunk * 3 + 1;
    }
    EXPECT_EQ(toHex(ctx.finalize()), md5Hex(msg));
}

TEST(Md5, ExactBlockSizeMessages)
{
    // 55/56/64/119/128 bytes cross the padding edge cases.
    for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 128u}) {
        std::string msg(len, 'x');
        Md5 ctx;
        ctx.update(reinterpret_cast<const uint8_t *>(msg.data()),
                   msg.size());
        EXPECT_EQ(toHex(ctx.finalize()), md5Hex(msg)) << len;
    }
}

TEST(Md5, OneBlockPathMatchesByteAtATimeContext)
{
    // Md5::digest packs messages of up to md5ShortMax bytes straight
    // into one block and hands longer ones to the context. Feeding a
    // context one byte at a time exercises neither shortcut, so
    // lengths 0..130 pin both paths across the 55/56 one-block
    // handover and the 64/128 block edges. The lane tests pin the
    // kernels against Md5::digest, so they rest on this oracle.
    std::vector<uint8_t> msg(130);
    for (size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<uint8_t>(i * 73 + 29);
    for (size_t len = 0; len <= msg.size(); ++len) {
        Md5 ctx;
        for (size_t i = 0; i < len; ++i)
            ctx.update(msg.data() + i, 1);
        EXPECT_EQ(Md5::digest(msg.data(), len), ctx.finalize())
            << "len=" << len;
    }
}

TEST(Md5, PaddingEdgeKnownAnswers)
{
    // Digests of runs of 'a' from an independent MD5 implementation,
    // at the lengths where padding changes shape: the MAC preimage
    // length, the longest one-block message, the first two-block
    // message, and the block edges.
    const std::pair<size_t, const char *> vectors[] = {
        {17, "88e42e96cc71151b6e1938a1699b0a27"},
        {55, "ef1772b6dff9a122358552954ad0df65"},
        {56, "3b0c8ac703f828b04c6c197006d17218"},
        {63, "b06521f39153d618550606be297466d5"},
        {64, "014842d480b571495a4a0363793f7367"},
        {65, "c743a45e0d2e6a95cb859adae0248435"},
    };
    for (const auto &[len, hex] : vectors)
        EXPECT_EQ(md5Hex(std::string(len, 'a')), hex) << "len=" << len;
}

TEST(Sha1, KnownVectors)
{
    EXPECT_EQ(sha1Hex("abc"),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(sha1Hex(""),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    EXPECT_EQ(sha1Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlm"
                      "nomnopnopq"),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs)
{
    Sha1 ctx;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) {
        ctx.update(reinterpret_cast<const uint8_t *>(chunk.data()),
                   chunk.size());
    }
    EXPECT_EQ(toHex(ctx.finalize()),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(HmacMd5, Rfc2202Case1)
{
    std::vector<uint8_t> key(16, 0x0b);
    std::string msg = "Hi There";
    auto mac = hmacMd5(key.data(), key.size(),
                       reinterpret_cast<const uint8_t *>(msg.data()),
                       msg.size());
    EXPECT_EQ(toHex(mac), "9294727a3638bb1c13f48ef8158bfc9d");
}

TEST(HmacMd5, Rfc2202Case2)
{
    std::string key = "Jefe";
    std::string msg = "what do ya want for nothing?";
    auto mac = hmacMd5(reinterpret_cast<const uint8_t *>(key.data()),
                       key.size(),
                       reinterpret_cast<const uint8_t *>(msg.data()),
                       msg.size());
    EXPECT_EQ(toHex(mac), "750c783e6ab0b503eaa86e310a5db738");
}

TEST(HmacMd5, Rfc2202Case6LongKey)
{
    std::vector<uint8_t> key(80, 0xaa);
    std::string msg = "Test Using Larger Than Block-Size Key - "
                      "Hash Key First";
    auto mac = hmacMd5(key.data(), key.size(),
                       reinterpret_cast<const uint8_t *>(msg.data()),
                       msg.size());
    EXPECT_EQ(toHex(mac), "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
}

TEST(HmacSha1, Rfc2202Case1)
{
    std::vector<uint8_t> key(20, 0x0b);
    std::string msg = "Hi There";
    auto mac = hmacSha1(key.data(), key.size(),
                        reinterpret_cast<const uint8_t *>(msg.data()),
                        msg.size());
    EXPECT_EQ(toHex(mac), "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2)
{
    std::string key = "Jefe";
    std::string msg = "what do ya want for nothing?";
    auto mac = hmacSha1(reinterpret_cast<const uint8_t *>(key.data()),
                        key.size(),
                        reinterpret_cast<const uint8_t *>(msg.data()),
                        msg.size());
    EXPECT_EQ(toHex(mac), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hash, HexRoundTrip)
{
    std::string hex = "00ff17a2deadbeef0123456789abcdef";
    auto bytes = fromHex(hex);
    EXPECT_EQ(toHex(bytes.data(), bytes.size()), hex);
}

TEST(Md5EngineParams, MatchesPaperSynthesis)
{
    // Paper Sec. 4: 64-stage pipeline, 12.5 mW, 0.214 mm^2.
    EXPECT_EQ(Md5EngineParams::pipelineStages, 64u);
    EXPECT_NEAR(Md5EngineParams::powerMw, 12.5, 1e-9);
    EXPECT_NEAR(Md5EngineParams::areaMm2, 0.214, 1e-9);
}

TEST(CtEqual, MatchesAndMismatches)
{
    std::array<uint8_t, 16> a{}, b{};
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = b[i] = static_cast<uint8_t>(i * 7 + 3);
    EXPECT_TRUE(ctEqual(a, b));

    // A difference in any single byte must be caught - ctEqual must
    // not short-circuit correctness while avoiding short-circuit
    // timing.
    for (size_t i = 0; i < a.size(); ++i) {
        std::array<uint8_t, 16> c = b;
        c[i] ^= 0x80;
        EXPECT_FALSE(ctEqual(a, c)) << "byte " << i;
    }
}

TEST(CtEqual, AgreesWithOperatorEq)
{
    // ctEqual guards the MAC verification path; it must agree with
    // plain comparison on every input, differing only in timing.
    std::array<uint8_t, 4> x{1, 2, 3, 4};
    std::array<uint8_t, 4> y{1, 2, 3, 5};
    EXPECT_EQ(ctEqual(x, x), x == x);
    EXPECT_EQ(ctEqual(x, y), x == y);
}

TEST(SecureZero, ClearsBuffer)
{
    std::array<uint8_t, 32> key;
    key.fill(0xa5);
    secureZero(key);
    for (uint8_t byte : key)
        EXPECT_EQ(byte, 0u);
}

TEST(Md5Lanes, BatchMatchesScalarAcrossGroupBoundaries)
{
    // md5ShortBatch must be bit-identical to the scalar context for
    // every batch size, in particular around the 8/16/32 grouping
    // boundaries where the dispatch switches between the paired and
    // single wide kernels and the scalar tail.
    const size_t len = 17; // the MAC preimage length
    for (size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 23u, 24u,
                     31u, 32u, 33u, 47u, 48u, 63u, 64u, 65u}) {
        std::vector<uint8_t> msgs(n * len);
        for (size_t i = 0; i < msgs.size(); ++i)
            msgs[i] = static_cast<uint8_t>(i * 131 + n);
        std::vector<Md5Digest> got(n);
        md5ShortBatch(msgs.data(), len, len, n, got.data());
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(got[i], Md5::digest(msgs.data() + i * len, len))
                << "n=" << n << " i=" << i;
    }
}

TEST(Md5Lanes, ReportsLanedCount)
{
    // The returned count is exact: whole wide groups from the front
    // of the batch, a tail shorter than one group left to the scalar
    // path (sub-8 normally, sub-16 in a build without the ymm
    // kernel), or no lanes at all when the dispatch runs scalar.
    const size_t len = 17;
    for (size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 16u, 31u, 32u, 64u, 65u}) {
        std::vector<uint8_t> msgs(n * len + 1, 0x5a);
        std::vector<Md5Digest> got(n);
        const size_t laned =
            md5ShortBatch(msgs.data(), len, len, n, got.data());
        EXPECT_LE(laned, n) << "n=" << n;
        EXPECT_EQ(laned % md5LaneWidth, 0u) << "n=" << n;
        if (laned > 0) {
            EXPECT_LT(n - laned, md5LaneWidthZmm) << "n=" << n;
        }
        if (!md5LanesAvailable()) {
            EXPECT_EQ(laned, 0u) << "n=" << n;
        }
    }
}

TEST(Md5Lanes, EveryShortLength)
{
    // Lengths 0..55 cover all four boundary-word remainders and the
    // longest message that still pads into one compression block.
    // The stride is the exact message length, so any read past a
    // message's end would read the neighbour and diverge.
    const size_t n = 2 * md5LaneWidthZmm + md5LaneWidth + 3;
    for (size_t len = 0; len <= md5ShortMax; ++len) {
        const size_t stride = len ? len : 1;
        std::vector<uint8_t> msgs(n * stride + 1);
        for (size_t i = 0; i < msgs.size(); ++i)
            msgs[i] = static_cast<uint8_t>(i * 37 + len);
        std::vector<Md5Digest> got(n);
        md5ShortBatch(msgs.data(), stride, len, n, got.data());
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(got[i],
                      Md5::digest(msgs.data() + i * stride, len))
                << "len=" << len << " i=" << i;
    }
}

TEST(Md5Lanes, AvailabilityIsConsistent)
{
    // md5LanesAvailable() promises a wide kernel; the compiled-in
    // probes must back it up.
    if (md5LanesAvailable()) {
        EXPECT_TRUE(detail::md5LanesAvx2CompiledIn()
                    || detail::md5LanesAvx512CompiledIn());
    }
}

TEST(Md5Lanes, EveryKernelMatchesScalarDigest)
{
    // md5ShortBatch only reaches the kernels its dispatch picks (an
    // AVX-512 host never runs the AVX2 pair kernel), so call every
    // compiled-in, CPU-runnable kernel directly.
    obfusmem::Random rng(0x1a9e5);
    bool ran = false;
    for (int round = 0; round < 8; ++round) {
        if (detail::md5LanesAvx2CompiledIn() && cpuHasAvx2()) {
            KernelGroup<md5LaneWidth> one(rng), a(rng), b(rng);
            detail::md5LanesAvx2Compress8(one.words.data(),
                                          one.state.data());
            detail::md5LanesAvx2Compress8x2(a.words.data(),
                                            a.state.data(),
                                            b.words.data(),
                                            b.state.data());
            one.expectDigests("avx2 8");
            a.expectDigests("avx2 8x2 first");
            b.expectDigests("avx2 8x2 second");
            ran = true;
        }
        if (detail::md5LanesAvx512CompiledIn() && cpuHasAvx512f()) {
            KernelGroup<md5LaneWidthZmm> one(rng), a(rng), b(rng);
            detail::md5LanesAvx512Compress16(one.words.data(),
                                             one.state.data());
            detail::md5LanesAvx512Compress16x2(a.words.data(),
                                               a.state.data(),
                                               b.words.data(),
                                               b.state.data());
            one.expectDigests("avx512 16");
            a.expectDigests("avx512 16x2 first");
            b.expectDigests("avx512 16x2 second");
            ran = true;
        }
    }
    if (!ran)
        GTEST_SKIP() << "no MD5 lane kernel on this host/build";
}
