/**
 * @file
 * Batched short-message MD5: padding, lane transpose and dispatch.
 *
 * The portable part of the lane kernels. Messages are padded per
 * RFC 1321 (0x80, zeros, 64-bit little-endian bit length) directly
 * into the lane-interleaved word layout and handed to the widest
 * compression the build and CPU allow: AVX-512 sixteen at a time,
 * AVX2 eight at a time. Sub-8 tails — which hold almost every
 * two-message request group — and every message when no wide kernel
 * is available go through Md5::digest's one-block path: the same
 * packing, then one straight-line scalar compression per message.
 * The tests pin every kernel against Md5::digest, and Md5::digest
 * against a byte-at-a-time context.
 */

#include "crypto/md5_lanes.hh"

#include <cstring>

#include "crypto/bytes.hh"
#include "crypto/cpu_features.hh"
#include "util/logging.hh"

namespace obfusmem {
namespace crypto {

namespace {

enum class LaneMode { Scalar, Avx2, Avx512 };

/** Lane dispatch: the widest kernel the build and CPU run, latched. */
LaneMode
laneMode()
{
    static const LaneMode mode =
        detail::md5LanesAvx512CompiledIn() && cpuHasAvx512f()
            ? LaneMode::Avx512
        : detail::md5LanesAvx2CompiledIn() && cpuHasAvx2()
            ? LaneMode::Avx2
            : LaneMode::Scalar;
    return mode;
}

/**
 * Pad + transpose one W-lane group into the interleaved word layout:
 * zero the group once, then each lane packs exactly as a single
 * short digest does (detail::md5PackShort), at stride W.
 */
template <size_t W>
void
packGroup(const uint8_t *msgs, size_t stride, size_t len,
          OBF_SECRET uint32_t *words) // words[16 * W]
{
    std::memset(words, 0, 16 * W * sizeof(uint32_t));
    for (size_t l = 0; l < W; ++l)
        detail::md5PackShort(msgs + l * stride, len, words + l, W);
}

/** Transpose one W-lane group's finished state back into digests. */
template <size_t W>
void
unpackGroup(OBF_SECRET const uint32_t *state, // state[4 * W]
            OBF_SECRET Md5Digest *out)
{
    for (size_t l = 0; l < W; ++l)
        for (size_t s = 0; s < 4; ++s)
            storeLe32(out[l].data() + 4 * s, state[s * W + l]);
}

/** Digest md5LaneWidth messages through the AVX2 kernel. */
void
digestGroupAvx2(const uint8_t *msgs, size_t stride, size_t len,
                OBF_SECRET Md5Digest *out)
{
    OBF_SECRET uint32_t words[16 * md5LaneWidth];
    OBF_SECRET uint32_t state[4 * md5LaneWidth];
    packGroup<md5LaneWidth>(msgs, stride, len, words);
    detail::md5LanesAvx2Compress8(words, state);
    unpackGroup<md5LaneWidth>(state, out);
}

/** Digest two lane groups through the interleaved-pair kernel. */
void
digestGroupPairAvx2(const uint8_t *msgs, size_t stride, size_t len,
                    OBF_SECRET Md5Digest *out)
{
    OBF_SECRET uint32_t words0[16 * md5LaneWidth];
    OBF_SECRET uint32_t words1[16 * md5LaneWidth];
    OBF_SECRET uint32_t state0[4 * md5LaneWidth];
    OBF_SECRET uint32_t state1[4 * md5LaneWidth];
    packGroup<md5LaneWidth>(msgs, stride, len, words0);
    packGroup<md5LaneWidth>(msgs + md5LaneWidth * stride, stride, len,
                            words1);
    detail::md5LanesAvx2Compress8x2(words0, state0, words1, state1);
    unpackGroup<md5LaneWidth>(state0, out);
    unpackGroup<md5LaneWidth>(state1, out + md5LaneWidth);
}

/** Digest md5LaneWidthZmm messages through the AVX-512 kernel. */
void
digestGroupAvx512(const uint8_t *msgs, size_t stride, size_t len,
                  OBF_SECRET Md5Digest *out)
{
    OBF_SECRET uint32_t words[16 * md5LaneWidthZmm];
    OBF_SECRET uint32_t state[4 * md5LaneWidthZmm];
    packGroup<md5LaneWidthZmm>(msgs, stride, len, words);
    detail::md5LanesAvx512Compress16(words, state);
    unpackGroup<md5LaneWidthZmm>(state, out);
}

/** Digest two 16-lane groups through the interleaved-pair kernel. */
void
digestGroupPairAvx512(const uint8_t *msgs, size_t stride, size_t len,
                      OBF_SECRET Md5Digest *out)
{
    OBF_SECRET uint32_t words0[16 * md5LaneWidthZmm];
    OBF_SECRET uint32_t words1[16 * md5LaneWidthZmm];
    OBF_SECRET uint32_t state0[4 * md5LaneWidthZmm];
    OBF_SECRET uint32_t state1[4 * md5LaneWidthZmm];
    packGroup<md5LaneWidthZmm>(msgs, stride, len, words0);
    packGroup<md5LaneWidthZmm>(msgs + md5LaneWidthZmm * stride, stride,
                               len, words1);
    detail::md5LanesAvx512Compress16x2(words0, state0, words1, state1);
    unpackGroup<md5LaneWidthZmm>(state0, out);
    unpackGroup<md5LaneWidthZmm>(state1, out + md5LaneWidthZmm);
}

} // namespace

bool
md5LanesAvailable()
{
    return (detail::md5LanesAvx2CompiledIn() && cpuHasAvx2())
           || (detail::md5LanesAvx512CompiledIn() && cpuHasAvx512f());
}

size_t
md5ShortBatch(const uint8_t *msgs, size_t stride, size_t len,
              size_t n, OBF_SECRET Md5Digest *out)
{
    panic_if(len > md5ShortMax,
             "md5ShortBatch message of ", len,
             " bytes does not fit one compression block");

    size_t i = 0;
    LaneMode mode = laneMode();
    if (mode == LaneMode::Avx512) {
        for (; i + 2 * md5LaneWidthZmm <= n; i += 2 * md5LaneWidthZmm)
            digestGroupPairAvx512(msgs + i * stride, stride, len,
                                  out + i);
        for (; i + md5LaneWidthZmm <= n; i += md5LaneWidthZmm)
            digestGroupAvx512(msgs + i * stride, stride, len, out + i);
        // Sub-16 tails drain through the ymm kernel when it exists
        // (every AVX-512F CPU also runs AVX2, but the build may have
        // gated the ymm TU off).
        if (detail::md5LanesAvx2CompiledIn() && cpuHasAvx2())
            mode = LaneMode::Avx2;
    }
    if (mode == LaneMode::Avx2) {
        for (; i + 2 * md5LaneWidth <= n; i += 2 * md5LaneWidth)
            digestGroupPairAvx2(msgs + i * stride, stride, len,
                                out + i);
        for (; i + md5LaneWidth <= n; i += md5LaneWidth)
            digestGroupAvx2(msgs + i * stride, stride, len, out + i);
    }
    const size_t laned = i;
    for (; i < n; ++i)
        out[i] = Md5::digest(msgs + i * stride, len);
    return laned;
}

} // namespace crypto
} // namespace obfusmem
