/**
 * @file
 * Batched MD5 for short messages — the MAC lanes of the SoA pipeline.
 *
 * Every MAC ObfusMem computes covers a fixed 17-byte (cmd|addr|counter)
 * message (MacEngine), which after RFC 1321 padding is exactly one
 * 64-byte compression block. That makes the digest a pure function of
 * one block, and a batch of them embarrassingly lane-parallel: the
 * AVX2 kernel runs eight independent single-block compressions in the
 * eight 32-bit lanes of a ymm register, one MD5 step per instruction
 * group instead of one per message.
 *
 * Layout contract with the AVX2 kernel: both the message words and the
 * chaining state are lane-interleaved, i.e. word `w` of lane `l` lives
 * at index `w * md5LaneWidth + l`, so each of the 16 message words (and
 * each of the 4 state words) is one contiguous, directly loadable
 * 32-byte vector.
 *
 * Each lane is packed by the same detail::md5PackShort that
 * Md5::digest uses for its one-block path, so the two share one
 * padding layout; the tests pin every lane against Md5::digest, and
 * Md5::digest against a byte-at-a-time context.
 */

#ifndef OBFUSMEM_CRYPTO_MD5_LANES_HH
#define OBFUSMEM_CRYPTO_MD5_LANES_HH

#include <cstddef>
#include <cstdint>

#include "crypto/md5.hh"
#include "util/secret.hh"

namespace obfusmem {
namespace crypto {

/** Lanes per AVX2 compression (32-bit lanes of a ymm register). */
constexpr size_t md5LaneWidth = 8;

/** Lanes per AVX-512 compression (32-bit lanes of a zmm register). */
constexpr size_t md5LaneWidthZmm = 16;

/**
 * One-shot MD5 digests for `n` equal-length short messages
 * (`len <= md5ShortMax`), packed `stride` bytes apart starting at
 * `msgs`. Dispatches to the widest kernel the build and the running
 * CPU allow — AVX-512 16-lane, then AVX2 8-lane; sub-16 tails of an
 * AVX-512 run drain through the AVX2 kernel. Sub-8 tails, and every
 * message on a host with no lane kernel, go through Md5::digest's
 * one-block path. Output digests are bit-identical on every path.
 *
 * Returns how many of the `n` messages a wide kernel compressed (the
 * rest took the scalar one-block path): an exact, host-independent
 * count that benches use to prove a batch really ran in lanes.
 */
size_t md5ShortBatch(const uint8_t *msgs, size_t stride, size_t len,
                     size_t n, OBF_SECRET Md5Digest *out);

/** True when the AVX2 kernel is compiled in and the CPU runs it. */
bool md5LanesAvailable();

namespace detail {

/**
 * AVX2 entry points, defined in md5_lanes_avx2.cc — the only
 * translation unit built with -mavx2, mirroring the aes128_aesni.cc
 * isolation pattern. Panicking stub + false when the build gates the
 * kernel off (-DOBFUSMEM_DISABLE_AVX2=ON or a compiler without the
 * flag).
 */
bool md5LanesAvx2CompiledIn();

/**
 * Eight single-block MD5 compressions from the standard IV. `words`
 * holds the 16 message words of all 8 lanes in the interleaved layout
 * described above; `state` receives the 4 finalized chaining words per
 * lane in the same layout.
 */
void md5LanesAvx2Compress8(OBF_SECRET const uint32_t *words,
                           OBF_SECRET uint32_t *state);

/**
 * Two independent 8-lane compressions interleaved in one pass.
 * Every MD5 step is a serial dependency chain on its own lanes, so a
 * single 8-lane group leaves most execution ports idle; running a
 * second group through the same instruction stream roughly doubles
 * throughput without touching the per-group layout contract.
 */
void md5LanesAvx2Compress8x2(OBF_SECRET const uint32_t *words0,
                             OBF_SECRET uint32_t *state0,
                             OBF_SECRET const uint32_t *words1,
                             OBF_SECRET uint32_t *state1);

/**
 * AVX-512 entry points, defined in md5_lanes_avx512.cc (the only TU
 * built with -mavx512f). The zmm kernel is more than twice the ymm
 * kernel's throughput per group: 16 lanes instead of 8, a native
 * 32-bit rotate, and each round function folded into a single
 * vpternlogd. Layout matches the AVX2 contract with
 * md5LaneWidthZmm-interleaved words (word `w`, lane `l` at
 * `w * md5LaneWidthZmm + l`).
 */
bool md5LanesAvx512CompiledIn();

/** Sixteen single-block MD5 compressions from the standard IV. */
void md5LanesAvx512Compress16(OBF_SECRET const uint32_t *words,
                              OBF_SECRET uint32_t *state);

/** Two independent 16-lane compressions interleaved in one pass. */
void md5LanesAvx512Compress16x2(OBF_SECRET const uint32_t *words0,
                                OBF_SECRET uint32_t *state0,
                                OBF_SECRET const uint32_t *words1,
                                OBF_SECRET uint32_t *state1);

} // namespace detail

} // namespace crypto
} // namespace obfusmem

#endif // OBFUSMEM_CRYPTO_MD5_LANES_HH
