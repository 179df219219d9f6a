/**
 * @file
 * AVX-512 16-lane MD5 compression kernel.
 *
 * The only translation unit compiled with -mavx512f (the same
 * isolation pattern as md5_lanes_avx2.cc). Sixteen independent
 * single-block digests run in the sixteen 32-bit lanes of a zmm
 * register, and AVX-512 shortens the step itself relative to the ymm
 * kernel:
 *
 *  - every round function is one vpternlogd. The immediate is the
 *    truth table of f(b, c, d) indexed by (b<<2)|(c<<1)|d:
 *      F: (b&c)|(~b&d)  ->  0xca   (b ? c : d)
 *      G: (b&d)|(c&~d)  ->  0xe4   (d ? b : c)
 *      H: b^c^d         ->  0x96
 *      I: c^(b|~d)      ->  0x39
 *  - the rotate is the native vprolvd instead of the sll/srl/or
 *    triple. The rotate count is public schedule data.
 *
 * Same round constants, shift schedule and message-word order as
 * Md5::processBlock; the equivalence tests pin every lane against the
 * scalar context.
 */

#include "crypto/md5_lanes.hh"
#include "util/logging.hh"

#if defined(OBFUSMEM_HAVE_AVX512) && defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace obfusmem {
namespace crypto {
namespace detail {

#if defined(OBFUSMEM_HAVE_AVX512) && defined(__AVX512F__)

namespace {

// Same tables as md5.cc (RFC 1321); duplicated so the kernel TU stays
// self-contained.
const uint32_t kTable[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee,
    0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa,
    0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05,
    0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039,
    0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
};

const int shifts[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
};

/** The per-step round function (public schedule selects the imm). */
inline __m512i
roundFZmm(int i, __m512i b, __m512i c, __m512i d)
{
    if (i < 16)
        return _mm512_ternarylogic_epi32(b, c, d, 0xca);
    if (i < 32)
        return _mm512_ternarylogic_epi32(b, c, d, 0xe4);
    if (i < 48)
        return _mm512_ternarylogic_epi32(b, c, d, 0x96);
    return _mm512_ternarylogic_epi32(b, c, d, 0x39);
}

/** Message-word index for step i (public schedule). */
inline int
roundGZmm(int i)
{
    if (i < 16)
        return i;
    if (i < 32)
        return (5 * i + 1) % 16;
    if (i < 48)
        return (3 * i + 5) % 16;
    return (7 * i) % 16;
}

inline __m512i
stepBZmm(int i, __m512i a, __m512i b, __m512i f, __m512i mg)
{
    __m512i sum = _mm512_add_epi32(
        _mm512_add_epi32(a, f),
        _mm512_add_epi32(
            _mm512_set1_epi32(static_cast<int>(kTable[i])), mg));
    // The all-ones zeroing mask is the same vprolvd as
    // _mm512_rolv_epi32, without that intrinsic's undefined-register
    // source, which gcc 12 flags under -Werror=uninitialized.
    return _mm512_add_epi32(
        b, _mm512_maskz_rolv_epi32(static_cast<__mmask16>(0xffff), sum,
                                   _mm512_set1_epi32(shifts[i])));
}

} // namespace

bool
md5LanesAvx512CompiledIn()
{
    return true;
}

void
md5LanesAvx512Compress16(const uint32_t *words, uint32_t *state)
{
    __m512i m[16];
    for (int w = 0; w < 16; ++w) {
        m[w] = _mm512_loadu_si512(words + w * md5LaneWidthZmm);
    }

    const __m512i iv_a = _mm512_set1_epi32(0x67452301);
    const __m512i iv_b = _mm512_set1_epi32(
        static_cast<int>(0xefcdab89u));
    const __m512i iv_c = _mm512_set1_epi32(
        static_cast<int>(0x98badcfeu));
    const __m512i iv_d = _mm512_set1_epi32(0x10325476);

    __m512i a = iv_a, b = iv_b, c = iv_c, d = iv_d;

    for (int i = 0; i < 64; ++i) {
        __m512i f = roundFZmm(i, b, c, d);
        __m512i nb = stepBZmm(i, a, b, f, m[roundGZmm(i)]);
        a = d;
        d = c;
        c = b;
        b = nb;
    }

    _mm512_storeu_si512(state + 0 * md5LaneWidthZmm,
                        _mm512_add_epi32(a, iv_a));
    _mm512_storeu_si512(state + 1 * md5LaneWidthZmm,
                        _mm512_add_epi32(b, iv_b));
    _mm512_storeu_si512(state + 2 * md5LaneWidthZmm,
                        _mm512_add_epi32(c, iv_c));
    _mm512_storeu_si512(state + 3 * md5LaneWidthZmm,
                        _mm512_add_epi32(d, iv_d));
}

void
md5LanesAvx512Compress16x2(const uint32_t *words0, uint32_t *state0,
                           const uint32_t *words1, uint32_t *state1)
{
    // As in the ymm kernel: one group is latency-bound on the serial
    // per-step chain, so a second independent group issues into the
    // bubbles and nearly doubles throughput.
    __m512i m0[16], m1[16];
    for (int w = 0; w < 16; ++w) {
        m0[w] = _mm512_loadu_si512(words0 + w * md5LaneWidthZmm);
        m1[w] = _mm512_loadu_si512(words1 + w * md5LaneWidthZmm);
    }

    const __m512i iv_a = _mm512_set1_epi32(0x67452301);
    const __m512i iv_b = _mm512_set1_epi32(
        static_cast<int>(0xefcdab89u));
    const __m512i iv_c = _mm512_set1_epi32(
        static_cast<int>(0x98badcfeu));
    const __m512i iv_d = _mm512_set1_epi32(0x10325476);

    __m512i a0 = iv_a, b0 = iv_b, c0 = iv_c, d0 = iv_d;
    __m512i a1 = iv_a, b1 = iv_b, c1 = iv_c, d1 = iv_d;

    for (int i = 0; i < 64; ++i) {
        const int g = roundGZmm(i);
        __m512i f0 = roundFZmm(i, b0, c0, d0);
        __m512i f1 = roundFZmm(i, b1, c1, d1);
        __m512i nb0 = stepBZmm(i, a0, b0, f0, m0[g]);
        __m512i nb1 = stepBZmm(i, a1, b1, f1, m1[g]);
        a0 = d0;
        d0 = c0;
        c0 = b0;
        b0 = nb0;
        a1 = d1;
        d1 = c1;
        c1 = b1;
        b1 = nb1;
    }

    _mm512_storeu_si512(state0 + 0 * md5LaneWidthZmm,
                        _mm512_add_epi32(a0, iv_a));
    _mm512_storeu_si512(state0 + 1 * md5LaneWidthZmm,
                        _mm512_add_epi32(b0, iv_b));
    _mm512_storeu_si512(state0 + 2 * md5LaneWidthZmm,
                        _mm512_add_epi32(c0, iv_c));
    _mm512_storeu_si512(state0 + 3 * md5LaneWidthZmm,
                        _mm512_add_epi32(d0, iv_d));
    _mm512_storeu_si512(state1 + 0 * md5LaneWidthZmm,
                        _mm512_add_epi32(a1, iv_a));
    _mm512_storeu_si512(state1 + 1 * md5LaneWidthZmm,
                        _mm512_add_epi32(b1, iv_b));
    _mm512_storeu_si512(state1 + 2 * md5LaneWidthZmm,
                        _mm512_add_epi32(c1, iv_c));
    _mm512_storeu_si512(state1 + 3 * md5LaneWidthZmm,
                        _mm512_add_epi32(d1, iv_d));
}

#else // !OBFUSMEM_HAVE_AVX512

// Stub build (-DOBFUSMEM_DISABLE_AVX512=ON or a compiler without the
// flag): the dispatch never calls in because
// md5LanesAvx512CompiledIn() is false, but the symbols must exist.

bool
md5LanesAvx512CompiledIn()
{
    return false;
}

void
md5LanesAvx512Compress16(const uint32_t *, uint32_t *)
{
    panic("AVX-512 MD5 kernel called in a build without AVX-512 "
          "support");
}

void
md5LanesAvx512Compress16x2(const uint32_t *, uint32_t *,
                           const uint32_t *, uint32_t *)
{
    panic("AVX-512 MD5 kernel called in a build without AVX-512 "
          "support");
}

#endif // OBFUSMEM_HAVE_AVX512

} // namespace detail
} // namespace crypto
} // namespace obfusmem
