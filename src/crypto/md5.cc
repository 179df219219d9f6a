/**
 * @file
 * MD5 implementation following RFC 1321.
 *
 * The compression function is straight-line: the 64 steps are
 * expanded at compile time, so each step's round function, message
 * word, shift and constant are immediates rather than a branchy loop
 * computing them per step. Short messages — every MAC preimage — are
 * padded directly into one block's words (detail::md5PackShort,
 * shared with the lane kernels' packing) and never touch a context.
 */

#include "crypto/md5.hh"

#include <algorithm>
#include <cstring>
#include <utility>

namespace obfusmem {
namespace crypto {

namespace {

constexpr uint32_t kTable[64] = {
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

/** Rotate amounts: four per round, repeated over its 16 steps. */
constexpr int kShift[4][4] = {
    {7, 12, 17, 22},
    {5, 9, 14, 20},
    {4, 11, 16, 23},
    {6, 10, 15, 21},
};

constexpr std::array<uint32_t, 4> kIv = {0x67452301u, 0xefcdab89u,
                                         0x98badcfeu, 0x10325476u};

/** Message word read by step `i` (the per-round schedules). */
constexpr int
wordIndex(int i)
{
    switch (i / 16) {
      case 0:
        return i;
      case 1:
        return (5 * i + 1) % 16;
      case 2:
        return (3 * i + 5) % 16;
      default:
        return (7 * i) % 16;
    }
}

uint32_t
rotl32(uint32_t x, int s)
{
    return (x << s) | (x >> (32 - s));
}

/**
 * MD5 step I. The chaining words change roles every step,
 * (a, b, c, d) -> (d, a', b, c); rather than shuffling values, step I
 * addresses them at compile-time offsets into `v`, so after 64 steps
 * every word is back in its slot and the unrolled steps touch only
 * registers. F and G are the RFC's in cheaper equivalent forms:
 * F = d ^ (b & (c ^ d)), and G = (c & ~d) + (b & d), whose two terms
 * share no set bits, so the sum equals the RFC's OR.
 */
template <int I>
inline void
step(OBF_SECRET uint32_t (&v)[4], OBF_SECRET const uint32_t *m)
{
    constexpr int a = (64 - I) % 4;
    constexpr int b = (65 - I) % 4;
    constexpr int c = (66 - I) % 4;
    constexpr int d = (67 - I) % 4;
    // Everything not depending on b, the previous step's result, is
    // summed first, keeping the serial chain per step short.
    uint32_t t = v[a] + kTable[I] + m[wordIndex(I)];
    if constexpr (I < 16)
        t += v[d] ^ (v[b] & (v[c] ^ v[d]));
    else if constexpr (I < 32)
        t += (v[c] & ~v[d]) + (v[b] & v[d]);
    else if constexpr (I < 48)
        t += v[b] ^ (v[c] ^ v[d]);
    else
        t += v[c] ^ (v[b] | ~v[d]);
    v[a] = v[b] + rotl32(t, kShift[I / 16][I % 4]);
}

template <int... I>
inline void
steps(OBF_SECRET uint32_t (&v)[4], OBF_SECRET const uint32_t *m,
      std::integer_sequence<int, I...>)
{
    (step<I>(v, m), ...);
}

/** One compression of the 16 message words `m` into `state`. */
void
compress(OBF_SECRET std::array<uint32_t, 4> &state,
         OBF_SECRET const uint32_t *m)
{
    uint32_t v[4] = {state[0], state[1], state[2], state[3]};
    steps(v, m, std::make_integer_sequence<int, 64>{});
    for (int i = 0; i < 4; ++i)
        state[i] += v[i];
}

Md5Digest
toDigest(OBF_SECRET const std::array<uint32_t, 4> &state)
{
    Md5Digest out;
    for (int w = 0; w < 4; ++w)
        storeLe32(out.data() + 4 * w, state[w]);
    return out;
}

} // namespace

void
Md5::reset()
{
    state = kIv;
    totalLen = 0;
    bufferLen = 0;
}

void
Md5::update(const uint8_t *data, size_t len)
{
    totalLen += len;
    while (len > 0) {
        size_t take = std::min(len, buffer.size() - bufferLen);
        std::memcpy(buffer.data() + bufferLen, data, take);
        bufferLen += take;
        data += take;
        len -= take;
        if (bufferLen == buffer.size()) {
            processBlock(buffer.data());
            bufferLen = 0;
        }
    }
}

Md5Digest
Md5::finalize()
{
    // Pad in place: 0x80, zeros, and the 64-bit bit length in the
    // last 8 bytes. A second block is needed only when the 0x80
    // lands past byte 55, leaving no room for the length.
    buffer[bufferLen++] = 0x80;
    if (bufferLen > 56) {
        std::memset(buffer.data() + bufferLen, 0, 64 - bufferLen);
        processBlock(buffer.data());
        bufferLen = 0;
    }
    std::memset(buffer.data() + bufferLen, 0, 56 - bufferLen);
    storeLe64(buffer.data() + 56, totalLen * 8);
    processBlock(buffer.data());
    bufferLen = 0;
    return toDigest(state);
}

void
Md5::processBlock(const uint8_t *block)
{
    uint32_t m[16];
    for (int i = 0; i < 16; ++i)
        m[i] = loadLe32(block + 4 * i);
    compress(state, m);
}

Md5Digest
Md5::digest(const uint8_t *data, size_t len)
{
    if (len > md5ShortMax) {
        Md5 ctx;
        ctx.update(data, len);
        return ctx.finalize();
    }
    OBF_SECRET uint32_t words[16] = {};
    detail::md5PackShort(data, len, words, 1);
    std::array<uint32_t, 4> state = kIv;
    compress(state, words);
    return toDigest(state);
}

Md5Digest
Md5::digest(const std::string &s)
{
    return digest(reinterpret_cast<const uint8_t *>(s.data()), s.size());
}

} // namespace crypto
} // namespace obfusmem
