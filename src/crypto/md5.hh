/**
 * @file
 * MD5 message digest (RFC 1321).
 *
 * ObfusMem uses MD5 as its lightweight MAC function for communication
 * authentication (paper Sec. 3.5): the attacker cannot mount chosen-text
 * attacks against the MAC because every MAC input includes a fresh
 * counter value and the message itself is encrypted. The paper's
 * synthesized 64-stage pipelined engine figures are captured in
 * Md5EngineParams for the timing model.
 */

#ifndef OBFUSMEM_CRYPTO_MD5_HH
#define OBFUSMEM_CRYPTO_MD5_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/bytes.hh"
#include "util/secret.hh"

namespace obfusmem {
namespace crypto {

/** Synthesis figures for the pipelined MD5 engine (paper Sec. 4). */
struct Md5EngineParams
{
    /** Pipeline stages of the public-domain implementation used. */
    static constexpr unsigned pipelineStages = 64;
    /** Power in milliwatts. */
    static constexpr double powerMw = 12.5;
    /** Area in mm^2. */
    static constexpr double areaMm2 = 0.214;
};

/** 128-bit MD5 digest. */
using Md5Digest = std::array<uint8_t, 16>;

/** Longest message that still pads into a single compression block. */
constexpr size_t md5ShortMax = 55;

namespace detail {

/**
 * RFC 1321-pad one short message (`len <= md5ShortMax`) straight into
 * the 16 message words of its single compression block, word `w` at
 * `words[w * step]`. The padding is mostly zeros, so instead of
 * materializing a 64-byte block and re-reading it, the caller zeroes
 * the words once and this writes only the message words, the 0x80
 * boundary word and the bit length (word 14; len <= 55 keeps the
 * boundary word clear of it). `step` is 1 for one contiguous block
 * and the lane width for the lane-interleaved layout of md5_lanes.
 */
inline void
md5PackShort(const uint8_t *msg, size_t len, uint32_t *words,
             size_t step)
{
    const size_t full = len / 4;
    const size_t rem = len % 4;
    for (size_t w = 0; w < full; ++w)
        words[w * step] = loadLe32(msg + 4 * w);
    uint32_t boundary = 0x80u << (8 * rem);
    for (size_t b = 0; b < rem; ++b)
        boundary |= static_cast<uint32_t>(msg[4 * full + b]) << (8 * b);
    words[full * step] = boundary;
    words[14 * step] = static_cast<uint32_t>(len) * 8;
}

} // namespace detail

/**
 * Incremental MD5 context.
 */
class Md5
{
  public:
    Md5() { reset(); }

    /** Reset to the initial state. */
    void reset();

    /** Absorb bytes. */
    void update(const uint8_t *data, size_t len);

    /** Finalize and return the digest; context must be reset after. */
    Md5Digest finalize();

    /**
     * One-shot digest of a buffer. Messages of at most md5ShortMax
     * bytes (every 17-byte MAC preimage) skip the context: they are
     * padded straight into one block's words and compressed once.
     */
    static Md5Digest digest(const uint8_t *data, size_t len);

    /** One-shot digest of a string. */
    static Md5Digest digest(const std::string &s);

  private:
    void processBlock(const uint8_t *block);

    /**
     * Hash state and pending input. Secret whenever the absorbed
     * message is (HMAC keys and transcripts, counter-mode session
     * material); tainting the context keeps key-derived digests
     * tracked through the MAC and KDF paths.
     */
    OBF_SECRET std::array<uint32_t, 4> state;
    uint64_t totalLen;
    OBF_SECRET std::array<uint8_t, 64> buffer;
    size_t bufferLen;
};

} // namespace crypto
} // namespace obfusmem

#endif // OBFUSMEM_CRYPTO_MD5_HH
