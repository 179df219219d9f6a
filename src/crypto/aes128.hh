/**
 * @file
 * AES-128 block cipher (FIPS-197), implemented from the specification.
 *
 * This is the functional model of the pipelined AES engine that ObfusMem
 * places on both sides of each memory channel. The paper's synthesis
 * numbers for the engine (24-cycle latency at 4 ns cycle time, one
 * 128-bit pad per cycle throughput, 15.1 mW, 0.204 mm^2) are captured as
 * constants here and consumed by the timing model.
 *
 * Four encryption implementations are provided:
 *  - Vaes: 512-bit VAES batches (four blocks per zmm register, four
 *    registers in flight) for the widest pad-generation lanes. The
 *    default when the build carries the instructions and the running
 *    CPU advertises VAES + AVX-512 F/BW/VL.
 *  - Aesni: hardware AES via the x86 AES-NI instructions, with 4/8-wide
 *    pipelined batches in encryptBlocks. The default on AES-NI CPUs
 *    without usable VAES.
 *  - Ttable: the portable hot path. The 32-bit T-table formulation
 *    fuses SubBytes, ShiftRows and MixColumns into four table lookups
 *    and three XORs per column per round. The tables are generated at
 *    compile time from the S-box, so no runtime initialization (and no
 *    initialization races) exist.
 *  - Reference: the byte-oriented FIPS-197 transcription, kept as the
 *    cross-checked oracle. Tests pin every other path to it.
 *
 * The simulated *hardware* is unchanged either way: implementation
 * choice only affects host throughput, never simulated timing.
 */

#ifndef OBFUSMEM_CRYPTO_AES128_HH
#define OBFUSMEM_CRYPTO_AES128_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/bytes.hh"
#include "util/secret.hh"

namespace obfusmem {
namespace crypto {

/** Synthesis figures for the pipelined AES-128 engine (paper Sec. 4). */
struct AesEngineParams
{
    /** Pipeline depth: cycles from input to pad output. */
    static constexpr unsigned pipelineDepth = 24;
    /** Engine cycle time in picoseconds (4 ns). */
    static constexpr uint64_t cycleTimePs = 4000;
    /** Pads produced per cycle once the pipe is full. */
    static constexpr unsigned padsPerCycle = 1;
    /** Power in milliwatts. */
    static constexpr double powerMw = 15.1;
    /** Area in mm^2. */
    static constexpr double areaMm2 = 0.204;
};

/** Host-side encryption implementation (identical ciphertexts). */
enum class AesImpl
{
    /** Fused 32-bit T-table path (the portable fast path). */
    Ttable,
    /** Byte-oriented FIPS-197 path (the cross-check oracle). */
    Reference,
    /** x86 AES-NI hardware path (8-wide batches). */
    Aesni,
    /** 512-bit VAES batches (the widest pad-generation lanes). */
    Vaes,
};

/** Human-readable name for an implementation (matches the env values). */
const char *aesImplName(AesImpl impl);

/**
 * AES-128 with a fixed key set at construction (or via setKey).
 * Provides single-block and batched encrypt, and single-block decrypt.
 */
class Aes128
{
  public:
    using Key = Block128;
    /** Expanded key schedule: 11 round keys of 16 bytes each. */
    using RoundKeys = std::array<std::array<uint8_t, 16>, 11>;

    Aes128() = default;
    explicit Aes128(const Key &key) { setKey(key); }

    /** Run the key schedule for a new key. */
    void setKey(OBF_SECRET const Key &key);

    /** Encrypt one 16-byte block. */
    Block128 encryptBlock(const Block128 &plaintext) const;

    /**
     * Encrypt `n` blocks in one call. The hot path for pad batches:
     * the implementation dispatch and round-key loads are paid once
     * per batch instead of once per block. `in` and `out` may alias.
     */
    void encryptBlocks(const Block128 *in, Block128 *out,
                       size_t n) const;

    /** Decrypt one 16-byte block (inverse cipher). */
    Block128 decryptBlock(const Block128 &ciphertext) const;

    /**
     * Select the encryption implementation for this instance.
     * Requesting a hardware lane the build or CPU cannot honour warns
     * and steps down the ladder (Vaes -> Aesni -> Ttable) instead of
     * faulting on the first wide instruction.
     */
    void setImpl(AesImpl impl);
    AesImpl impl() const { return implChoice; }

    /**
     * Process-wide default implementation, read once from the
     * OBFUSMEM_AES_IMPL environment variable ("vaes", "aesni",
     * "ttable" or "reference"; stable across threads).
     * Unset: the widest lane the build and the running CPU support —
     * Vaes, then Aesni, then Ttable. An explicit hardware choice that
     * cannot be honoured warns and falls back down the same ladder.
     */
    static AesImpl defaultImpl();

    /** True when the binary contains AES-NI code and the CPU runs it. */
    static bool aesniAvailable();

    /**
     * True when the binary contains the VAES/AVX-512 lanes and the CPU
     * runs them. VAES batches fall back to AES-NI for sub-lane tails,
     * so availability requires aesniAvailable() too.
     */
    static bool vaesAvailable();

  private:
    Block128 encryptTtable(const Block128 &plaintext) const;
    Block128 encryptReference(const Block128 &plaintext) const;

    /** Expanded round keys (byte layout, shared by all impls). */
    OBF_SECRET RoundKeys roundKeys{};
    /** The same schedule as little-endian column words (T-table path). */
    OBF_SECRET std::array<std::array<uint32_t, 4>, 11> roundKeyWords{};
    AesImpl implChoice = defaultImpl();
    bool keyed = false;
};

namespace detail {

/**
 * AES-NI entry points, defined in aes128_aesni.cc — the only
 * translation unit built with -maes, so no intrinsics appear in this
 * header. When the build gates AES-NI off (-DOBFUSMEM_DISABLE_AESNI=ON
 * or a non-x86 target) these compile to panicking stubs and
 * aesniCompiledIn() reports false, which keeps the dispatch honest.
 */
bool aesniCompiledIn();
Block128 aesniEncryptBlock(OBF_SECRET const Aes128::RoundKeys &schedule,
                           const Block128 &plaintext);
void aesniEncryptBlocks(OBF_SECRET const Aes128::RoundKeys &schedule,
                        const Block128 *in, Block128 *out, size_t n);

/**
 * VAES/AVX-512 entry points, defined in aes128_vaes.cc — the only
 * translation unit built with -mvaes/-mavx512*. Same contract as the
 * aesni* set: panicking stubs when the build gates the lanes off
 * (-DOBFUSMEM_DISABLE_VAES=ON or a compiler without the flags), with
 * vaesCompiledIn() reporting false so the dispatch stays honest.
 */
bool vaesCompiledIn();
void vaesEncryptBlocks(OBF_SECRET const Aes128::RoundKeys &schedule,
                       const Block128 *in, Block128 *out, size_t n);

} // namespace detail

} // namespace crypto
} // namespace obfusmem

#endif // OBFUSMEM_CRYPTO_AES128_HH
