/**
 * @file
 * AES-128: byte-oriented FIPS-197 reference path plus the T-table
 * fast path, and the dispatch that can route to the AES-NI hardware
 * path (compiled separately in aes128_aesni.cc). Every table (S-box,
 * inverse S-box, the four fused encryption tables) is generated at
 * compile time, so there is no lazily initialized mutable state
 * anywhere in this translation unit and instances are safe to use
 * from concurrent sweep-runner jobs.
 */

#include "crypto/aes128.hh"

#include "crypto/cpu_features.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace obfusmem {
namespace crypto {

namespace {

constexpr std::array<uint8_t, 256> sbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
};

constexpr std::array<uint8_t, 256>
makeInvSbox()
{
    std::array<uint8_t, 256> inv{};
    for (int i = 0; i < 256; ++i)
        inv[sbox[i]] = static_cast<uint8_t>(i);
    return inv;
}

constexpr std::array<uint8_t, 256> invSbox = makeInvSbox();

constexpr uint8_t
xtime(uint8_t x)
{
    return static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

constexpr uint32_t
rotl32(uint32_t v, int n)
{
    return (v << n) | (v >> (32 - n));
}

/**
 * The four fused encryption tables. State columns are little-endian
 * 32-bit words (byte 0 = row 0), so enc[r][x] is the MixColumns
 * contribution of S-box output sbox[x] landing on row r after
 * ShiftRows: enc[0][x] packs {2s, s, s, 3s} and each subsequent table
 * is the previous one rotated up a byte.
 */
constexpr std::array<std::array<uint32_t, 256>, 4>
makeEncTables()
{
    std::array<std::array<uint32_t, 256>, 4> enc{};
    for (int i = 0; i < 256; ++i) {
        uint32_t s = sbox[i];
        uint32_t s2 = xtime(sbox[i]);
        uint32_t s3 = s2 ^ s;
        uint32_t w = s2 | (s << 8) | (s << 16) | (s3 << 24);
        for (int r = 0; r < 4; ++r) {
            enc[r][i] = w;
            w = rotl32(w, 8);
        }
    }
    return enc;
}

constexpr std::array<std::array<uint32_t, 256>, 4> encTables =
    makeEncTables();

/** GF(2^8) multiplication. */
uint8_t
gmul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

void
subBytes(uint8_t *s)
{
    for (int i = 0; i < 16; ++i)
        s[i] = sbox[s[i]];
}

void
invSubBytes(uint8_t *s)
{
    for (int i = 0; i < 16; ++i)
        s[i] = invSbox[s[i]];
}

// State is column-major: s[4*c + r] is row r, column c.
void
shiftRows(uint8_t *s)
{
    uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
        for (int r = 0; r < 4; ++r)
            t[4 * c + r] = s[4 * ((c + r) % 4) + r];
    }
    for (int i = 0; i < 16; ++i)
        s[i] = t[i];
}

void
invShiftRows(uint8_t *s)
{
    uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
        for (int r = 0; r < 4; ++r)
            t[4 * ((c + r) % 4) + r] = s[4 * c + r];
    }
    for (int i = 0; i < 16; ++i)
        s[i] = t[i];
}

void
mixColumns(uint8_t *s)
{
    for (int c = 0; c < 4; ++c) {
        uint8_t *col = s + 4 * c;
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1)
                                       ^ a2 ^ a3);
        col[1] = static_cast<uint8_t>(a0 ^ xtime(a1)
                                       ^ (xtime(a2) ^ a2) ^ a3);
        col[2] = static_cast<uint8_t>(a0 ^ a1 ^ xtime(a2)
                                       ^ (xtime(a3) ^ a3));
        col[3] = static_cast<uint8_t>((xtime(a0) ^ a0) ^ a1
                                       ^ a2 ^ xtime(a3));
    }
}

void
invMixColumns(uint8_t *s)
{
    for (int c = 0; c < 4; ++c) {
        uint8_t *col = s + 4 * c;
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d)
                 ^ gmul(a3, 0x09);
        col[1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b)
                 ^ gmul(a3, 0x0d);
        col[2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e)
                 ^ gmul(a3, 0x0b);
        col[3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09)
                 ^ gmul(a3, 0x0e);
    }
}

void
addRoundKey(uint8_t *s, const uint8_t *rk)
{
    for (int i = 0; i < 16; ++i)
        s[i] ^= rk[i];
}

} // namespace

const char *
aesImplName(AesImpl impl)
{
    switch (impl) {
      case AesImpl::Ttable: return "ttable";
      case AesImpl::Reference: return "reference";
      case AesImpl::Aesni: return "aesni";
      case AesImpl::Vaes: return "vaes";
    }
    return "unknown";
}

bool
Aes128::aesniAvailable()
{
    return detail::aesniCompiledIn() && cpuHasAesni();
}

bool
Aes128::vaesAvailable()
{
    // Sub-lane batches and single blocks route through the AES-NI
    // path, so VAES is only usable when AES-NI is too (every VAES CPU
    // has AES-NI, but a -DOBFUSMEM_DISABLE_AESNI build does not).
    return detail::vaesCompiledIn() && cpuHasVaes512()
           && aesniAvailable();
}

void
Aes128::setImpl(AesImpl impl)
{
    // Step down the lane-width ladder instead of faulting: an
    // unavailable hardware lane degrades to the next narrower one.
    if (impl == AesImpl::Vaes && !vaesAvailable()) {
        warn("VAES requested but ",
             detail::vaesCompiledIn() ? "this CPU does not support it"
                                      : "this build does not include it",
             "; stepping down to ",
             aesniAvailable() ? "AES-NI" : "the T-table path");
        impl = aesniAvailable() ? AesImpl::Aesni : AesImpl::Ttable;
    }
    if (impl == AesImpl::Aesni && !aesniAvailable()) {
        warn("AES-NI requested but ",
             detail::aesniCompiledIn() ? "this CPU does not support it"
                                       : "this build does not include it",
             "; using the T-table path");
        impl = AesImpl::Ttable;
    }
    implChoice = impl;
}

AesImpl
Aes128::defaultImpl()
{
    static const AesImpl choice = [] {
        auto widest = [] {
            if (vaesAvailable())
                return AesImpl::Vaes;
            return aesniAvailable() ? AesImpl::Aesni : AesImpl::Ttable;
        };
        size_t unset = 4;
        size_t pick = env::choice("OBFUSMEM_AES_IMPL",
                                  {"vaes", "aesni", "ttable", "reference"},
                                  unset);
        switch (pick) {
          case 0:
            if (vaesAvailable())
                return AesImpl::Vaes;
            warn("OBFUSMEM_AES_IMPL=vaes but VAES is unavailable ",
                 detail::vaesCompiledIn()
                     ? "(CPU lacks the instructions)"
                     : "(disabled in this build)",
                 "; using ", aesniAvailable() ? "aesni" : "ttable");
            return aesniAvailable() ? AesImpl::Aesni : AesImpl::Ttable;
          case 1:
            if (aesniAvailable())
                return AesImpl::Aesni;
            warn("OBFUSMEM_AES_IMPL=aesni but AES-NI is unavailable ",
                 detail::aesniCompiledIn()
                     ? "(CPU lacks the instructions)"
                     : "(disabled in this build)",
                 "; using ttable");
            return AesImpl::Ttable;
          case 2:
            return AesImpl::Ttable;
          case 3:
            return AesImpl::Reference;
          default:
            return widest();
        }
    }();
    return choice;
}

void
Aes128::setKey(OBF_SECRET const Key &key)
{
    // FIPS-197 key expansion for Nk=4, Nr=10.
    OBF_SECRET uint8_t w[176];
    for (int i = 0; i < 16; ++i)
        w[i] = key[i];

    uint8_t rcon = 0x01;
    for (int i = 16; i < 176; i += 4) {
        uint8_t t[4] = {w[i - 4], w[i - 3], w[i - 2], w[i - 1]};
        if (i % 16 == 0) {
            // RotWord + SubWord + Rcon.
            uint8_t tmp = t[0];
            t[0] = static_cast<uint8_t>(sbox[t[1]] ^ rcon);
            t[1] = sbox[t[2]];
            t[2] = sbox[t[3]];
            t[3] = sbox[tmp];
            rcon = xtime(rcon);
        }
        for (int b = 0; b < 4; ++b)
            w[i + b] = w[i - 16 + b] ^ t[b];
    }

    for (int r = 0; r < 11; ++r) {
        for (int b = 0; b < 16; ++b)
            roundKeys[r][b] = w[16 * r + b];
        for (int c = 0; c < 4; ++c)
            roundKeyWords[r][c] = loadLe32(&roundKeys[r][4 * c]);
    }
    keyed = true;
}

Block128
Aes128::encryptReference(const Block128 &plaintext) const
{
    Block128 state = plaintext;
    uint8_t *s = state.data();

    addRoundKey(s, roundKeys[0].data());
    for (int round = 1; round < 10; ++round) {
        subBytes(s);
        shiftRows(s);
        mixColumns(s);
        addRoundKey(s, roundKeys[round].data());
    }
    subBytes(s);
    shiftRows(s);
    addRoundKey(s, roundKeys[10].data());
    return state;
}

Block128
Aes128::encryptTtable(const Block128 &plaintext) const
{
    const auto &T0 = encTables[0];
    const auto &T1 = encTables[1];
    const auto &T2 = encTables[2];
    const auto &T3 = encTables[3];

    uint32_t w0 = loadLe32(plaintext.data()) ^ roundKeyWords[0][0];
    uint32_t w1 = loadLe32(plaintext.data() + 4) ^ roundKeyWords[0][1];
    uint32_t w2 = loadLe32(plaintext.data() + 8) ^ roundKeyWords[0][2];
    uint32_t w3 = loadLe32(plaintext.data() + 12) ^ roundKeyWords[0][3];

    for (int round = 1; round < 10; ++round) {
        const auto &rk = roundKeyWords[round];
        uint32_t n0 = T0[w0 & 0xff] ^ T1[(w1 >> 8) & 0xff]
                      ^ T2[(w2 >> 16) & 0xff] ^ T3[w3 >> 24] ^ rk[0];
        uint32_t n1 = T0[w1 & 0xff] ^ T1[(w2 >> 8) & 0xff]
                      ^ T2[(w3 >> 16) & 0xff] ^ T3[w0 >> 24] ^ rk[1];
        uint32_t n2 = T0[w2 & 0xff] ^ T1[(w3 >> 8) & 0xff]
                      ^ T2[(w0 >> 16) & 0xff] ^ T3[w1 >> 24] ^ rk[2];
        uint32_t n3 = T0[w3 & 0xff] ^ T1[(w0 >> 8) & 0xff]
                      ^ T2[(w1 >> 16) & 0xff] ^ T3[w2 >> 24] ^ rk[3];
        w0 = n0;
        w1 = n1;
        w2 = n2;
        w3 = n3;
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
    const auto &rk = roundKeyWords[10];
    auto last = [](uint32_t a, uint32_t b, uint32_t c, uint32_t d) {
        return static_cast<uint32_t>(sbox[a & 0xff])
               | (static_cast<uint32_t>(sbox[(b >> 8) & 0xff]) << 8)
               | (static_cast<uint32_t>(sbox[(c >> 16) & 0xff]) << 16)
               | (static_cast<uint32_t>(sbox[d >> 24]) << 24);
    };
    uint32_t f0 = last(w0, w1, w2, w3) ^ rk[0];
    uint32_t f1 = last(w1, w2, w3, w0) ^ rk[1];
    uint32_t f2 = last(w2, w3, w0, w1) ^ rk[2];
    uint32_t f3 = last(w3, w0, w1, w2) ^ rk[3];

    Block128 out;
    storeLe32(out.data(), f0);
    storeLe32(out.data() + 4, f1);
    storeLe32(out.data() + 8, f2);
    storeLe32(out.data() + 12, f3);
    return out;
}

Block128
Aes128::encryptBlock(const Block128 &plaintext) const
{
    panic_if(!keyed, "Aes128 used before setKey");
    switch (implChoice) {
      case AesImpl::Aesni:
      case AesImpl::Vaes:
        // The wide lanes only differ on batches; a lone block is an
        // AES-NI round trip for both.
        return detail::aesniEncryptBlock(roundKeys, plaintext);
      case AesImpl::Ttable:
        return encryptTtable(plaintext);
      case AesImpl::Reference:
        break;
    }
    return encryptReference(plaintext);
}

void
Aes128::encryptBlocks(const Block128 *in, Block128 *out, size_t n) const
{
    panic_if(!keyed, "Aes128 used before setKey");
    switch (implChoice) {
      case AesImpl::Vaes:
        detail::vaesEncryptBlocks(roundKeys, in, out, n);
        return;
      case AesImpl::Aesni:
        detail::aesniEncryptBlocks(roundKeys, in, out, n);
        return;
      case AesImpl::Ttable:
        for (size_t i = 0; i < n; ++i)
            out[i] = encryptTtable(in[i]);
        return;
      case AesImpl::Reference:
        break;
    }
    for (size_t i = 0; i < n; ++i)
        out[i] = encryptReference(in[i]);
}

Block128
Aes128::decryptBlock(const Block128 &ciphertext) const
{
    panic_if(!keyed, "Aes128 used before setKey");
    Block128 state = ciphertext;
    uint8_t *s = state.data();

    addRoundKey(s, roundKeys[10].data());
    for (int round = 9; round >= 1; --round) {
        invShiftRows(s);
        invSubBytes(s);
        addRoundKey(s, roundKeys[round].data());
        invMixColumns(s);
    }
    invShiftRows(s);
    invSubBytes(s);
    addRoundKey(s, roundKeys[0].data());
    return state;
}

} // namespace crypto
} // namespace obfusmem
