/**
 * @file
 * CPUID feature probing.
 */

#include "crypto/cpu_features.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace obfusmem {
namespace crypto {

namespace {

#if defined(__x86_64__) || defined(__i386__)

/** XCR0 via xgetbv; valid only after checking OSXSAVE. */
uint64_t
readXcr0()
{
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    return (static_cast<uint64_t>(hi) << 32) | lo;
}

/** OSXSAVE set and the given XCR0 state-component bits enabled. */
bool
osSavesState(uint64_t xcr0_mask)
{
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return false;
    if (!(ecx & (1u << 27))) // OSXSAVE
        return false;
    return (readXcr0() & xcr0_mask) == xcr0_mask;
}

/** XCR0 bits: x87|SSE|AVX (YMM state). */
constexpr uint64_t xcr0Ymm = 0x7;
/** XCR0 bits: YMM plus opmask|ZMM_Hi256|Hi16_ZMM (AVX-512 state). */
constexpr uint64_t xcr0Zmm = 0xe7;

#endif

bool
probeAesni()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return false;
    return (ecx & (1u << 25)) != 0; // CPUID.1:ECX.AESNI
#else
    return false;
#endif
}

bool
probeAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        return false;
    if (!(ebx & (1u << 5))) // CPUID.7.0:EBX.AVX2
        return false;
    return osSavesState(xcr0Ymm);
#else
    return false;
#endif
}

bool
probeAvx512f()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        return false;
    if (!(ebx & (1u << 16))) // CPUID.7.0:EBX.AVX512F
        return false;
    return osSavesState(xcr0Zmm);
#else
    return false;
#endif
}

} // namespace

bool
cpuHasAesni()
{
    static const bool has = probeAesni();
    return has;
}

bool
cpuHasAvx2()
{
    static const bool has = probeAvx2();
    return has;
}

bool
cpuHasAvx512f()
{
    static const bool has = probeAvx512f();
    return has;
}

std::string
cpuFeatureSummary()
{
    std::string out;
    auto append = [&out](const char *flag) {
        if (!out.empty())
            out += ',';
        out += flag;
    };
    if (cpuHasAesni())
        append("aesni");
    if (cpuHasAvx2())
        append("avx2");
    if (cpuHasAvx512f())
        append("avx512f");
    if (out.empty())
        out = "none";
    return out;
}

} // namespace crypto
} // namespace obfusmem
