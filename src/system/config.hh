/**
 * @file
 * Top-level system configuration: protection mode plus the parameters
 * of every substrate, defaulting to the paper's Table 2 machine.
 */

#ifndef OBFUSMEM_SYSTEM_CONFIG_HH
#define OBFUSMEM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/cache_hierarchy.hh"
#include "cpu/core.hh"
#include "mem/fault_injector.hh"
#include "mem/pcm_params.hh"
#include "obfusmem/params.hh"
#include "oram/oram_controller.hh"
#include "secure/encryption_engine.hh"

namespace obfusmem {

/** The protection configurations evaluated in the paper. */
enum class ProtectionMode
{
    /** No protection at all (the normalization baseline). */
    Unprotected,
    /** Counter-mode memory encryption + Merkle integrity only. */
    EncryptionOnly,
    /** Encryption + ObfusMem access-pattern obfuscation. */
    ObfusMem,
    /** ObfusMem + authenticated communication (the full design). */
    ObfusMemAuth,
    /** Path ORAM with the paper's optimistic fixed 2500 ns latency. */
    OramFixed,
    /** Path ORAM driving the detailed PCM substrate. */
    OramDetailed,
    /** Flat (write-only) ORAM driving the detailed PCM substrate. */
    FlatOram,
    /**
     * Deterministic stash-free write-only ORAM driving the detailed
     * PCM substrate.
     */
    WriteOnlyOram,
};

/** Name-table row of one protection mode. */
struct BackendInfo
{
    ProtectionMode mode;
    /** Canonical name (CLI/JSON spelling). */
    const char *name;
    /** Mode sits on channel buses + PCM (vs. the magic store). */
    bool needsBuses;
    /** Mode obfuscates the wire (auditor runs in strict mode). */
    bool obfuscatedWire;
};

/** Name-table row for @p mode (every mode has one). */
const BackendInfo &backendInfo(ProtectionMode mode);

/**
 * Row whose canonical name (or a documented alias: "encryption",
 * "obfusmem-auth", "write-only-oram") matches @p name; nullptr when
 * unknown.
 */
const BackendInfo *backendInfoByName(std::string_view name);

/** All name-table rows, in ProtectionMode declaration order. */
const std::vector<BackendInfo> &allBackendInfos();

/** Human-readable mode name (the name-table row's canonical name). */
const char *protectionModeName(ProtectionMode mode);

/** Full system configuration. */
struct SystemConfig
{
    ProtectionMode mode = ProtectionMode::ObfusMemAuth;

    /** Memory geometry (Table 2: 8 GB, 1/2/4/8 channels). */
    uint64_t capacityBytes = 8ull << 30;
    unsigned channels = 1;

    /** Workload. */
    std::string benchmark = "bwaves";
    unsigned cores = 4;
    uint64_t instrPerCore = 1000 * 1000;
    uint64_t seed = 42;

    /**
     * Replay a recorded trace instead of the synthetic benchmark
     * (see cpu/trace_workload.hh for the format). Every core replays
     * the same trace; no cache warm-up is performed.
     */
    std::string traceFile;
    /** Non-memory CPI charged during trace replay. */
    double traceBaseCpi = 1.0;

    HierarchyParams hierarchy{};
    TraceCore::Params core{};
    PcmParams pcm{};
    ChannelBus::Params bus{};
    EncryptionParams encryption{};
    ObfusMemParams obfusmem{};
    /**
     * Seeded channel fault injection (drop/corrupt/delay/duplicate;
     * see mem/fault_injector.hh). Attached to the channel buses only
     * in the ObfusMem modes — the plain path has no recovery protocol
     * and would wedge on a dropped message. All probabilities default
     * to zero; OBFUSMEM_FAULT_* env knobs feed Params::fromEnv().
     */
    FaultInjector::Params faults{};
    OramFixedLatency::Params oramFixed{};
    OramDetailed::Params oramDetailed{};
    FlatOramController::Params flatOram{};
    WriteOnlyOramController::Params writeOnlyOram{};

    /**
     * Build the cache hierarchy and the trace cores, and warm the
     * caches. The datacenter topology (system/topology.hh) drives the
     * memory path directly with tenant generators instead, so its
     * sockets build neither: no cache arrays, no warm-up. System::run()
     * and every cache-model entry point require this.
     */
    bool buildCores = true;

    /** Attach the attacker's bus observer. */
    bool attachObserver = true;

    /**
     * Attach the obliviousness trace auditor (src/check): taps every
     * channel bus and the ObfusMem endpoints and machine-checks the
     * paper's security invariants over the whole run. Off by default;
     * CI and the `obfus_audit` tool turn it on. Note that on the
     * unprotected/encryption-only paths the auditor *will* report
     * violations - that is the point: those traces are not oblivious.
     */
    bool attachAuditor = false;

    /**
     * Derive channel session keys with the real boot protocol
     * (trusted-integrator DH) instead of a deterministic KDF.
     */
    bool runBootProtocol = false;

    /** Memory layout (derived; override only for tests). */
    uint64_t workloadRegionBytes() const
    {
        return (capacityBytes * 3 / 4) / cores;
    }

    uint64_t workloadBase(unsigned core_id) const
    {
        return core_id * workloadRegionBytes();
    }

    uint64_t counterRegionBase() const
    {
        return capacityBytes * 3 / 4 + (capacityBytes >> 5);
    }

    uint64_t bmtRegionBase() const
    {
        return capacityBytes * 3 / 4 + (capacityBytes >> 3);
    }

    uint64_t oramTreeBase() const
    {
        return capacityBytes * 3 / 4 + (capacityBytes >> 3)
               + (capacityBytes >> 4);
    }

    /** Region the memory encryption engine protects. */
    uint64_t dataRegionBytes() const { return capacityBytes * 3 / 4; }
};

} // namespace obfusmem

#endif // OBFUSMEM_SYSTEM_CONFIG_HH
