/**
 * @file
 * The benchmark's three closed-loop workloads and the runner for one
 * configuration of one of them. Everything here reaches the simulator
 * through its public API only: System, MultiTenantTopology,
 * memorySink(), rootStats().scalarValue(), MacEngine and AesCtr.
 */

#ifndef OBFBENCH_WORKLOADS_HH
#define OBFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hh"
#include "system/system.hh"

namespace obfbench {

/** What a configuration contributes to the metrics. */
enum class Role
{
    Unprotected,
    EncryptionOnly,
    /** ObfusMem without authentication (traced ladder only). */
    ObfusMem,
    /** ObfusMem+Auth with the OPT inter-channel scheme. */
    Opt,
    /** ObfusMem+Auth with the UNOPT inter-channel scheme. */
    Unopt,
    PathOram,
    FlatOram,
    WoOram,
    /** Opt on a single shard (traced ladder only, racks). */
    OptShards1,
};

struct ConfigSpec
{
    /** Unique within the workload, e.g. "mcf/obfusmem+auth". */
    std::string name;
    Role role = Role::Unprotected;
    /** Run only in traced rounds (the per-layer difference ladder). */
    bool ladder = false;
    /** SPEC profile name (spec-cores only). */
    std::string program;
    obfusmem::ProtectionMode mode = obfusmem::ProtectionMode::Unprotected;
    obfusmem::ChannelScheme scheme = obfusmem::ChannelScheme::None;
    unsigned shards = 2;
};

struct Workload
{
    std::string name;
    /** Multi-tenant rack (true) or the fig4 core/cache system. */
    bool rack = false;
    double storeFraction = 0;
    std::vector<ConfigSpec> configs;
};

/** The named workload; an empty name means unknown. */
Workload makeWorkload(const std::string &name);

/** Names accepted by makeWorkload(). */
std::vector<std::string> workloadNames();

/** Host time of one phase: wall clock and this process's CPU time. */
struct HostTime
{
    double wallS = 0;
    /** All threads of the process, shard workers included. */
    double cpuS = 0;
};

/** Outcome of one configuration in one round. */
struct ConfigRun
{
    const ConfigSpec *spec = nullptr;
    /** Host time constructing the System / topology. */
    HostTime setup;
    /** Host time inside run(). */
    HostTime run;
    /** Simulated memory requests completed in run(). */
    uint64_t requests = 0;
    /** Simulated instructions retired (spec-cores). */
    uint64_t instructions = 0;
    /** Simulated execution time (spec-cores) or makespan (racks). */
    uint64_t ticks = 0;
    /** Simulated mean request latency. */
    double latencyNs = 0;
    uint64_t events = 0;
    uint64_t epochs = 0;
    uint64_t crossMessages = 0;
    /**
     * Simulated counters summed over channels and sockets, read after
     * run() and before the probe. Averages are stored pre-weighted
     * (key suffix "W") so they can be summed and re-divided.
     */
    std::map<std::string, double> counters;
    /** Every simulated number above, for bit-identity checks. */
    std::string fingerprint;
    /** Checked operations and the ones that failed. */
    uint64_t ops = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
};

/** Run one configuration: construct, run, probe, check. */
ConfigRun runConfig(const Workload &wl, const ConfigSpec &spec,
                    uint64_t seed, SpanRecorder &spans);

/**
 * Fixed host work that shares no code with the simulator: @p ops
 * insert-and-lookup steps on an ordered map of ~50k entries (pointer
 * chasing and allocation, like the simulator's hot paths). Returns
 * the CPU seconds it took; rounds use it to track the host's speed.
 */
double referenceCpuS(uint64_t ops);

/** Host cost of the endpoint crypto, timed through the public API. */
struct CryptoTiming
{
    double nsPerPad = 0;
    double nsPerMac = 0;
    uint64_t ops = 0;
    uint64_t failed = 0;
};

CryptoTiming timeCrypto(uint64_t seed, SpanRecorder &spans);

} // namespace obfbench

#endif // OBFBENCH_WORKLOADS_HH
