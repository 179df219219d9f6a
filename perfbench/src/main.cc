/**
 * @file
 * obfbench: the repository benchmark. Runs one closed-loop workload
 * (spec-cores, rack-reads or rack-writes) in rounds for a fixed host
 * time, checks every configuration's outputs, and prints the metrics,
 * ending with one JSON result line:
 *
 *   obfbench --workload W --seed N --seconds S --trace 0|1
 *            [--spans PATH] [--commit SHA]
 *   obfbench --selftest
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 adds the
 * difference-ladder configurations, records spans around every call
 * into the simulator, and reports the per-layer metrics. See
 * perfbench/README.md for the metric definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aes128.hh"
#include "crypto/cpu_features.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace obfbench;

namespace {

/** Never used while tuning; reserved to confirm a claimed change. */
constexpr uint64_t heldOutSeed = 7919;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
    std::string commit = "unknown";
    bool selftest = false;
};

/** Reference-kernel steps run at the start of every round. */
constexpr uint64_t referenceOpsPerRound = 200 * 1000;
/**
 * CPU seconds per reference step on the reference host (the 4-vCPU
 * AVX-512 VM this benchmark was tuned on, at its typical speed).
 */
constexpr double referenceSecondsPerOp = 450e-9;

struct Round
{
    std::vector<ConfigRun> runs;
    CryptoTiming crypto;
    /**
     * How much slower than the reference host this round ran, from the
     * reference kernel run at its start.
     */
    double slowdown = 1;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    /** False for a result of a configuration the workload lacks. */
    bool applies = true;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
overheadPct(double t, double base)
{
    return base > 0 ? 100.0 * (t / base - 1.0) : 0;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Sums over the runs of one round that satisfy a predicate. */
struct Sums
{
    /** Host seconds: setup and run CPU, run wall. */
    double setupS = 0, runS = 0, runWallS = 0;
    double requests = 0, instructions = 0;
    double ticks = 0, events = 0;
    std::map<std::string, double> counters;
    unsigned configs = 0;

    double c(const std::string &key) const
    {
        auto it = counters.find(key);
        return it == counters.end() ? 0 : it->second;
    }
};

Sums
sumRuns(const Round &round,
        const std::function<bool(const ConfigRun &)> &pick)
{
    Sums s;
    for (const ConfigRun &r : round.runs) {
        if (!pick(r))
            continue;
        ++s.configs;
        s.setupS += r.setup.cpuS;
        s.runS += r.run.cpuS;
        s.runWallS += r.run.wallS;
        s.requests += static_cast<double>(r.requests);
        s.instructions += static_cast<double>(r.instructions);
        s.ticks += static_cast<double>(r.ticks);
        s.events += static_cast<double>(r.events);
        for (const auto &[k, v] : r.counters)
            s.counters[k] += v;
    }
    return s;
}

auto
byRole(Role role)
{
    return [role](const ConfigRun &r) { return r.spec->role == role; };
}

auto
baseConfigs()
{
    return [](const ConfigRun &r) { return !r.spec->ladder; };
}

bool
isOram(Role role)
{
    return role == Role::PathOram || role == Role::FlatOram
           || role == Role::WoOram;
}

/**
 * The rounds folded into one. Each configuration keeps its simulated
 * results, which are identical in every round. Each host time becomes
 * the median over rounds of that time divided by its round's slowdown.
 */
Round
medianRound(const std::vector<Round> &rounds)
{
    Round out = rounds.front();
    out.slowdown = 1;
    auto fold = [&](auto member, size_t i, bool wall) {
        std::vector<double> v;
        for (const Round &r : rounds) {
            const HostTime &t = r.runs[i].*member;
            v.push_back((wall ? t.wallS : t.cpuS) / r.slowdown);
        }
        return median(v);
    };
    for (size_t i = 0; i < out.runs.size(); ++i) {
        out.runs[i].setup = {fold(&ConfigRun::setup, i, true),
                             fold(&ConfigRun::setup, i, false)};
        out.runs[i].run = {fold(&ConfigRun::run, i, true),
                           fold(&ConfigRun::run, i, false)};
    }
    std::vector<double> pad, mac;
    for (const Round &r : rounds) {
        pad.push_back(r.crypto.nsPerPad / r.slowdown);
        mac.push_back(r.crypto.nsPerMac / r.slowdown);
    }
    out.crypto.nsPerPad = median(pad);
    out.crypto.nsPerMac = median(mac);
    return out;
}

/** Median over rounds of the raw (unnormalized) wall-clock rate. */
double
wallRate(const std::vector<Round> &rounds,
         const std::function<bool(const ConfigRun &)> &pick)
{
    std::vector<double> v;
    for (const Round &r : rounds) {
        double reqs = 0, wall = 0;
        for (const ConfigRun &c : r.runs)
            if (pick(c)) {
                reqs += static_cast<double>(c.requests);
                wall += c.run.wallS;
            }
        v.push_back(ratio(reqs, wall));
    }
    return median(v);
}

/** Normalized host CPU ns per request of role @p hi over @p lo. */
double
diffNsPerReq(const Round &round, Role hi, Role lo)
{
    Sums a = sumRuns(round, byRole(hi));
    Sums b = sumRuns(round, byRole(lo));
    if (a.configs == 0 || b.configs == 0)
        return 0;
    return 1e9 * ratio(a.runS - b.runS, a.requests);
}

// --- Simulated results (identical in every round of one seed) --------

/** Percent overhead of role @p role over the unprotected baseline. */
double
simOverheadPct(const Workload &wl, const Round &round, Role role)
{
    if (!wl.rack) {
        // fig4's Avg: mean over programs of the per-program overhead.
        std::map<std::string, double> base;
        for (const ConfigRun &r : round.runs)
            if (r.spec->role == Role::Unprotected)
                base[r.spec->program] = static_cast<double>(r.ticks);
        double sum = 0;
        unsigned n = 0;
        for (const ConfigRun &r : round.runs) {
            if (r.spec->role != role)
                continue;
            sum += overheadPct(static_cast<double>(r.ticks),
                               base[r.spec->program]);
            ++n;
        }
        return n ? sum / n : 0;
    }
    Sums base = sumRuns(round, byRole(Role::Unprotected));
    Sums s = sumRuns(round, byRole(role));
    return s.configs ? overheadPct(s.ticks, base.ticks) : 0;
}

double
simLatencyNs(const Workload &wl, const Round &round, Role role)
{
    Sums s = sumRuns(round, byRole(role));
    if (!wl.rack)
        return ratio(s.c("caches.missLatencyNsW"), s.c("caches.llcMisses"));
    for (const ConfigRun &r : round.runs)
        if (r.spec->role == role)
            return r.latencyNs;
    return 0;
}

// --- Metric sets ----------------------------------------------------

/** Run-phase rate over normalized host CPU seconds. */
double
ratePerS(const Round &best,
         const std::function<bool(const ConfigRun &)> &pick,
         bool instructions = false)
{
    Sums s = sumRuns(best, pick);
    return ratio(instructions ? s.instructions : s.requests, s.runS);
}

/**
 * The end-to-end metrics of BENCHMARK.json, from untraced rounds.
 * These are the same five on every workload.
 */
std::vector<Metric>
endToEnd(const Workload &wl, const std::vector<Round> &rounds)
{
    const Round best = medianRound(rounds);
    return {
        {"setup_s", "s", sumRuns(best, baseConfigs()).setupS},
        {"req_per_s", "1/s", ratePerS(best, baseConfigs())},
        {"obfusmem_req_per_s", "1/s", ratePerS(best, byRole(Role::Opt))},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"obfusmem_latency_ns", "ns", simLatencyNs(wl, best, Role::Opt)},
    };
}

/**
 * Workload-specific results: printed on every run, and carried in the
 * traced run's per-layer set (0 where the workload has no such
 * configuration) because the result line may only hold metrics that
 * every workload reports.
 */
std::vector<Metric>
workloadResults(const Workload &wl, const std::vector<Round> &rounds)
{
    const Round best = medianRound(rounds);
    auto has = [&](Role role) {
        for (const ConfigRun &r : best.runs)
            if (r.spec->role == role)
                return true;
        return false;
    };
    auto overhead = [&](const char *name, Role role) {
        return Metric{name, "%", simOverheadPct(wl, best, role),
                      has(role)};
    };
    auto oramRoles = [](const ConfigRun &r) {
        return !r.spec->ladder && isOram(r.spec->role);
    };
    return {
        overhead("obfusmem_overhead_pct", Role::Opt),
        overhead("unopt_overhead_pct", Role::Unopt),
        overhead("oram_overhead_pct", Role::PathOram),
        overhead("flat_oram_overhead_pct", Role::FlatOram),
        overhead("wo_oram_overhead_pct", Role::WoOram),
        {"instr_per_s", "1/s",
         wl.rack ? 0 : ratePerS(best, baseConfigs(), true), !wl.rack},
        {"oram_req_per_s", "1/s", ratePerS(best, oramRoles),
         has(Role::PathOram)},
    };
}

/** Per-layer metrics from the traced rounds (see README.md). */
std::vector<Metric>
perLayer(const Workload &wl, const std::vector<Round> &traced,
         const std::vector<Round> &untraced)
{
    const Round best = medianRound(traced);
    auto all = [](const ConfigRun &) { return true; };
    const Sums unprot = sumRuns(best, byRole(Role::Unprotected));
    const Sums enc = sumRuns(best, byRole(Role::EncryptionOnly));
    const Sums opt = sumRuns(best, byRole(Role::Opt));
    const Sums every = sumRuns(best, all);
    const Sums base = sumRuns(best, baseConfigs());
    const Sums path = sumRuns(best, byRole(Role::PathOram));
    const Sums flat = sumRuns(best, byRole(Role::FlatOram));
    const Sums wo = sumRuns(best, byRole(Role::WoOram));

    std::vector<Metric> m;
    auto add = [&](const std::string &name, const std::string &unit,
                   double v) { m.push_back({name, unit, v}); };

    add("system.setup_s_per_config", "s", ratio(every.setupS, every.configs));

    // cpu: the unprotected spec-cores configurations; hmmer misses so
    // rarely that its host time is nearly all core and cache model.
    double hostNsPerInstr = 0;
    for (const ConfigRun &c : best.runs)
        if (c.spec->role == Role::Unprotected && c.spec->program == "hmmer")
            hostNsPerInstr = 1e9 * ratio(c.run.cpuS, c.instructions);
    const double kinstr = unprot.instructions / 1000.0;
    add("cpu.host_ns_per_instr", "ns/instr", hostNsPerInstr);
    add("cpu.l1_hits_pki", "1/kinstr",
        ratio(unprot.c("caches.l1Hits"), kinstr));
    add("cpu.l2_hits_pki", "1/kinstr",
        ratio(unprot.c("caches.l2Hits"), kinstr));
    add("cpu.llc_mpki", "1/kinstr",
        ratio(unprot.c("caches.llcMisses"), kinstr));
    add("cpu.writebacks_pki", "1/kinstr",
        ratio(unprot.c("caches.writebacks"), kinstr));
    add("cpu.mshr_stalls", "count", unprot.c("caches.mshrStalls"));
    add("cpu.miss_latency_ns", "ns",
        ratio(unprot.c("caches.missLatencyNsW"), unprot.c("caches.llcMisses")));

    // secure: the encryption-only configurations.
    add("secure.host_ns_per_req", "ns/req",
        diffNsPerReq(best, Role::EncryptionOnly, Role::Unprotected));
    add("secure.ctr_hit_ratio", "ratio",
        ratio(enc.c("enc.ctrHits"),
              enc.c("enc.ctrHits") + enc.c("enc.ctrMisses")));
    add("secure.pad_memo_hit_ratio", "ratio",
        ratio(enc.c("enc.padMemoHits"),
              enc.c("enc.padMemoHits") + enc.c("enc.padMemoMisses")));
    add("secure.blocks_per_req", "count/req",
        ratio(enc.c("enc.blocksEncrypted") + enc.c("enc.blocksDecrypted"),
              enc.requests));

    // obfusmem: host cost by difference, counters on the OPT configs.
    const double padsUsed = opt.c("proc.padsUsed") + opt.c("memside.padsUsed");
    const double pfHits =
        opt.c("proc.padPrefetchHits") + opt.c("memside.padPrefetchHits");
    const double pfMisses =
        opt.c("proc.padPrefetchMisses") + opt.c("memside.padPrefetchMisses");
    const double prefetched =
        opt.c("proc.padsPrefetched") + opt.c("memside.padsPrefetched");
    add("obfusmem.host_ns_per_req", "ns/req",
        diffNsPerReq(best, Role::ObfusMem, Role::EncryptionOnly));
    add("obfusmem.mac_host_ns_per_req", "ns/req",
        diffNsPerReq(best, Role::Opt, Role::ObfusMem));
    add("obfusmem.unopt_host_ns_per_req", "ns/req",
        diffNsPerReq(best, Role::Unopt, Role::Opt));
    add("obfusmem.pads_per_req", "count/req", ratio(padsUsed, opt.requests));
    add("obfusmem.dummies_per_req", "count/req",
        ratio(opt.c("proc.pairedDummies") + opt.c("proc.channelFillGroups"),
              opt.requests));
    add("obfusmem.pad_prefetch_hit_ratio", "ratio",
        ratio(pfHits, pfHits + pfMisses));
    add("obfusmem.pads_wasted_per_req", "count/req",
        ratio(prefetched - padsUsed, opt.requests));
    add("obfusmem.pair_substitutions_per_write", "count/write",
        ratio(opt.c("proc.pairSubstitutions"), opt.c("memside.realWrites")));
    add("obfusmem.retransmits", "count", every.c("proc.retransmits"));
    add("obfusmem.mac_failures", "count",
        every.c("proc.macFailures") + every.c("memside.macFailures"));

    add("crypto.ns_per_pad", "ns", best.crypto.nsPerPad);
    add("crypto.ns_per_mac", "ns", best.crypto.nsPerMac);

    // mem: host cost of the unprotected path, counters on OPT.
    add("mem.host_ns_per_req", "ns/req",
        1e9 * ratio(unprot.runS, unprot.requests));
    double busCapacity = 0;
    for (const ConfigRun &r : best.runs)
        if (r.spec->role == Role::Opt)
            busCapacity += static_cast<double>(r.ticks)
                           * r.counters.at("channels");
    const double pcmReqs = opt.c("pcm.readReqs") + opt.c("pcm.writeReqs");
    add("mem.bus_msgs_per_req", "count/req",
        ratio(opt.c("bus.messages"), opt.requests));
    add("mem.bus_bytes_per_req", "B/req",
        ratio(opt.c("bus.bytes"), opt.requests));
    add("mem.useful_msg_ratio", "ratio",
        ratio(opt.requests, opt.c("bus.messages")));
    add("mem.bus_utilization", "ratio",
        ratio(opt.c("bus.busyTicks"), busCapacity));
    add("mem.bus_queue_delay_ns", "ns",
        ratio(opt.c("bus.queueDelayNsW"), opt.c("bus.messages")));
    add("mem.pcm_reads_per_req", "count/req",
        ratio(opt.c("pcm.readReqs"), opt.requests));
    add("mem.pcm_writes_per_req", "count/req",
        ratio(opt.c("pcm.writeReqs"), opt.requests));
    add("mem.pcm_row_hit_ratio", "ratio",
        ratio(opt.c("pcm.rowHits"),
              opt.c("pcm.rowHits") + opt.c("pcm.rowMisses")));
    add("mem.pcm_queue_occupancy", "count",
        ratio(opt.c("pcm.queueOccupancyW"), pcmReqs));

    // oram: rack-writes only.
    add("oram.host_ns_per_access.path", "ns/req",
        diffNsPerReq(best, Role::PathOram, Role::Unprotected));
    add("oram.host_ns_per_access.flat", "ns/req",
        diffNsPerReq(best, Role::FlatOram, Role::Unprotected));
    add("oram.host_ns_per_access.wo", "ns/req",
        diffNsPerReq(best, Role::WoOram, Role::Unprotected));
    add("oram.blocks_per_access.path", "count",
        ratio(path.c("oram.physicalTransfers"), path.c("oram.accesses")));
    add("oram.blocks_per_access.flat", "count",
        ratio(flat.c("oram.physicalTransfers"), flat.c("oram.accesses")));
    add("oram.blocks_per_access.wo", "count",
        ratio(wo.c("oram.physicalTransfers"), wo.c("oram.accesses")));
    add("oram.stash_peak", "count",
        ratio(path.c("oram.stashPeakSum"), path.c("oram.controllers")));
    add("oram.flat_probes_per_write", "count",
        ratio(flat.c("oram.writeProbesSum"), flat.c("oram.controllers")));

    // sim: the event kernel and the shard barriers.
    uint64_t epochs = 0, cross = 0;
    for (const ConfigRun &r : best.runs)
        if (r.spec->role == Role::Opt) {
            epochs += r.epochs;
            cross += r.crossMessages;
        }
    const Sums shards1 = sumRuns(best, byRole(Role::OptShards1));
    add("sim.events_per_req", "count/req", ratio(base.events, base.requests));
    add("sim.host_ns_per_event", "ns", 1e9 * ratio(base.runS, base.events));
    add("sim.overflow_promotions_per_req", "count/req",
        ratio(base.c("overflowPromotions"), base.requests));
    add("sim.epochs", "count", static_cast<double>(epochs));
    add("sim.cross_msgs_per_req", "count/req",
        ratio(static_cast<double>(cross), opt.requests));
    add("sim.shard_speedup", "x", ratio(shards1.runWallS, opt.runWallS));

    // Tracing cost: base configurations, traced vs untraced rounds.
    const Sums quiet = sumRuns(medianRound(untraced), baseConfigs());
    add("trace.overhead_pct", "%",
        overheadPct(base.setupS + base.runS, quiet.setupS + quiet.runS));

    for (Metric &w : workloadResults(wl, traced))
        m.push_back(w);
    return m;
}

// --- Output -----------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(ch) >= 0x20)
            out.push_back(ch);
    }
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hostMetadataJson(const Options &opt)
{
    std::string compiler =
#if defined(__clang__)
        "clang ";
#elif defined(__GNUC__)
        "gcc ";
#else
        "unknown ";
#endif
    compiler += __VERSION__;
    return std::string("{\"aes_impl\":\"")
           + obfusmem::crypto::aesImplName(
               obfusmem::crypto::Aes128::defaultImpl())
           + "\",\"cpu_features\":\""
           + jsonEscape(obfusmem::crypto::cpuFeatureSummary())
           + "\",\"nproc\":"
           + std::to_string(std::thread::hardware_concurrency())
           + ",\"compiler\":\"" + jsonEscape(compiler)
           + "\",\"build_type\":\"" + OBFBENCH_BUILD_TYPE
           + "\",\"commit\":\"" + jsonEscape(opt.commit) + "\"}";
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        if (m.applies)
            std::printf("  %-36s %18.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
}

std::string
resultLine(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &ms)
{
    std::string out = std::string("{\"correct\": ")
                      + (correct ? "true" : "false")
                      + ", \"attempted\": " + std::to_string(attempted)
                      + ", \"failed\": " + std::to_string(failed)
                      + ", \"metrics\": {";
    for (size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": "
               + number(ms[i].value) + ", \"unit\": \"" + ms[i].unit
               + "\"}";
    }
    return out + "}}";
}

// --- Rounds and checks ------------------------------------------------

/** Tracks checked operations, failures, and bit-identity across runs. */
struct Checker
{
    uint64_t ops = 0;
    uint64_t failed = 0;
    std::map<std::string, std::string> fingerprints;

    void
    fail(const std::string &what)
    {
        ++failed;
        std::fprintf(stderr, "FAIL %s\n", what.c_str());
    }

    void
    account(const ConfigRun &r)
    {
        ops += r.ops + 1;
        failed += r.failed;
        for (const std::string &f : r.failures)
            std::fprintf(stderr, "FAIL %s\n", f.c_str());
        auto [it, fresh] =
            fingerprints.emplace(r.spec->name, r.fingerprint);
        if (!fresh && it->second != r.fingerprint)
            fail(r.spec->name + ": simulated results differ between "
                 "rounds of one seed");
    }

    void
    account(const CryptoTiming &t)
    {
        ops += t.ops;
        failed += t.failed;
        if (t.failed)
            std::fprintf(stderr, "FAIL crypto: %llu MAC checks wrong\n",
                         static_cast<unsigned long long>(t.failed));
    }
};

Round
runRound(const Workload &wl, uint64_t seed, bool traced,
         SpanRecorder &spans, Checker &check)
{
    spans.setEnabled(traced);
    Round round;
    ScopedSpan span(spans, traced ? "round.traced" : "round.untraced",
                    wl.name);
    {
        ScopedSpan ref(spans, "reference", wl.name);
        round.slowdown = referenceCpuS(referenceOpsPerRound)
                         / referenceOpsPerRound / referenceSecondsPerOp;
    }
    for (const ConfigSpec &cs : wl.configs) {
        if (cs.ladder && !traced)
            continue;
        round.runs.push_back(runConfig(wl, cs, seed, spans));
        check.account(round.runs.back());
    }
    if (traced) {
        round.crypto = timeCrypto(seed, spans);
        check.account(round.crypto);
        // The rack's shards=1 and shards=2 runs must agree exactly.
        const ConfigRun *one = nullptr, *two = nullptr;
        for (const ConfigRun &r : round.runs) {
            if (r.spec->role == Role::OptShards1)
                one = &r;
            if (r.spec->role == Role::Opt && wl.rack)
                two = &r;
        }
        if (one && two) {
            ++check.ops;
            if (one->fingerprint != two->fingerprint)
                check.fail("shards=1 and shards=2 simulated results differ");
        }
    }
    spans.setEnabled(false);
    return round;
}

int
runBenchmark(const Options &opt)
{
    const Workload wl = makeWorkload(opt.workload);
    SpanRecorder spans;
    Checker check;
    std::vector<Round> untraced, traced;

    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    do {
        untraced.push_back(runRound(wl, opt.seed, false, spans, check));
        if (opt.trace)
            traced.push_back(runRound(wl, opt.seed, true, spans, check));
    } while (elapsed() < opt.seconds);

    std::printf("host %s\n", hostMetadataJson(opt).c_str());
    std::printf("workload %s seed %llu: %zu untraced + %zu traced rounds "
                "in %.1f s\n",
                wl.name.c_str(), static_cast<unsigned long long>(opt.seed),
                untraced.size(), traced.size(), elapsed());
    const std::vector<Metric> e2e = endToEnd(wl, untraced);
    printMetrics("end-to-end (host times: CPU, normalized to the "
                 "reference speed):",
                 e2e);
    printMetrics("same rates per wall-clock second (not gated):",
                 {{"req_per_s", "1/s", wallRate(untraced, baseConfigs())},
                  {"obfusmem_req_per_s", "1/s",
                   wallRate(untraced, byRole(Role::Opt))}});
    printMetrics("workload results:", workloadResults(wl, untraced));
    if (!wl.rack)
        std::printf("  (paper, Fig. 4 Avg: ObfusMem+Auth 10.9%%; this "
                    "model is calibrated, not validated, so no error "
                    "figure is given)\n");

    std::vector<Metric> layers;
    if (opt.trace) {
        layers = perLayer(wl, traced, untraced);
        printMetrics("per-layer (traced rounds):", layers);
        if (!opt.spansPath.empty()) {
            std::ofstream os(opt.spansPath);
            os << "{\"workload\":\"" << wl.name << "\",\"seed\":"
               << opt.seed << ",\"host\":" << hostMetadataJson(opt)
               << ",\"spans\":";
            spans.writeJson(os);
            os << "}\n";
            if (!os) {
                check.fail("cannot write spans to " + opt.spansPath);
            } else {
                std::printf("spans: %zu written to %s\n",
                            spans.all().size(), opt.spansPath.c_str());
            }
        }
    }

    const bool correct = check.failed == 0;
    std::printf("checked operations: %llu, failed: %llu\n",
                static_cast<unsigned long long>(check.ops),
                static_cast<unsigned long long>(check.failed));
    std::printf("%s\n", resultLine(correct, check.ops, check.failed,
                                   opt.trace ? layers : e2e)
                            .c_str());
    return correct ? 0 : 1;
}

/**
 * Determinism self-test: simulated results are bit-identical across
 * two runs of one seed and across rack shards=1/2, and they change
 * under the held-out seed.
 */
int
selfTest()
{
    SpanRecorder spans;
    unsigned failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };
    const uint64_t seed = 1;

    const Workload rack = makeWorkload("rack-reads");
    const ConfigSpec *opt = nullptr, *one = nullptr;
    for (const ConfigSpec &cs : rack.configs) {
        if (cs.role == Role::Opt)
            opt = &cs;
        if (cs.role == Role::OptShards1)
            one = &cs;
    }
    const ConfigRun a = runConfig(rack, *opt, seed, spans);
    const ConfigRun b = runConfig(rack, *opt, seed, spans);
    const ConfigRun s1 = runConfig(rack, *one, seed, spans);
    const ConfigRun h = runConfig(rack, *opt, heldOutSeed, spans);
    expect(a.failed == 0 && b.failed == 0 && s1.failed == 0
               && h.failed == 0,
           "rack runs pass their correctness checks");
    expect(a.fingerprint == b.fingerprint,
           "rack: two runs of one seed are bit-identical");
    expect(a.fingerprint == s1.fingerprint,
           "rack: shards=1 and shards=2 are bit-identical");
    expect(a.fingerprint != h.fingerprint,
           "rack: the held-out seed changes the results");

    const Workload cores = makeWorkload("spec-cores");
    const ConfigSpec *mcf = nullptr;
    for (const ConfigSpec &cs : cores.configs)
        if (cs.program == "mcf" && cs.role == Role::Opt)
            mcf = &cs;
    const ConfigRun c = runConfig(cores, *mcf, seed, spans);
    const ConfigRun d = runConfig(cores, *mcf, seed, spans);
    const ConfigRun e = runConfig(cores, *mcf, heldOutSeed, spans);
    expect(c.failed == 0 && d.failed == 0 && e.failed == 0,
           "spec-cores runs pass their correctness checks");
    expect(c.fingerprint == d.fingerprint,
           "spec-cores: two runs of one seed are bit-identical");
    expect(c.fingerprint != e.fingerprint,
           "spec-cores: the held-out seed changes the results");
    std::printf("selftest: %s\n", failures ? "FAIL" : "PASS");
    return failures ? 1 : 0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "[--spans PATH] [--commit SHA]\n"
                 "       %s --selftest\n"
                 "workloads:",
                 argv0, argv0);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--selftest") {
            opt.selftest = true;
        } else if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            opt.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--spans" && has_value) {
            opt.spansPath = argv[++i];
        } else if (arg == "--commit" && has_value) {
            opt.commit = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    if (opt.selftest)
        return selfTest();
    if (makeWorkload(opt.workload).name.empty() || !(opt.seconds > 0))
        return usage(argv[0]);
    return runBenchmark(opt);
}
