/**
 * @file
 * Workload definitions and the per-configuration runner.
 */

#include "workloads.hh"

#include <array>
#include <chrono>
#include <ctime>
#include <memory>
#include <set>
#include <sstream>

#include "bench_common.hh"
#include "crypto/ctr_mode.hh"
#include "obfusmem/mac_engine.hh"
#include "system/topology.hh"
#include "util/random.hh"

namespace obfbench {

using namespace obfusmem;

namespace {

/** Simulated instructions per core on spec-cores (fig4's default). */
constexpr uint64_t specInstrPerCore = 150 * 1000;
/** Requests per tenant on the racks. */
constexpr uint64_t rackRequestsPerTenant = 5000;
constexpr unsigned rackSockets = 4;
constexpr unsigned rackChannelsPerSocket = 4;
constexpr unsigned rackTenantsPerSocket = 2;
/** Blocks the round-trip probe writes and reads back per System. */
constexpr unsigned probeBlocks = 16;
/**
 * Probe block indices stay below the smallest ORAM capacity, which
 * aliases addresses modulo its block count (flat/wo: 2^15 blocks).
 */
constexpr uint64_t probeBlockSpan = 1ull << 15;

/** Written after each timed loop so the loop is not elided. */
volatile uint8_t padSink = 0;
volatile uint64_t referenceSink = 0;

HostTime
hostNow()
{
    timespec cpu{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    HostTime t;
    t.wallS = std::chrono::duration<double>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
    t.cpuS = static_cast<double>(cpu.tv_sec) + 1e-9 * cpu.tv_nsec;
    return t;
}

/** Measures a HostTime from construction to elapsed(). */
class HostStopwatch
{
  public:
    HostStopwatch() : start(hostNow()) {}

    HostTime
    elapsed() const
    {
        HostTime now = hostNow();
        return {now.wallS - start.wallS, now.cpuS - start.cpuS};
    }

  private:
    HostTime start;
};

ConfigSpec
spec(std::string name, Role role, ProtectionMode mode,
     ChannelScheme scheme, bool ladder = false, unsigned shards = 2)
{
    ConfigSpec s;
    s.name = std::move(name);
    s.role = role;
    s.mode = mode;
    s.scheme = scheme;
    s.ladder = ladder;
    s.shards = shards;
    return s;
}

/** Every numeric line of a System's text stats dump, by full name. */
std::map<std::string, double>
dumpValues(const System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    std::map<std::string, double> out;
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name, value;
        if (!(ls >> name >> value))
            continue;
        char *end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        if (end && *end == '\0')
            out[name] = v;
    }
    return out;
}

/**
 * Sum one System's simulated counters into @p c. Exact counters come
 * from rootStats().scalarValue(); the few averages the stats package
 * keeps (queue delay, occupancy, miss latency, ORAM stash and probe
 * means) are only reachable through the text dump.
 */
void
addSystemCounters(System &sys, std::map<std::string, double> &c)
{
    statistics::Group &g = sys.rootStats();
    const std::map<std::string, double> avg = dumpValues(sys);
    auto scalar = [&](const std::string &key, const std::string &stat) {
        double v = g.scalarValue(stat);
        c[key] += v;
        return v;
    };
    auto average = [&](const std::string &stat) {
        auto it = avg.find("system." + stat);
        return it == avg.end() ? 0.0 : it->second;
    };

    scalar("events", "eventq.eventsExecuted");
    scalar("overflowPromotions", "eventq.overflowPromotions");

    const unsigned channels = sys.config().channels;
    c["channels"] += channels;
    for (unsigned ch = 0; ch < channels; ++ch) {
        const std::string bus = "bus" + std::to_string(ch) + ".";
        const std::string pcm = "pcm" + std::to_string(ch) + ".";
        double msgs = scalar("bus.messages", bus + "messages");
        scalar("bus.bytes", bus + "bytes");
        scalar("bus.busyTicks", bus + "busyTicks");
        c["bus.queueDelayNsW"] += average(bus + "queueDelayNs") * msgs;
        double reqs = scalar("pcm.readReqs", pcm + "readReqs")
                      + scalar("pcm.writeReqs", pcm + "writeReqs");
        scalar("pcm.rowHits", pcm + "rowHits");
        scalar("pcm.rowMisses", pcm + "rowMisses");
        c["pcm.queueOccupancyW"] += average(pcm + "queueOccupancy") * reqs;
    }

    if (sys.config().buildCores) {
        for (const char *s : {"l1Hits", "l2Hits", "writebacks",
                              "mshrStalls"})
            scalar(std::string("caches.") + s,
                   std::string("caches.") + s);
        double misses = scalar("caches.llcMisses", "caches.llcMisses");
        c["caches.missLatencyNsW"] +=
            average("caches.missLatencyNs") * misses;
    }

    if (sys.encryptionEngine()) {
        for (const char *s : {"ctrHits", "ctrMisses", "padMemoHits",
                              "padMemoMisses", "blocksEncrypted",
                              "blocksDecrypted", "integrityViolations"})
            scalar(std::string("enc.") + s,
                   std::string("encEngine.") + s);
    }

    if (sys.procSide()) {
        for (const char *s :
             {"realReads", "realWrites", "pairedDummies",
              "channelFillGroups", "padsUsed", "padPrefetchHits",
              "padPrefetchMisses", "padsPrefetched", "pairSubstitutions",
              "retransmits", "macFailures", "headerDesyncs",
              "quarantines"})
            scalar(std::string("proc.") + s,
                   std::string("obfusProc.") + s);
        for (unsigned ch = 0; ch < channels; ++ch) {
            const std::string side = "obfusMem" + std::to_string(ch) + ".";
            for (const char *s :
                 {"realWrites", "padsUsed", "padPrefetchHits",
                  "padPrefetchMisses", "padsPrefetched", "macFailures",
                  "headerDesyncs"})
                scalar(std::string("memside.") + s, side + s);
        }
    }

    if (sys.oramDetailed() || sys.flatOramCtl() || sys.writeOnlyOramCtl()) {
        scalar("oram.accesses", "oram.accesses");
        scalar("oram.physicalTransfers", "oram.physicalTransfers");
        c["oram.controllers"] += 1;
        c["oram.stashPeakSum"] += average("oram.stashPeakOccupancy");
        c["oram.writeProbesSum"] += average("oram.writeProbes");
    }
}

/** Integrity counters that must stay zero after the probe. */
std::vector<std::string>
integrityFailures(System &sys, const std::string &where)
{
    std::vector<std::string> out;
    if (!sys.procSide())
        return out;
    statistics::Group &g = sys.rootStats();
    auto check = [&](const std::string &stat) {
        double v = g.scalarValue(stat);
        if (v != 0)
            out.push_back(where + " " + stat + "=" + std::to_string(v));
    };
    for (const char *s : {"macFailures", "headerDesyncs", "quarantines"})
        check(std::string("obfusProc.") + s);
    for (unsigned ch = 0; ch < sys.config().channels; ++ch)
        for (const char *s : {"macFailures", "headerDesyncs"})
            check("obfusMem" + std::to_string(ch) + "." + s);
    return out;
}

/**
 * Store probeBlocks seeded blocks through the protection path's entry
 * point, drain, load them back and compare. Returns the number of
 * failed operations (2 per block attempted: store ack, load match).
 */
uint64_t
probeRoundTrip(System &sys, uint64_t seed,
               std::vector<std::string> &failures,
               const std::string &where)
{
    Random rng(seed);
    std::set<uint64_t> picked;
    std::vector<uint64_t> addrs;
    std::vector<DataBlock> data(probeBlocks);
    while (addrs.size() < probeBlocks) {
        uint64_t blk = rng.randUnder(probeBlockSpan);
        if (picked.insert(blk).second)
            addrs.push_back(blk * blockBytes);
    }

    unsigned acked = 0;
    for (unsigned i = 0; i < probeBlocks; ++i) {
        rng.fillBytes(data[i].data(), data[i].size());
        MemPacket pkt;
        pkt.cmd = MemCmd::Write;
        pkt.addr = addrs[i];
        pkt.data = data[i];
        pkt.issueTick = sys.eventQueue().curTick();
        sys.memorySink().access(std::move(pkt),
                                [&acked](MemPacket &&) { ++acked; });
    }
    sys.eventQueue().run();

    unsigned matched = 0, returned = 0;
    for (unsigned i = 0; i < probeBlocks; ++i) {
        MemPacket pkt;
        pkt.cmd = MemCmd::Read;
        pkt.addr = addrs[i];
        pkt.issueTick = sys.eventQueue().curTick();
        sys.memorySink().access(
            std::move(pkt), [&, i](MemPacket &&resp) {
                ++returned;
                if (resp.data == data[i])
                    ++matched;
            });
    }
    sys.eventQueue().run();

    uint64_t failed = (probeBlocks - acked) + (probeBlocks - matched);
    if (failed)
        failures.push_back(where + " probe: " + std::to_string(acked)
                           + " stores acked, " + std::to_string(returned)
                           + " loads returned, " + std::to_string(matched)
                           + " matched of " + std::to_string(probeBlocks));
    return failed;
}

std::string
fingerprintOf(const ConfigRun &r)
{
    std::ostringstream os;
    os << std::hexfloat << r.requests << ' ' << r.instructions << ' '
       << r.ticks << ' ' << r.latencyNs << ' ' << r.events << ' '
       << r.crossMessages;
    for (const auto &[k, v] : r.counters)
        os << ' ' << k << '=' << v;
    return os.str();
}

void
runSpecConfig(const ConfigSpec &cs, uint64_t seed, SpanRecorder &spans,
              ConfigRun &out)
{
    SystemConfig cfg = bench::makeConfig(cs.mode, cs.program);
    cfg.instrPerCore = specInstrPerCore;
    cfg.seed = seed;

    std::unique_ptr<System> sys;
    {
        ScopedSpan span(spans, "system.construct", cs.name);
        HostStopwatch watch;
        sys = std::make_unique<System>(cfg);
        out.setup = watch.elapsed();
    }
    System::RunResult res;
    {
        ScopedSpan span(spans, "system.run", cs.name);
        HostStopwatch watch;
        res = sys->run();
        out.run = watch.elapsed();
    }

    addSystemCounters(*sys, out.counters);
    out.instructions = res.instructions;
    out.ticks = res.execTicks;
    const double misses = out.counters["caches.llcMisses"];
    out.requests = static_cast<uint64_t>(
        misses + out.counters["caches.writebacks"]);
    out.latencyNs =
        misses > 0 ? out.counters["caches.missLatencyNsW"] / misses : 0;
    out.events = static_cast<uint64_t>(out.counters["events"]);

    const uint64_t expected = uint64_t(cfg.cores) * cfg.instrPerCore;
    out.ops += out.requests;
    if (res.instructions != expected) {
        ++out.failed;
        out.failures.push_back(cs.name + ": retired "
                               + std::to_string(res.instructions) + " of "
                               + std::to_string(expected)
                               + " instructions");
    }

    {
        ScopedSpan span(spans, "system.probe", cs.name);
        out.ops += 2 * probeBlocks;
        out.failed += probeRoundTrip(*sys, seed ^ 0x9b0be5eedULL,
                                     out.failures, cs.name);
    }
    for (auto &f : integrityFailures(*sys, cs.name)) {
        ++out.failed;
        out.failures.push_back(f);
    }
}

void
runRackConfig(const Workload &wl, const ConfigSpec &cs, uint64_t seed,
              SpanRecorder &spans, ConfigRun &out)
{
    TopologyConfig tc;
    tc.sockets = rackSockets;
    tc.channelsPerSocket = rackChannelsPerSocket;
    tc.tenantsPerSocket = rackTenantsPerSocket;
    tc.mode = cs.mode;
    tc.channelScheme = cs.scheme;
    tc.seed = seed;
    tc.shards = cs.shards;

    TenantParams tp;
    tp.requests = rackRequestsPerTenant;
    tp.outstanding = 4;
    tp.storeFraction = wl.storeFraction;
    tp.remoteFraction = 0.05;

    std::unique_ptr<MultiTenantTopology> rack;
    {
        ScopedSpan span(spans, "topology.construct", cs.name);
        HostStopwatch watch;
        rack = std::make_unique<MultiTenantTopology>(tc, tp);
        out.setup = watch.elapsed();
    }
    MultiTenantTopology::Result res;
    {
        ScopedSpan span(spans, "topology.run", cs.name);
        HostStopwatch watch;
        res = rack->run();
        out.run = watch.elapsed();
    }

    for (unsigned s = 0; s < rack->sockets(); ++s)
        addSystemCounters(rack->socket(s), out.counters);
    out.requests = res.requestsCompleted;
    out.ticks = res.lastCompletionTick;
    out.latencyNs = res.avgLatencyNs;
    out.events = res.eventsExecuted;
    out.epochs = res.epochs;
    out.crossMessages = res.crossMessages;

    const uint64_t expected =
        uint64_t(tc.totalTenants()) * tp.requests;
    out.ops += expected;
    if (res.requestsCompleted != expected) {
        out.failed += expected > res.requestsCompleted
                          ? expected - res.requestsCompleted
                          : 1;
        out.failures.push_back(cs.name + ": completed "
                               + std::to_string(res.requestsCompleted)
                               + " of " + std::to_string(expected)
                               + " requests");
    }

    ScopedSpan span(spans, "topology.probe", cs.name);
    for (unsigned s = 0; s < rack->sockets(); ++s) {
        const std::string where =
            cs.name + "/socket" + std::to_string(s);
        out.ops += 2 * probeBlocks;
        out.failed += probeRoundTrip(rack->socket(s),
                                     (seed ^ 0x9b0be5eedULL) + s,
                                     out.failures, where);
        for (auto &f : integrityFailures(rack->socket(s), where)) {
            ++out.failed;
            out.failures.push_back(f);
        }
    }
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"spec-cores", "rack-reads", "rack-writes"};
}

Workload
makeWorkload(const std::string &name)
{
    Workload wl;
    using PM = ProtectionMode;
    using CS = ChannelScheme;
    if (name == "spec-cores") {
        wl.name = name;
        for (const std::string &prog : bench::benchmarkNames()) {
            std::vector<ConfigSpec> row = {
                spec(prog + "/unprotected", Role::Unprotected,
                     PM::Unprotected, CS::None),
                spec(prog + "/encryption-only", Role::EncryptionOnly,
                     PM::EncryptionOnly, CS::None),
                spec(prog + "/obfusmem", Role::ObfusMem, PM::ObfusMem,
                     CS::Opt, true),
                spec(prog + "/obfusmem+auth", Role::Opt,
                     PM::ObfusMemAuth, CS::Opt),
            };
            for (ConfigSpec &s : row) {
                s.program = prog;
                wl.configs.push_back(s);
            }
        }
    } else if (name == "rack-reads" || name == "rack-writes") {
        wl.name = name;
        wl.rack = true;
        const bool writes = name == "rack-writes";
        wl.storeFraction = writes ? 0.9 : 0.3;
        wl.configs = {
            spec("unprotected", Role::Unprotected, PM::Unprotected,
                 CS::None),
            spec("encryption-only", Role::EncryptionOnly,
                 PM::EncryptionOnly, CS::None, true),
            spec("obfusmem-opt", Role::ObfusMem, PM::ObfusMem, CS::Opt,
                 true),
            spec("obfusmem+auth-opt", Role::Opt, PM::ObfusMemAuth,
                 CS::Opt),
            spec("obfusmem+auth-opt-shards1", Role::OptShards1,
                 PM::ObfusMemAuth, CS::Opt, true, 1),
        };
        if (writes) {
            wl.configs.push_back(spec("oram-detailed", Role::PathOram,
                                      PM::OramDetailed, CS::None));
            wl.configs.push_back(spec("flat-oram", Role::FlatOram,
                                      PM::FlatOram, CS::None));
            wl.configs.push_back(spec("wo-oram", Role::WoOram,
                                      PM::WriteOnlyOram, CS::None));
        } else {
            wl.configs.push_back(spec("obfusmem+auth-unopt", Role::Unopt,
                                      PM::ObfusMemAuth, CS::Unopt));
        }
    }
    return wl;
}

ConfigRun
runConfig(const Workload &wl, const ConfigSpec &cs, uint64_t seed,
          SpanRecorder &spans)
{
    ConfigRun out;
    out.spec = &cs;
    ScopedSpan span(spans, "config", cs.name);
    if (wl.rack)
        runRackConfig(wl, cs, seed, spans, out);
    else
        runSpecConfig(cs, seed, spans, out);
    out.fingerprint = fingerprintOf(out);
    return out;
}

double
referenceCpuS(uint64_t ops)
{
    HostStopwatch watch;
    std::map<uint64_t, uint64_t> table;
    uint64_t x = 0x2545f4914f6cdd1dULL, acc = 0;
    for (uint64_t i = 0; i < ops; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t key = x % 50000;
        table[key] += i;
        auto it = table.lower_bound(key ^ 1);
        acc += it == table.end() ? 0 : it->second;
    }
    referenceSink = acc;
    return watch.elapsed().cpuS;
}

CryptoTiming
timeCrypto(uint64_t seed, SpanRecorder &spans)
{
    CryptoTiming t;
    Random rng(seed ^ 0xc0ffeeULL);
    crypto::Aes128::Key key{};
    rng.fillBytes(key.data(), key.size());

    // Pads: the request-group width the endpoints batch (six pads
    // per request group, see crypto/ctr_mode.hh).
    constexpr size_t groupPads = 6;
    constexpr uint64_t padGroups = 40 * 1000;
    crypto::AesCtr ctr(key, rng.next());
    std::array<crypto::Block128, groupPads> pads{};
    uint8_t sink = 0;
    {
        ScopedSpan span(spans, "crypto.genPads", "aes-ctr");
        HostStopwatch watch;
        for (uint64_t g = 0; g < padGroups; ++g) {
            ctr.genPads(g * groupPads, pads.data(), groupPads);
            sink ^= pads[g % groupPads][g % 16];
        }
        t.nsPerPad =
            watch.elapsed().cpuS * 1e9 / (padGroups * groupPads);
    }

    // MACs: both messages of a group MACed in one batch, then each
    // verified, as the sender and receiver endpoints do.
    constexpr uint64_t macGroups = 20 * 1000;
    MacEngine mac{MacEngine::Params{}};
    std::array<WireHeader, 2> hdrs{};
    std::array<uint64_t, 2> counters{};
    std::array<crypto::Md5Digest, 2> tags{};
    uint64_t bad = 0;
    {
        ScopedSpan span(spans, "crypto.mac", "md5");
        HostStopwatch watch;
        for (uint64_t g = 0; g < macGroups; ++g) {
            for (unsigned i = 0; i < 2; ++i) {
                hdrs[i].cmd = i ? MemCmd::Write : MemCmd::Read;
                hdrs[i].addr = blockAlign(rng.next());
                hdrs[i].tag = static_cast<uint16_t>(g);
                counters[i] = 6 * g + i;
            }
            mac.computeBatch(hdrs.data(), counters.data(), tags.data(),
                             2);
            for (unsigned i = 0; i < 2; ++i)
                bad += mac.verify(hdrs[i], counters[i], tags[i]) ? 0 : 1;
        }
        t.nsPerMac = watch.elapsed().cpuS * 1e9 / (macGroups * 2);
    }
    // A tampered tag must be rejected.
    tags[0][0] ^= 1;
    bad += mac.verify(hdrs[0], counters[0], tags[0]) ? 1 : 0;

    t.ops = macGroups * 2 + 1;
    t.failed = bad;
    padSink = sink; // keeps the pad loop observable
    return t;
}

} // namespace obfbench
