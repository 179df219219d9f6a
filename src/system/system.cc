/**
 * @file
 * System assembly.
 */

#include "system/system.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "cpu/trace_workload.hh"
#include "crypto/md5.hh"
#include "trust/boot.hh"
#include "util/logging.hh"
#include "util/serial.hh"

namespace obfusmem {

namespace {

/** "OBKNDv1\0" as a little-endian u64 checkpoint format tag. */
constexpr uint64_t kBackendMagic = 0x003176444e4b424fULL;

/** Deterministic per-channel session key (when not running boot). */
crypto::Aes128::Key
kdfChannelKey(uint64_t seed, unsigned channel)
{
    uint8_t msg[16];
    crypto::storeLe64(msg, seed);
    crypto::storeLe64(msg + 8, channel);
    crypto::Md5Digest d = crypto::Md5::digest(msg, sizeof(msg));
    crypto::Aes128::Key key;
    std::copy(d.begin(), d.end(), key.begin());
    return key;
}

} // namespace

System::System(const SystemConfig &config)
    : cfg(config), root("system", nullptr)
{
    // `eq` is declared before `root`, so its stats group attaches here
    // rather than from an init-list.
    eq.attachStats(root);
    pktPool.attachStats(root);
    map = std::make_unique<AddressMap>(cfg.capacityBytes, cfg.channels);
    store = std::make_unique<BackingStore>(cfg.capacityBytes);

    buildMemoryPath();

    // A coreless system (a rack socket) is driven through
    // memorySink() alone, so it builds no cache model.
    if (cfg.buildCores) {
        caches = std::make_unique<CacheHierarchy>(
            "system.caches", eq, &root, cfg.hierarchy, *memoryPath);
        buildCores();
    }
}

System::~System() = default;

void
System::buildMemoryPath()
{
    const BackendInfo &info = backendInfo(cfg.mode);
    const bool obfus_mode = info.obfuscatedWire;

    std::vector<ChannelBus *> bus_ptrs;
    std::vector<PcmController *> pcm_ptrs;
    if (info.needsBuses) {
        if (cfg.attachObserver)
            busObserver = std::make_unique<BusObserver>(cfg.channels);
        if (cfg.attachAuditor) {
            check::TraceAuditor::Params ap;
            ap.channels = cfg.channels;
            ap.uniformPackets =
                obfus_mode && cfg.obfusmem.uniformPackets;
            ap.channelScheme = obfus_mode
                                   ? cfg.obfusmem.channelScheme
                                   : ChannelScheme::None;
            // Under injected faults with recovery on, recoverable
            // endpoint incidents are the protocol working as designed;
            // the structural wire invariants are still enforced.
            ap.tolerateRecoverableIncidents =
                obfus_mode && cfg.obfusmem.recovery.enabled
                && cfg.faults.any();
            // A retry stall is channel-local (one channel waits out
            // its timeout while the others keep their normal traffic),
            // so solo-busy buckets are expected in proportion to the
            // injected fault rate. Relax the timing-correlation
            // tolerance; shape, length, freshness and counter checks
            // stay strict.
            if (ap.tolerateRecoverableIncidents) {
                ap.maxSoloBucketFraction =
                    std::max(ap.maxSoloBucketFraction, 0.5);
            }
            traceAuditor = std::make_unique<check::TraceAuditor>(ap);
        }
        if (obfus_mode && cfg.faults.any()) {
            faultInjector =
                std::make_unique<FaultInjector>(cfg.faults);
            faultInjector->regStats(root);
        }
        for (unsigned c = 0; c < cfg.channels; ++c) {
            buses.push_back(std::make_unique<ChannelBus>(
                "system.bus" + std::to_string(c), eq, &root, c,
                cfg.bus));
            if (busObserver)
                buses.back()->attachProbe(busObserver.get());
            if (traceAuditor)
                buses.back()->attachProbe(traceAuditor.get());
            if (faultInjector)
                buses.back()->setFaultInjector(faultInjector.get());
            pcms.push_back(std::make_unique<PcmController>(
                "system.pcm" + std::to_string(c), eq, &root, c, *map,
                cfg.pcm, *store));
            bus_ptrs.push_back(buses.back().get());
            pcm_ptrs.push_back(pcms.back().get());
        }
    }

    // Session keys for the ObfusMem modes.
    if (obfus_mode) {
        if (cfg.runBootProtocol) {
            Random boot_rng(cfg.seed ^ 0xb007b007ULL);
            trust::Manufacturer proc_maker("ProcCorp", 256, boot_rng);
            trust::Manufacturer mem_maker("MemCorp", 256, boot_rng);
            trust::Component proc("cpu0", proc_maker, 256, true,
                                  boot_rng);
            trust::Component mem("dimm0", mem_maker, 256, true,
                                 boot_rng);
            proc.peerKeys().burn(mem.publicKey());
            mem.peerKeys().burn(proc.publicKey());
            trust::BootResult boot = trust::BootProtocol::run(
                trust::BootApproach::TrustedIntegrator, proc, mem,
                cfg.channels, boot_rng);
            fatal_if(!boot.success, "boot protocol failed: ",
                     boot.failureReason);
            channelKeys = boot.channelKeys;
        } else {
            for (unsigned c = 0; c < cfg.channels; ++c)
                channelKeys.push_back(kdfChannelKey(cfg.seed, c));
        }
    }

    auto plain = [&]() -> PlainPath & {
        plainPath = std::make_unique<PlainPath>(
            "system.plainPath", eq, &root, *map, bus_ptrs, pcm_ptrs,
            pktPool, PlainPath::Params{});
        return *plainPath;
    };
    // The on-chip memory-encryption engine, keyed apart from the
    // channel session keys.
    auto encrypt = [&](MemSink &inner) -> MemSink & {
        encEngine = std::make_unique<MemoryEncryptionEngine>(
            "system.encEngine", eq, &root, cfg.encryption, inner,
            cfg.dataRegionBytes(), cfg.counterRegionBase(),
            cfg.bmtRegionBase(), kdfChannelKey(cfg.seed, 0xff));
        return *encEngine;
    };

    // Each mode's components, in the order their stats register.
    switch (cfg.mode) {
      case ProtectionMode::Unprotected:
        memoryPath = &plain();
        break;
      case ProtectionMode::EncryptionOnly:
        memoryPath = &encrypt(plain());
        break;
      case ProtectionMode::ObfusMem:
      case ProtectionMode::ObfusMemAuth: {
        ObfusMemParams om = cfg.obfusmem;
        om.auth = cfg.mode == ProtectionMode::ObfusMemAuth;

        // Reserved per-channel dummy block: the very top row of the
        // channel, far above every workload/metadata region.
        std::vector<uint64_t> dummy_addrs;
        for (unsigned c = 0; c < cfg.channels; ++c) {
            DecodedAddr loc;
            loc.channel = c;
            loc.rank = map->ranksPerChannel() - 1;
            loc.bank = map->banksPerRank() - 1;
            loc.row = map->rowsPerBank() - 1;
            loc.column = map->blocksPerRow() - 1;
            dummy_addrs.push_back(map->encode(loc));
        }

        obfusProc = std::make_unique<ObfusMemProcSide>(
            "system.obfusProc", eq, &root, om, *map, channelKeys,
            bus_ptrs, dummy_addrs);
        for (unsigned c = 0; c < cfg.channels; ++c) {
            obfusMem.push_back(std::make_unique<ObfusMemMemSide>(
                "system.obfusMem" + std::to_string(c), eq, &root, om, c,
                channelKeys[c], *buses[c], *pcms[c], *store,
                dummy_addrs[c]));
            // Production wiring is direct pointers: message delivery
            // is a virtual-free static call, no std::function hop.
            // (Tests that need to intercept frames still use
            // setRequestTarget/setReplyTarget, which override these.)
            obfusProc->setMemSide(c, obfusMem.back().get());
            obfusMem.back()->setProcSide(obfusProc.get());
        }
        if (traceAuditor) {
            obfusProc->setAuditHook(traceAuditor.get());
            for (auto &side : obfusMem)
                side->setAuditHook(traceAuditor.get());
        }
        memoryPath = &encrypt(*obfusProc);
        break;
      }
      case ProtectionMode::OramFixed:
        fixedOram = std::make_unique<OramFixedLatency>(
            "system.oram", eq, &root, cfg.oramFixed, *store);
        memoryPath = fixedOram.get();
        break;
      case ProtectionMode::OramDetailed: {
        OramDetailed::Params op = cfg.oramDetailed;
        if (op.treeBase == 0)
            op.treeBase = cfg.oramTreeBase();
        PlainPath &inner = plain();
        detailedOram = std::make_unique<OramDetailed>(
            "system.oram", eq, &root, op, inner);
        memoryPath = detailedOram.get();
        break;
      }
      case ProtectionMode::FlatOram: {
        FlatOramController::Params fp = cfg.flatOram;
        if (fp.arrayBase == 0)
            fp.arrayBase = cfg.oramTreeBase();
        PlainPath &inner = plain();
        flatOram = std::make_unique<FlatOramController>(
            "system.oram", eq, &root, fp, inner);
        memoryPath = flatOram.get();
        break;
      }
      case ProtectionMode::WriteOnlyOram: {
        WriteOnlyOramController::Params wp = cfg.writeOnlyOram;
        if (wp.areaBase == 0)
            wp.areaBase = cfg.oramTreeBase();
        PlainPath &inner = plain();
        writeOnlyOram = std::make_unique<WriteOnlyOramController>(
            "system.oram", eq, &root, wp, inner);
        memoryPath = writeOnlyOram.get();
        break;
      }
    }
}

void
System::buildCores()
{
    if (!cfg.traceFile.empty()) {
        std::vector<MemOp> ops = loadTraceFile(cfg.traceFile);
        for (unsigned c = 0; c < cfg.cores; ++c) {
            cores.push_back(std::make_unique<TraceCore>(
                "system.core" + std::to_string(c), eq, &root,
                cfg.core,
                WorkloadGenerator::fromTrace(ops, cfg.traceBaseCpi),
                *caches, static_cast<int>(c), cfg.instrPerCore,
                [this](Tick finish) {
                    ++coresFinished;
                    lastFinish = std::max(lastFinish, finish);
                }));
        }
        return;
    }

    const BenchmarkProfile &profile =
        BenchmarkProfile::byName(cfg.benchmark);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        WorkloadGenerator gen(profile, cfg.workloadBase(c),
                              cfg.workloadRegionBytes(),
                              cfg.seed * 1000003 + c);
        cores.push_back(std::make_unique<TraceCore>(
            "system.core" + std::to_string(c), eq, &root, cfg.core,
            std::move(gen), *caches, static_cast<int>(c),
            cfg.instrPerCore, [this](Tick finish) {
                ++coresFinished;
                lastFinish = std::max(lastFinish, finish);
            }));
    }

    // Warm up, modelling the paper's fast-forward phase. First fill
    // the L3 with the stream blocks each core just passed (dirty at
    // the store fraction, so steady-state writeback traffic starts
    // immediately)...
    uint64_t l3_blocks = cfg.hierarchy.l3.sizeBytes / blockBytes;
    uint64_t per_core = (l3_blocks * 9 / 10) / cfg.cores;
    Random warm_rng(cfg.seed ^ 0x3a3a3a3aULL);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        WorkloadGenerator probe(profile, cfg.workloadBase(c),
                                cfg.workloadRegionBytes(),
                                cfg.seed * 1000003 + c);
        uint64_t region_blocks = probe.streamRegionBlocks();
        uint64_t start = probe.streamStartBlock();
        for (uint64_t i = 1; i <= per_core; ++i) {
            uint64_t block =
                (start + region_blocks - i) % region_blocks;
            uint64_t addr =
                probe.streamRegionBase() + block * blockBytes;
            bool dirty = warm_rng.chance(profile.storeFraction);
            caches->preloadShared(addr, store->read(addr), dirty);
        }
    }

    // ...then the hot working sets, which must stay resident.
    for (unsigned c = 0; c < cfg.cores; ++c) {
        uint64_t base = cfg.workloadBase(c);
        for (uint64_t off = 0; off < profile.hotBytes;
             off += blockBytes) {
            caches->preload(static_cast<int>(c), base + off,
                            store->read(base + off));
        }
    }
}

System::RunResult
System::run()
{
    panic_if(cores.empty(),
             "System::run() on a coreless system (buildCores=false); "
             "drive the memory path directly instead");
    for (auto &core : cores)
        core->start();

    // Run until every core is done, then drain stragglers.
    while (coresFinished < cores.size() && !eq.empty())
        eq.step();
    panic_if(coresFinished < cores.size(),
             "event queue drained before cores finished");
    eq.run();

    RunResult result;
    result.execTicks = lastFinish;
    result.instructions = 0;
    for (auto &core : cores)
        result.instructions += core->instructionsRetired();
    result.llcMisses = caches->llcMissCount();

    double cycles =
        static_cast<double>(lastFinish) / cfg.core.period;
    result.ipc = cycles > 0
                     ? (static_cast<double>(result.instructions)
                        / cores.size())
                           / cycles
                     : 0.0;
    result.mpki = result.instructions > 0
                      ? 1000.0 * result.llcMisses / result.instructions
                      : 0.0;
    // Average per-core gap between memory requests (demand misses
    // plus writebacks), matching Table 1's characterization.
    double mem_reqs_per_core =
        (result.llcMisses
         + caches->stats().scalarValue("writebacks"))
        / static_cast<double>(cores.size());
    result.avgGapNs = mem_reqs_per_core > 0
                          ? ticksToNs(result.execTicks)
                                / mem_reqs_per_core
                          : 0.0;

    for (auto &pcm : pcms) {
        result.cellWrites += pcm->cellBlockWrites();
        result.pcmEnergyPj += pcm->energyPj();
    }
    if (!buses.empty()) {
        double util = 0;
        for (auto &bus : buses)
            util += bus->utilization();
        result.busUtilization = util / buses.size();
    }
    return result;
}

CacheHierarchy &
System::cacheModel(const char *caller)
{
    panic_if(!caches, "System::", caller,
             " on a coreless system (buildCores=false), which has no "
             "cache hierarchy; drive memorySink() directly instead");
    return *caches;
}

CacheHierarchy &
System::hierarchy()
{
    return cacheModel("hierarchy()");
}

void
System::timedLoad(int core, uint64_t addr, CacheHierarchy::DoneCb cb)
{
    cacheModel("timedLoad()").load(core, addr, eq.curTick(),
                                   std::move(cb));
}

void
System::timedStore(int core, uint64_t addr, const DataBlock &data,
                   CacheHierarchy::DoneCb cb)
{
    cacheModel("timedStore()").store(core, addr, data, eq.curTick(),
                                     std::move(cb));
}

void
System::flushAndDrain()
{
    CacheHierarchy &model = cacheModel("flushAndDrain()");
    bool flushed = false;
    model.flushAll(eq.curTick(), [&flushed](Tick) {
        flushed = true;
    });
    eq.run();
    panic_if(!flushed, "flush did not complete");
}

DataBlock
System::functionalRead(uint64_t addr)
{
    addr = blockAlign(addr);
    DataBlock out;
    if (caches && caches->peekBlock(addr, out))
        return out;

    // The ORAM structures are authoritative for their logical blocks
    // (the backing store holds the physical layout, not the data).
    if (detailedOram)
        return detailedOram->oram().read(addr / blockBytes);
    if (flatOram) {
        return flatOram->oram().read(
            (addr / blockBytes) % flatOram->oram().capacityBlocks());
    }
    if (writeOnlyOram) {
        return writeOnlyOram->oram().read(
            (addr / blockBytes) % writeOnlyOram->oram().capacityBlocks());
    }
    if (encEngine && addr < cfg.dataRegionBytes())
        return encEngine->debugDecrypt(addr, store->read(addr));
    return store->read(addr);
}

void
System::serializeBackend(std::ostream &os) const
{
    serial::putU64(os, kBackendMagic);
    serial::putU64(os, static_cast<uint64_t>(cfg.mode));
    if (detailedOram)
        detailedOram->oram().serialize(os);
    else if (flatOram)
        flatOram->oram().serialize(os);
    else if (writeOnlyOram)
        writeOnlyOram->oram().serialize(os);
}

bool
System::restoreBackend(std::istream &is)
{
    if (!serial::expectU64(is, kBackendMagic)
        || !serial::expectU64(is, static_cast<uint64_t>(cfg.mode))) {
        return false;
    }
    if (detailedOram)
        return detailedOram->oram().deserialize(is);
    if (flatOram)
        return flatOram->oram().deserialize(is);
    if (writeOnlyOram)
        return writeOnlyOram->oram().deserialize(is);
    return true;
}

// ---------------------------------------------------------------------
// Protection-mode name table
// ---------------------------------------------------------------------

const std::vector<BackendInfo> &
allBackendInfos()
{
    static const std::vector<BackendInfo> infos = {
        {ProtectionMode::Unprotected, "unprotected",
         /*needsBuses=*/true, /*obfuscatedWire=*/false},
        {ProtectionMode::EncryptionOnly, "encryption-only", true, false},
        {ProtectionMode::ObfusMem, "obfusmem", true, true},
        {ProtectionMode::ObfusMemAuth, "obfusmem+auth", true, true},
        {ProtectionMode::OramFixed, "oram-fixed", false, false},
        {ProtectionMode::OramDetailed, "oram-detailed", true, false},
        {ProtectionMode::FlatOram, "flat-oram", true, false},
        {ProtectionMode::WriteOnlyOram, "wo-oram", true, false},
    };
    return infos;
}

const BackendInfo &
backendInfo(ProtectionMode mode)
{
    for (const auto &info : allBackendInfos()) {
        if (info.mode == mode)
            return info;
    }
    panic("no backend registered for mode ",
          static_cast<int>(mode));
}

const BackendInfo *
backendInfoByName(std::string_view name)
{
    for (const auto &info : allBackendInfos()) {
        if (name == info.name)
            return &info;
    }
    // Documented aliases (older bench spellings).
    if (name == "encryption")
        return &backendInfo(ProtectionMode::EncryptionOnly);
    if (name == "obfusmem-auth")
        return &backendInfo(ProtectionMode::ObfusMemAuth);
    if (name == "write-only-oram")
        return &backendInfo(ProtectionMode::WriteOnlyOram);
    return nullptr;
}

const char *
protectionModeName(ProtectionMode mode)
{
    return backendInfo(mode).name;
}

} // namespace obfusmem
