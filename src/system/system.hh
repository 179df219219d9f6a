/**
 * @file
 * Top-level simulated system: cores, caches, the configured
 * protection path, channel buses, PCM, and the attacker's observer.
 * This is the main entry point of the library's public API.
 *
 * System owns every protection mode's components directly; one switch
 * over the mode in buildMemoryPath() builds the mode's subset and
 * leaves the others null.
 */

#ifndef OBFUSMEM_SYSTEM_SYSTEM_HH
#define OBFUSMEM_SYSTEM_SYSTEM_HH

#include <iosfwd>
#include <memory>
#include <vector>

#include "check/trace_auditor.hh"
#include "cpu/core.hh"
#include "mem/backing_store.hh"
#include "mem/packet_pool.hh"
#include "obfusmem/mem_side.hh"
#include "obfusmem/observer.hh"
#include "obfusmem/plain_path.hh"
#include "obfusmem/proc_side.hh"
#include "system/config.hh"

namespace obfusmem {

/**
 * A fully wired simulated machine.
 */
class System
{
  public:
    /** Summary of one simulation run. */
    struct RunResult
    {
        Tick execTicks = 0;
        uint64_t instructions = 0;
        uint64_t llcMisses = 0;
        /** Per-core IPC (cores are homogeneous). */
        double ipc = 0;
        /** Demand LLC misses per kilo-instruction. */
        double mpki = 0;
        /** Average gap between LLC misses in nanoseconds. */
        double avgGapNs = 0;
        /** PCM cell-write blocks (wear). */
        uint64_t cellWrites = 0;
        /** PCM array energy (normalized pJ). */
        double pcmEnergyPj = 0;
        /** Mean data-bus utilization across channels. */
        double busUtilization = 0;

        double execMs() const
        {
            return static_cast<double>(execTicks) / tickPerMs;
        }
    };

    explicit System(const SystemConfig &config);
    ~System();

    /** Run every core to completion and drain the memory system. */
    RunResult run();

    /**
     * Issue a timed load/store directly (without cores); useful for
     * tests and examples that drive the memory system by hand. These,
     * flushAndDrain() and hierarchy() go through the cache model, so
     * they panic on a coreless system (buildCores=false), which
     * builds none.
     */
    void timedLoad(int core, uint64_t addr, CacheHierarchy::DoneCb cb);
    void timedStore(int core, uint64_t addr, const DataBlock &data,
                    CacheHierarchy::DoneCb cb);

    /** Write back all dirty cache state and drain the event queue. */
    void flushAndDrain();

    /**
     * Functional read with decryption: caches first (when there are
     * any), then memory via the mode's crypto (test/verification
     * path).
     */
    DataBlock functionalRead(uint64_t addr);

    /**
     * Checkpoint the protection path's functional state: a format
     * tag and the mode, then the ORAM structure's payload (position
     * map, stash, tree contents, RNG stream) in the ORAM modes. The
     * other modes keep their data in the backing store and write only
     * the tag.
     */
    void serializeBackend(std::ostream &os) const;

    /**
     * Restore from serializeBackend() output; false on a malformed or
     * truncated stream, or one from another mode or geometry.
     */
    bool restoreBackend(std::istream &is);

    // --- Component access (tests, benches, examples) -----------------
    //
    // A mode's components are non-null only in the modes that use
    // them; memSides() is empty outside the ObfusMem modes.

    EventQueue &eventQueue() { return eq; }
    /**
     * The configured protection path's entry point (what the LLC
     * talks to). External drivers — the multi-tenant topology's
     * tenant generators — issue timed requests here directly,
     * modelling an LLC-miss stream without the core/cache machinery.
     */
    MemSink &memorySink() { return *memoryPath; }
    statistics::Group &rootStats() { return root; }
    CacheHierarchy &hierarchy();
    BackingStore &backingStore() { return *store; }
    const AddressMap &addressMap() const { return *map; }
    BusObserver *observer() { return busObserver.get(); }
    check::TraceAuditor *auditor() { return traceAuditor.get(); }
    FaultInjector *faults() { return faultInjector.get(); }
    MemoryEncryptionEngine *encryptionEngine() { return encEngine.get(); }
    ObfusMemProcSide *procSide() { return obfusProc.get(); }
    std::vector<std::unique_ptr<ObfusMemMemSide>> &memSides()
    {
        return obfusMem;
    }
    std::vector<std::unique_ptr<PcmController>> &pcmControllers()
    {
        return pcms;
    }
    std::vector<std::unique_ptr<ChannelBus>> &channelBuses()
    {
        return buses;
    }
    OramFixedLatency *oramFixed() { return fixedOram.get(); }
    OramDetailed *oramDetailed() { return detailedOram.get(); }
    FlatOramController *flatOramCtl() { return flatOram.get(); }
    WriteOnlyOramController *writeOnlyOramCtl()
    {
        return writeOnlyOram.get();
    }
    TraceCore &core(unsigned i) { return *cores[i]; }
    const SystemConfig &config() const { return cfg; }

    /** Dump all statistics to a stream. */
    void dumpStats(std::ostream &os) const { root.dump(os); }

  private:
    void buildMemoryPath();
    void buildCores();
    /** The cache model; panics, naming @p caller, if there is none. */
    CacheHierarchy &cacheModel(const char *caller);

    SystemConfig cfg;
    EventQueue eq;
    PacketPool pktPool;
    statistics::Group root;

    std::unique_ptr<AddressMap> map;
    std::unique_ptr<BackingStore> store;
    std::vector<std::unique_ptr<ChannelBus>> buses;
    std::vector<std::unique_ptr<PcmController>> pcms;
    std::unique_ptr<BusObserver> busObserver;
    std::unique_ptr<check::TraceAuditor> traceAuditor;
    std::unique_ptr<FaultInjector> faultInjector;

    std::vector<crypto::Aes128::Key> channelKeys;

    // --- The mode's protection path (null when unused) ---------------
    std::unique_ptr<PlainPath> plainPath;
    std::unique_ptr<ObfusMemProcSide> obfusProc;
    std::vector<std::unique_ptr<ObfusMemMemSide>> obfusMem;
    std::unique_ptr<MemoryEncryptionEngine> encEngine;
    std::unique_ptr<OramFixedLatency> fixedOram;
    std::unique_ptr<OramDetailed> detailedOram;
    std::unique_ptr<FlatOramController> flatOram;
    std::unique_ptr<WriteOnlyOramController> writeOnlyOram;

    /** The sink the cache hierarchy talks to. */
    MemSink *memoryPath = nullptr;

    /** Null on a coreless system. */
    std::unique_ptr<CacheHierarchy> caches;
    std::vector<std::unique_ptr<TraceCore>> cores;
    unsigned coresFinished = 0;
    Tick lastFinish = 0;
};

} // namespace obfusmem

#endif // OBFUSMEM_SYSTEM_SYSTEM_HH
