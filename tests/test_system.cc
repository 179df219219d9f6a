/**
 * @file
 * Full-system integration tests across every protection mode.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "system/system.hh"

using namespace obfusmem;

namespace {

SystemConfig
quickConfig(ProtectionMode mode, const std::string &bench = "milc")
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = bench;
    cfg.cores = 2;
    cfg.instrPerCore = 20000;
    if (mode == ProtectionMode::OramDetailed) {
        // Size the tree for the workload: the functional structure
        // keeps every distinct block ever touched, so a tree whose
        // capacity is below that count inflates the stash without
        // bound (and now fail-stops, as a real controller would
        // deadlock). levels=14 holds ~65k blocks, far above what
        // 2x3000 instructions touch.
        cfg.oramDetailed.oram.levels = 14;
        cfg.oramDetailed.oram.stashLimit = 500;
        cfg.instrPerCore = 3000;
    }
    if (mode == ProtectionMode::FlatOram
        || mode == ProtectionMode::WriteOnlyOram) {
        cfg.instrPerCore = 3000;
    }
    return cfg;
}

class AllModes : public ::testing::TestWithParam<ProtectionMode>
{
};

} // namespace

TEST_P(AllModes, WorkloadRunsToCompletion)
{
    System sys(quickConfig(GetParam()));
    auto result = sys.run();
    EXPECT_EQ(result.instructions,
              sys.config().cores * sys.config().instrPerCore);
    EXPECT_GT(result.execTicks, 0u);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.llcMisses, 0u);
}

TEST_P(AllModes, DataSurvivesTheFullPath)
{
    System sys(quickConfig(GetParam()));
    DataBlock data;
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(0xc0 ^ (i * 7));
    sys.timedStore(0, 0x8000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0x8000), data);
}

TEST_P(AllModes, StatsDumpMentionsCoreComponents)
{
    System sys(quickConfig(GetParam()));
    sys.run();
    std::ostringstream oss;
    sys.dumpStats(oss);
    EXPECT_NE(oss.str().find("system.caches.llcMisses"),
              std::string::npos);
    EXPECT_NE(oss.str().find("system.core0.loads"),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllModes,
    ::testing::Values(ProtectionMode::Unprotected,
                      ProtectionMode::EncryptionOnly,
                      ProtectionMode::ObfusMem,
                      ProtectionMode::ObfusMemAuth,
                      ProtectionMode::OramFixed,
                      ProtectionMode::OramDetailed,
                      ProtectionMode::FlatOram,
                      ProtectionMode::WriteOnlyOram),
    [](const ::testing::TestParamInfo<ProtectionMode> &info) {
        std::string name = protectionModeName(info.param);
        for (char &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

TEST(SystemInvariants, MpkiIndependentOfProtection)
{
    // Access-pattern obfuscation must not change what the caches do.
    auto mpki = [](ProtectionMode mode) {
        System sys(quickConfig(mode));
        return sys.run().mpki;
    };
    double base = mpki(ProtectionMode::Unprotected);
    EXPECT_NEAR(mpki(ProtectionMode::ObfusMemAuth), base, 1e-9);
    EXPECT_NEAR(mpki(ProtectionMode::OramFixed), base, 1e-9);
}

TEST(SystemInvariants, ProtectionCostOrdering)
{
    // The paper's headline: unprotected <= ObfusMem variants << ORAM.
    auto time = [](ProtectionMode mode) {
        System sys(quickConfig(mode, "soplex"));
        return sys.run().execTicks;
    };
    Tick base = time(ProtectionMode::Unprotected);
    Tick obfus_auth = time(ProtectionMode::ObfusMemAuth);
    Tick oram = time(ProtectionMode::OramFixed);
    EXPECT_LE(base, obfus_auth);
    EXPECT_LT(obfus_auth * 3, oram); // ~order of magnitude in paper
}

TEST(SystemInvariants, OramWriteAmplificationObfusMemNone)
{
    SystemConfig cfg = quickConfig(ProtectionMode::ObfusMemAuth);
    System obfus(cfg);
    auto obfus_result = obfus.run();

    System base(quickConfig(ProtectionMode::Unprotected));
    auto base_result = base.run();

    System oram(quickConfig(ProtectionMode::OramFixed));
    oram.run();

    // ObfusMem: zero write amplification (equal up to end-of-run
    // row-buffer state).
    EXPECT_LT(obfus_result.cellWrites,
              base_result.cellWrites * 1.15 + 200);
    // ORAM (fixed model): ~100 blocks written per access.
    uint64_t oram_writes = oram.oramFixed()->blocksWritten();
    uint64_t accesses = oram.oramFixed()->accessCount();
    EXPECT_EQ(oram_writes, accesses * 100);
}

TEST(SystemInvariants, CapacityOverheadComparison)
{
    // Table 4: ORAM >= 100% storage overhead, ObfusMem zero (one
    // reserved dummy block per channel).
    PathOram::Params oram_params;
    oram_params.levels = 24;
    PathOram oram(oram_params);
    EXPECT_GE(oram.physicalBlocks(), 2 * oram.capacityBlocks());

    SystemConfig cfg = quickConfig(ProtectionMode::ObfusMemAuth);
    cfg.channels = 4;
    uint64_t reserved = cfg.channels * blockBytes;
    EXPECT_LT(static_cast<double>(reserved) / cfg.capacityBytes,
              1e-6);
}

TEST(SystemInvariants, AverageGapTracksMissRate)
{
    System fast(quickConfig(ProtectionMode::Unprotected, "hmmer"));
    auto low_traffic = fast.run();
    System heavy(quickConfig(ProtectionMode::Unprotected, "soplex"));
    auto high_traffic = heavy.run();
    EXPECT_GT(low_traffic.avgGapNs, high_traffic.avgGapNs);
}

TEST(SystemInvariants, DeterministicAcrossRuns)
{
    System a(quickConfig(ProtectionMode::ObfusMemAuth));
    System b(quickConfig(ProtectionMode::ObfusMemAuth));
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_EQ(ra.execTicks, rb.execTicks);
    EXPECT_EQ(ra.llcMisses, rb.llcMisses);
    EXPECT_EQ(ra.cellWrites, rb.cellWrites);
}

TEST(SystemInvariants, SeedChangesChangeTiming)
{
    SystemConfig cfg = quickConfig(ProtectionMode::Unprotected);
    System a(cfg);
    cfg.seed = 1234;
    System b(cfg);
    EXPECT_NE(a.run().execTicks, b.run().execTicks);
}

TEST(SystemConfig, MemoryLayoutRegionsDisjoint)
{
    SystemConfig cfg;
    // Workloads < counters < BMT < ORAM tree < capacity.
    uint64_t workload_end =
        cfg.workloadBase(cfg.cores - 1) + cfg.workloadRegionBytes();
    EXPECT_LE(workload_end, cfg.counterRegionBase());
    EXPECT_LT(cfg.counterRegionBase(), cfg.bmtRegionBase());
    EXPECT_LT(cfg.bmtRegionBase(), cfg.oramTreeBase());
    EXPECT_LT(cfg.oramTreeBase(), cfg.capacityBytes);
}

TEST(SystemConfig, ModeNamesAreDistinct)
{
    std::set<std::string> names;
    for (const auto &info : allBackendInfos())
        names.insert(info.name);
    EXPECT_EQ(names.size(), allBackendInfos().size());
    EXPECT_EQ(names.size(), 8u);
}

TEST(SystemConfig, BackendRegistryRoundTrips)
{
    for (const auto &info : allBackendInfos()) {
        EXPECT_EQ(backendInfo(info.mode).name, info.name);
        const BackendInfo *by_name =
            backendInfoByName(info.name);
        ASSERT_NE(by_name, nullptr);
        EXPECT_EQ(by_name->mode, info.mode);
    }
    // Documented aliases resolve too; junk does not.
    EXPECT_EQ(backendInfoByName("encryption")->mode,
              ProtectionMode::EncryptionOnly);
    EXPECT_EQ(backendInfoByName("obfusmem-auth")->mode,
              ProtectionMode::ObfusMemAuth);
    EXPECT_EQ(backendInfoByName("no-such-backend"), nullptr);
}
