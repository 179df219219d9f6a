/**
 * @file
 * Cross-mode conformance suite: every protection mode System
 * assembles must (a) return the data written through it, checked
 * against a reference flat store under randomized traffic, (b) keep
 * its structural invariants, (c) checkpoint/restore through
 * System::serializeBackend/restoreBackend, rejecting every truncated
 * checkpoint, and (d) produce bit-identical wire traces whether the
 * bench runner uses 1 or 4 worker threads. Every System here is
 * coreless, as rack sockets are; two plain tests check that such a
 * System builds no cache model and refuses the cache entry points.
 *
 * A CI backend-matrix leg narrows the parameterized sweep to one mode
 * with a --gtest_filter on the instantiation name (the mode's name with
 * '-' and '+' spelled '_', e.g. flat_oram).
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep.hh"
#include "system/system.hh"
#include "system/topology.hh"
#include "util/random.hh"

using namespace obfusmem;

namespace {

/** Logical test window: block ids [0, kWindowBlocks). */
constexpr uint64_t kWindowBlocks = 256;

SystemConfig
smallConfig(ProtectionMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.buildCores = false;
    // Small functional geometries so the suite stays fast while the
    // window still fits every structure without aliasing:
    // levels=8 holds ~1022 blocks, the write-only structures 1024.
    cfg.oramDetailed.oram.levels = 8;
    cfg.oramDetailed.oram.stashLimit = 1000;
    cfg.flatOram.oram.capacityBlocks = 1 << 10;
    cfg.writeOnlyOram.oram.capacityBlocks = 1 << 10;
    return cfg;
}

DataBlock
writeTimed(System &sys, uint64_t addr, const DataBlock &data)
{
    MemPacket pkt;
    pkt.cmd = MemCmd::Write;
    pkt.addr = addr;
    pkt.data = data;
    pkt.coreId = -1;
    pkt.issueTick = sys.eventQueue().curTick();
    bool done = false;
    sys.memorySink().access(std::move(pkt),
                            [&done](MemPacket &&) { done = true; });
    sys.eventQueue().run();
    EXPECT_TRUE(done) << "write to " << addr << " never completed";
    return data;
}

DataBlock
readTimed(System &sys, uint64_t addr)
{
    MemPacket pkt;
    pkt.cmd = MemCmd::Read;
    pkt.addr = addr;
    pkt.coreId = -1;
    pkt.issueTick = sys.eventQueue().curTick();
    DataBlock out{};
    bool done = false;
    sys.memorySink().access(std::move(pkt),
                            [&out, &done](MemPacket &&resp) {
                                out = resp.data;
                                done = true;
                            });
    sys.eventQueue().run();
    EXPECT_TRUE(done) << "read of " << addr << " never completed";
    return out;
}

/**
 * A fixed deterministic op sequence (used by the trace-identity
 * tests, where the two runs must issue the same logical traffic).
 */
void
runFixedSequence(System &sys)
{
    Random rng(77);
    for (int op = 0; op < 120; ++op) {
        uint64_t addr =
            rng.randUnder(kWindowBlocks) * blockBytes;
        if (rng.chance(0.5)) {
            DataBlock d;
            rng.fillBytes(d.data(), d.size());
            writeTimed(sys, addr, d);
        } else {
            readTimed(sys, addr);
        }
    }
}

/** Wire trace of the fixed sequence under the given configuration. */
std::string
traceOfFixedSequence(SystemConfig cfg)
{
    System sys(cfg);
    WireTraceRecorder rec;
    for (auto &bus : sys.channelBuses())
        bus->attachProbe(&rec);
    runFixedSequence(sys);
    return rec.text();
}

void
checkStructuralInvariants(System &sys)
{
    if (auto *detailed = sys.oramDetailed()) {
        EXPECT_TRUE(detailed->oram().checkInvariant());
    }
    if (auto *flat = sys.flatOramCtl()) {
        EXPECT_TRUE(flat->oram().checkInvariant());
    }
    if (auto *wo = sys.writeOnlyOramCtl()) {
        EXPECT_TRUE(wo->oram().checkInvariant());
    }
    if (auto *auditor = sys.auditor()) {
        EXPECT_EQ(auditor->totalViolations(), 0u);
    }
}

class BackendConformance
    : public ::testing::TestWithParam<ProtectionMode>
{
};

} // namespace

TEST_P(BackendConformance, RandomizedTrafficMatchesReferenceStore)
{
    System sys(smallConfig(GetParam()));
    Random rng(11);
    std::map<uint64_t, DataBlock> reference;

    for (int op = 0; op < 400; ++op) {
        uint64_t addr =
            rng.randUnder(kWindowBlocks) * blockBytes;
        if (rng.chance(0.5)) {
            DataBlock d;
            rng.fillBytes(d.data(), d.size());
            writeTimed(sys, addr, d);
            reference[addr] = d;
        } else if (reference.count(addr)) {
            ASSERT_EQ(readTimed(sys, addr), reference[addr])
                << "op " << op << " addr " << addr;
        }
    }

    // Everything written is also visible through the functional
    // (untimed, decrypting) path.
    for (const auto &[addr, data] : reference)
        EXPECT_EQ(sys.functionalRead(addr), data)
            << "addr " << addr;

    checkStructuralInvariants(sys);
}

TEST_P(BackendConformance, SerializeRestoreRoundTrip)
{
    SystemConfig cfg = smallConfig(GetParam());
    System a(cfg);
    Random rng(13);
    std::map<uint64_t, DataBlock> reference;
    for (int op = 0; op < 200; ++op) {
        uint64_t addr =
            rng.randUnder(kWindowBlocks) * blockBytes;
        DataBlock d;
        rng.fillBytes(d.data(), d.size());
        writeTimed(a, addr, d);
        reference[addr] = d;
    }

    std::stringstream snap;
    a.serializeBackend(snap);
    const std::string full = snap.str();

    // The restore target holds data of its own, so a rejected restore
    // that had already overwritten part of it would show.
    System b(cfg);
    Random b_rng(29);
    for (int op = 0; op < 64; ++op) {
        DataBlock d;
        b_rng.fillBytes(d.data(), d.size());
        writeTimed(b, b_rng.randUnder(kWindowBlocks) * blockBytes, d);
    }
    auto window = [&b]() {
        std::vector<DataBlock> blocks;
        for (uint64_t id = 0; id < kWindowBlocks; ++id)
            blocks.push_back(b.functionalRead(id * blockBytes));
        return blocks;
    };
    const std::vector<DataBlock> before = window();

    // A truncated checkpoint never restores, and a rejected restore
    // leaves every block as it was: every strict prefix cut at a
    // field (8-byte) boundary is rejected without effect.
    for (size_t cut = 0; cut < full.size(); cut += 8) {
        std::istringstream prefix(full.substr(0, cut));
        EXPECT_FALSE(b.restoreBackend(prefix))
            << "prefix of " << cut << " / " << full.size() << " bytes";
        ASSERT_TRUE(window() == before)
            << "rejected prefix of " << cut << " / " << full.size()
            << " bytes changed the live state";
    }
    // A full restore after the rejected ones still recovers the state.
    std::istringstream whole(full);
    ASSERT_TRUE(b.restoreBackend(whole));

    // Modes whose functional state lives in the ORAM structure must
    // resolve every block identically after restore; in those modes
    // the backing store holds zeros at logical addresses, so a miss
    // cannot pass. The other modes keep their data in the backing
    // store (possibly encrypted in place): they restore only their
    // format tag, and checkpointing them means checkpointing the
    // substrate.
    const bool self_contained =
        a.oramDetailed() || a.flatOramCtl() || a.writeOnlyOramCtl();
    if (self_contained) {
        for (const auto &[addr, data] : reference)
            EXPECT_EQ(b.functionalRead(addr), data) << "addr " << addr;
    }

    // The restored system keeps serving timed traffic correctly.
    DataBlock fresh;
    for (size_t i = 0; i < fresh.size(); ++i)
        fresh[i] = static_cast<uint8_t>(0xa5 ^ i);
    writeTimed(b, 3 * blockBytes, fresh);
    EXPECT_EQ(readTimed(b, 3 * blockBytes), fresh);
    checkStructuralInvariants(b);

    // A snapshot from one mode does not restore into another.
    SystemConfig other_cfg = smallConfig(
        GetParam() == ProtectionMode::Unprotected
            ? ProtectionMode::EncryptionOnly
            : ProtectionMode::Unprotected);
    System c(other_cfg);
    std::stringstream snap2;
    a.serializeBackend(snap2);
    EXPECT_FALSE(c.restoreBackend(snap2));
}

TEST_P(BackendConformance, WireTraceIdenticalAcrossBenchJobs)
{
    SystemConfig cfg = smallConfig(GetParam());
    if (!backendInfo(cfg.mode).needsBuses)
        GTEST_SKIP() << "backend models latency without buses";

    // The bench runner's parallel map must not perturb simulated
    // behavior: each index builds an isolated System, so the traces
    // are bit-identical whether 1 or 4 worker threads execute them.
    auto run = [&cfg](size_t) { return traceOfFixedSequence(cfg); };
    std::vector<std::string> serial =
        runner::parallelIndexMap(4, 1, run);
    std::vector<std::string> threaded =
        runner::parallelIndexMap(4, 4, run);

    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].empty());
        EXPECT_EQ(serial[i], threaded[i]) << "index " << i;
    }
    EXPECT_EQ(serial[0], serial[3]);
}

TEST(CorelessSystem, BuildsNoCacheModel)
{
    // smallConfig builds a System without cores, as every rack socket
    // is built: it has no cache hierarchy, hence no caches stats, and
    // functionalRead resolves blocks without one.
    DataBlock data;
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(0x3c ^ i);
    for (const BackendInfo &info : allBackendInfos()) {
        System sys(smallConfig(info.mode));
        std::ostringstream stats;
        sys.dumpStats(stats);
        EXPECT_EQ(stats.str().find("system.caches"), std::string::npos)
            << info.name;
        EXPECT_NE(stats.str().find("system."), std::string::npos)
            << info.name;
        writeTimed(sys, 5 * blockBytes, data);
        EXPECT_EQ(sys.functionalRead(5 * blockBytes), data) << info.name;
    }
}

TEST(CorelessSystemDeathTest, CacheEntryPointsPanic)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    EXPECT_DEATH(sys.timedLoad(0, 0x1000, [](Tick) {}),
                 "System::timedLoad\\(\\) on a coreless system");
    EXPECT_DEATH(sys.timedStore(0, 0x1000, DataBlock{}, [](Tick) {}),
                 "System::timedStore\\(\\) on a coreless system");
    EXPECT_DEATH(sys.flushAndDrain(),
                 "System::flushAndDrain\\(\\) on a coreless system");
    EXPECT_DEATH(sys.hierarchy(),
                 "System::hierarchy\\(\\) on a coreless system");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BackendConformance,
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
