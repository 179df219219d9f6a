/**
 * @file
 * ObfusMem end-to-end tests: functional correctness through the
 * obfuscated channel, the security invariants an attacker-observer
 * can check, dummy-request handling, counter synchronization, and
 * tamper detection.
 */

#include <gtest/gtest.h>

#include "system/system.hh"

using namespace obfusmem;

namespace {

SystemConfig
smallConfig(ProtectionMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = "milc";
    cfg.instrPerCore = 20000;
    cfg.cores = 2;
    return cfg;
}

DataBlock
patternBlock(uint8_t seed)
{
    DataBlock b;
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<uint8_t>(seed + i * 13);
    return b;
}

} // namespace

TEST(ObfusMem, StoreFlushReadRoundTrip)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    DataBlock data = patternBlock(0x10);
    bool stored = false;
    sys.timedStore(0, 0x2000, data, [&](Tick) { stored = true; });
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_TRUE(stored);
    EXPECT_EQ(sys.functionalRead(0x2000), data);
}

TEST(ObfusMem, ManyBlocksSurviveFullPath)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    for (uint8_t i = 0; i < 32; ++i) {
        sys.timedStore(i % 2, 0x10000 + i * 64ull, patternBlock(i),
                       [](Tick) {});
    }
    sys.eventQueue().run();
    sys.flushAndDrain();
    for (uint8_t i = 0; i < 32; ++i)
        EXPECT_EQ(sys.functionalRead(0x10000 + i * 64ull),
                  patternBlock(i))
            << unsigned(i);
}

TEST(ObfusMem, MemoryHoldsDoublyUnreadableCiphertext)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    DataBlock data = patternBlock(0x20);
    sys.timedStore(0, 0x3000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_NE(sys.backingStore().read(0x3000), data);
}

TEST(ObfusMem, TimedLoadReturnsAfterRealisticLatency)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    Tick done = 0;
    sys.timedLoad(0, 0x40000000, [&](Tick t) { done = t; });
    sys.eventQueue().run();
    EXPECT_GT(done, 50 * tickPerNs);
    EXPECT_LT(done, 2000 * tickPerNs);
}

TEST(ObfusMem, EveryAccessLooksLikeReadThenWrite)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    System sys(cfg);
    sys.run();

    BusObserver *obs = sys.observer();
    ASSERT_NE(obs, nullptr);
    ASSERT_GT(obs->requestMessages(), 100u);
    // The pairing invariant: apparent reads == apparent writes.
    EXPECT_EQ(obs->apparentReads(), obs->apparentWrites());
    EXPECT_LT(obs->typeImbalance(), 1e-9);
}

// Every request group carries exactly one read (real or dummy), and
// the memory side answers each read with exactly one reply frame:
// ObfusMemMemSide::sendReadReply is a burst of one, flushed as it
// closes, so replies are neither lost nor held back.
TEST(ObfusMem, OneReplyOnTheBusPerRequestGroup)
{
    struct DirCounter : BusProbe
    {
        uint64_t toMemory = 0;
        uint64_t toProcessor = 0;
        void
        observe(const BusSnoop &snoop) override
        {
            ++(snoop.dir == BusDir::ToMemory ? toMemory : toProcessor);
        }
    };
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    DirCounter probe;
    for (auto &bus : sys.channelBuses())
        bus->attachProbe(&probe);
    sys.run();

    auto &ps = *sys.procSide();
    const double groups = ps.stats().scalarValue("realReads")
                          + ps.stats().scalarValue("realWrites")
                          + ps.stats().scalarValue("channelFillGroups");
    ASSERT_GT(groups, 100.0);
    EXPECT_EQ(ps.stats().scalarValue("retransmits"), 0.0);
    // Split scheme: a header-only read plus a data write per group.
    EXPECT_EQ(static_cast<double>(probe.toMemory), 2 * groups);
    EXPECT_EQ(static_cast<double>(probe.toProcessor), groups);
}

TEST(ObfusMem, UnprotectedBusLeaksRequestTypes)
{
    System sys(smallConfig(ProtectionMode::Unprotected));
    sys.run();
    BusObserver *obs = sys.observer();
    // Reads outnumber writes on a real memory bus.
    EXPECT_GT(obs->typeImbalance(), 0.1);
}

TEST(ObfusMem, WireAddressesNeverRepeat)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    sys.run();
    BusObserver *obs = sys.observer();
    ASSERT_GT(obs->requestMessages(), 100u);
    // Counter-mode header encryption: temporal reuse is invisible.
    EXPECT_LT(obs->addrReuseFraction(), 0.01);
    EXPECT_LE(obs->hottestAddrCount(), 2u);
}

namespace {

/**
 * Drive a temporally-reusing pattern onto the bus: each block is
 * fetched (store miss -> RFO read) and later written back, so the
 * same plaintext address crosses the wires twice.
 */
void
driveReusePattern(System &sys)
{
    for (int i = 0; i < 64; ++i) {
        sys.timedStore(0, 0x20000000 + i * 64ull, patternBlock(i),
                       [](Tick) {});
    }
    sys.eventQueue().run();
    sys.flushAndDrain();
}

} // namespace

TEST(ObfusMem, UnprotectedBusLeaksTemporalReuse)
{
    System sys(smallConfig(ProtectionMode::Unprotected));
    driveReusePattern(sys);
    // Fetch + writeback of a block show the same address twice: an
    // observer can link them (and flushes of the warmed cache repeat
    // the effect at scale).
    EXPECT_GE(sys.observer()->hottestAddrCount(), 2u);
}

TEST(ObfusMem, EncryptionOnlyStillLeaksAccessPattern)
{
    // The paper's core motivation: memory encryption alone does not
    // hide the address stream.
    System sys(smallConfig(ProtectionMode::EncryptionOnly));
    driveReusePattern(sys);
    EXPECT_GE(sys.observer()->hottestAddrCount(), 2u);
}

TEST(ObfusMem, SamePatternInvisibleUnderObfusMem)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    driveReusePattern(sys);
    // Counter-mode header encryption: no wire address repeats
    // (beyond negligible 64-bit collisions).
    EXPECT_LE(sys.observer()->hottestAddrCount(), 1u);
    EXPECT_LT(sys.observer()->addrReuseFraction(), 1e-6);
}

TEST(ObfusMem, DummiesDroppedAtMemory)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    System sys(cfg);
    sys.run();

    auto &mem_side = sys.memSides()[0];
    auto &ps = *sys.procSide();
    // Every real read pairs with a write: a real buffered write when
    // one substitutes, a droppable dummy otherwise; every real write
    // is preceded by a dummy read. Fixed dummies never touch PCM.
    EXPECT_EQ(mem_side->stats().scalarValue("dummyWritesDropped"),
              ps.stats().scalarValue("realReads")
                  - ps.stats().scalarValue("pairSubstitutions"));
    EXPECT_EQ(mem_side->stats().scalarValue("dummyReadsAnswered"),
              ps.stats().scalarValue("realWrites")
                  + ps.stats().scalarValue("channelFillGroups"));
    EXPECT_EQ(mem_side->stats().scalarValue("dummyPcmAccesses"), 0.0);
}

TEST(ObfusMem, NoWriteAmplification)
{
    // Zero extra PCM writes versus the unprotected system running
    // the same workload (Table 4: write amplification "None").
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    System protected_sys(cfg);
    auto protected_result = protected_sys.run();

    cfg.mode = ProtectionMode::Unprotected;
    System base_sys(cfg);
    auto base_result = base_sys.run();

    // Identical up to end-of-run row-buffer state (timing changes
    // which dirty rows have been evicted when the run stops); the
    // point is the absence of ORAM's ~100x amplification.
    EXPECT_LT(protected_result.cellWrites,
              base_result.cellWrites * 1.15 + 200);
    EXPECT_GT(protected_result.cellWrites + 200.0,
              base_result.cellWrites * 0.85);
}

TEST(ObfusMem, CountersStaySynchronized)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    sys.run();
    EXPECT_EQ(sys.memSides()[0]->desyncEvents(), 0u);
    EXPECT_EQ(sys.memSides()[0]->tamperDetections(), 0u);
    EXPECT_EQ(sys.procSide()->desyncEvents(), 0u);
    EXPECT_EQ(sys.procSide()->tamperDetections(), 0u);
}

TEST(ObfusMem, DroppedMessageDetectedAsDesync)
{
    // Model an attacker deleting a request: the memory-side counter
    // no longer matches, so every subsequent message fails. Recovery
    // off: this test pins down the legacy fail-stop semantics.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.recovery.enabled = false;
    System sys(cfg);
    DataBlock data = patternBlock(1);
    sys.timedStore(0, 0x5000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();

    sys.memSides()[0]->skewRequestCounter(6); // one dropped group
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();
    // The request decrypts to garbage at the memory: no reply, and
    // the incident is counted (DoS, not silent corruption).
    EXPECT_FALSE(completed);
    EXPECT_GE(sys.memSides()[0]->desyncEvents()
                  + sys.memSides()[0]->tamperDetections(),
              1u);
}

TEST(ObfusMem, ReplayedReplyDetected)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.recovery.enabled = false; // pin fail-stop semantics
    System sys(cfg);
    sys.procSide()->skewResponseCounter(0, 5); // one lost reply
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();
    EXPECT_FALSE(completed);
    EXPECT_GE(sys.procSide()->desyncEvents()
                  + sys.procSide()->tamperDetections(),
              1u);
}

TEST(ObfusMem, PadAccountingMatchesPaperRecipe)
{
    // 6 pads per request group + 5 per reply on each side
    // (Sec. 5.2's energy analysis counts these).
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    sys.run();
    auto &ps = *sys.procSide();
    double groups = ps.stats().scalarValue("realReads")
                    + ps.stats().scalarValue("realWrites")
                    + ps.stats().scalarValue("channelFillGroups");
    double replies = ps.stats().scalarValue("realReads")
                     + ps.stats().scalarValue("realWrites")
                     + ps.stats().scalarValue("channelFillGroups")
                     - ps.stats().scalarValue("forwardedFromWriteQueue")
                     - ps.stats().scalarValue("realFillSubstitutions");
    (void)replies;
    EXPECT_GE(ps.padsGenerated(),
              static_cast<uint64_t>(groups
                                    * countersPerRequestGroup));
}

TEST(ObfusMem, BootProtocolKeysWork)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.runBootProtocol = true;
    System sys(cfg);
    DataBlock data = patternBlock(0x42);
    sys.timedStore(0, 0x7000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0x7000), data);
    EXPECT_EQ(sys.memSides()[0]->desyncEvents(), 0u);
}

TEST(ObfusMem, AuthCostsMoreThanNoAuth)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMem);
    cfg.instrPerCore = 50000;
    System no_auth(cfg);
    auto r1 = no_auth.run();

    cfg.mode = ProtectionMode::ObfusMemAuth;
    System with_auth(cfg);
    auto r2 = with_auth.run();
    EXPECT_GE(r2.execTicks, r1.execTicks);
}

class DummyPolicySweep
    : public ::testing::TestWithParam<DummyPolicy>
{
};

TEST_P(DummyPolicySweep, FunctionalUnderAllPolicies)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.dummyPolicy = GetParam();
    System sys(cfg);
    DataBlock data = patternBlock(0x33);
    sys.timedStore(0, 0x9000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0x9000), data);

    // And a short workload still completes with synchronized state.
    auto result = sys.run();
    EXPECT_GT(result.instructions, 0u);
    EXPECT_EQ(sys.memSides()[0]->desyncEvents(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, DummyPolicySweep,
                         ::testing::Values(DummyPolicy::Fixed,
                                           DummyPolicy::Original,
                                           DummyPolicy::Random));

TEST(ObfusMem, NonFixedPoliciesCostPcmAccesses)
{
    // Observation 2: only the fixed-address design allows dropping.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.dummyPolicy = DummyPolicy::Original;
    System sys(cfg);
    sys.run();
    EXPECT_GT(
        sys.memSides()[0]->stats().scalarValue("dummyPcmAccesses"),
        0.0);
}

TEST(ObfusMem, OriginalPolicyAmplifiesWrites)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.dummyPolicy = DummyPolicy::Fixed;
    System fixed(cfg);
    auto fixed_result = fixed.run();

    cfg.obfusmem.dummyPolicy = DummyPolicy::Original;
    System original(cfg);
    auto original_result = original.run();

    EXPECT_GT(original_result.cellWrites, fixed_result.cellWrites);
}

TEST(ObfusMem, UniformPacketsFunctional)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.uniformPackets = true;
    System sys(cfg);
    DataBlock data = patternBlock(0x61);
    sys.timedStore(0, 0xa000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0xa000), data);

    auto r = sys.run();
    EXPECT_GT(r.instructions, 0u);
    EXPECT_EQ(sys.memSides()[0]->desyncEvents(), 0u);
}

TEST(ObfusMem, UniformPacketsHideTypesBySize)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.uniformPackets = true;
    System sys(cfg);
    sys.run();
    BusObserver *obs = sys.observer();
    ASSERT_GT(obs->requestMessages(), 100u);
    // Every request message carries a payload: sizes are uniform, so
    // the observer's size-based classifier sees only "writes".
    EXPECT_EQ(obs->apparentReads(), 0u);
}

TEST(ObfusMem, SplitSchemeUsesLessBusThanUniform)
{
    // The paper's Sec. 7 claim versus InvisiMem-style packets.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.instrPerCore = 30000;
    System split(cfg);
    split.run();
    uint64_t split_bytes = split.observer()->bytesToMemory()
                           + split.observer()->bytesToProcessor();

    cfg.obfusmem.uniformPackets = true;
    System uniform(cfg);
    uniform.run();
    uint64_t uniform_bytes = uniform.observer()->bytesToMemory()
                             + uniform.observer()->bytesToProcessor();
    EXPECT_LT(split_bytes, uniform_bytes);
}

TEST(ObfusMem, TimingObliviousFunctional)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.timingOblivious = true;
    System sys(cfg);
    DataBlock data = patternBlock(0x62);
    sys.timedStore(0, 0xb000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0xb000), data);
}

TEST(ObfusMem, CounterSkewDetected)
{
    // Staged group pads must not mask a desync: skewing the memory-
    // side request counter drops that side's staging, and the
    // processor's pads now decrypt the attacker-shifted stream to
    // garbage.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.recovery.enabled = false; // pin fail-stop semantics
    System sys(cfg);
    DataBlock data = patternBlock(2);
    sys.timedStore(0, 0x5000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();

    sys.memSides()[0]->skewRequestCounter(6);
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();
    EXPECT_FALSE(completed);
    EXPECT_GE(sys.memSides()[0]->desyncEvents()
                  + sys.memSides()[0]->tamperDetections(),
              1u);
}

TEST(ObfusMem, ReplySkewDetected)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.recovery.enabled = false; // pin fail-stop semantics
    System sys(cfg);
    sys.procSide()->skewResponseCounter(0, 5);
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();
    EXPECT_FALSE(completed);
    EXPECT_GE(sys.procSide()->desyncEvents()
                  + sys.procSide()->tamperDetections(),
              1u);
}

TEST(ObfusMem, AuditorStaysClean)
{
    // The trace auditor checks the paper's obliviousness invariants
    // from the attacker's vantage point; a full run must pass them.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.attachAuditor = true;
    System sys(cfg);
    sys.run();
    ASSERT_NE(sys.auditor(), nullptr);
    EXPECT_TRUE(sys.auditor()->finalize());
    EXPECT_EQ(sys.auditor()->totalViolations(), 0u);
}

TEST(ObfusMem, AuditorFlagsCounterSkew)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.attachAuditor = true;
    System sys(cfg);
    DataBlock data = patternBlock(3);
    sys.timedStore(0, 0x5000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();

    sys.memSides()[0]->skewRequestCounter(6);
    sys.timedLoad(0, 0x40000000, [](Tick) {});
    sys.eventQueue().run();
    sys.auditor()->finalize();
    EXPECT_GE(sys.auditor()->violationCountFor(
                  check::Invariant::EndpointIncident),
              1u);
}

TEST(ObfusMem, TimingObliviousPacesTheWire)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.instrPerCore = 10000;
    cfg.obfusmem.timingOblivious = true;
    cfg.obfusmem.issueEpoch = 80 * tickPerNs;
    System sys(cfg);
    auto r = sys.run();

    // One group (two request messages) per epoch at most; the drain
    // after the cores finish adds a few more epochs.
    uint64_t max_groups =
        sys.eventQueue().curTick() / cfg.obfusmem.issueEpoch + 2;
    EXPECT_LE(sys.observer()->requestMessages(), 2 * max_groups);

    // Dummies are serviced, never dropped (worst-case timing).
    EXPECT_EQ(
        sys.memSides()[0]->stats().scalarValue("dummyWritesDropped"),
        0.0);

    // And it costs more than plain ObfusMem.
    cfg.obfusmem.timingOblivious = false;
    System plain(cfg);
    EXPECT_GE(r.execTicks, plain.run().execTicks);
}
