/**
 * @file
 * Tests for the parallel sweep runner: ordered results, error
 * propagation, and the central invariant that a parallel sweep
 * is bit-identical to a serial one (each job's System is fully
 * self-contained, so thread interleaving must not leak into
 * simulated results).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>

#include "runner/sweep.hh"
#include "system/system.hh"

using namespace obfusmem;
using namespace obfusmem::runner;

TEST(ParallelIndexMap, ResultsComeBackInIndexOrder)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        auto results = parallelIndexMap(
            64, jobs, [](size_t i) { return i * i; });
        ASSERT_EQ(results.size(), 64u);
        for (size_t i = 0; i < results.size(); ++i)
            EXPECT_EQ(results[i], i * i);
    }
}

TEST(ParallelIndexMap, SerialAndParallelAgree)
{
    auto serial = parallelIndexMap(
        33, 1, [](size_t i) { return 3 * i + 1; });
    auto parallel = parallelIndexMap(
        33, 4, [](size_t i) { return 3 * i + 1; });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelIndexMap, PropagatesExceptions)
{
    auto boom = [](size_t i) -> int {
        if (i == 5)
            throw std::runtime_error("job 5 failed");
        return static_cast<int>(i);
    };
    EXPECT_THROW(parallelIndexMap(10, 4, boom), std::runtime_error);
    EXPECT_THROW(parallelIndexMap(10, 1, boom), std::runtime_error);
}

TEST(ParallelIndexMap, RethrowsTheLowestFailingIndex)
{
    // Every job runs even after a failure, and the error reported is
    // the lowest index's whatever order the workers finished in.
    std::atomic<int> ran{0};
    auto boom = [&ran](size_t i) -> int {
        ++ran;
        if (i == 3 || i == 11)
            throw std::runtime_error("job " + std::to_string(i));
        return 0;
    };
    for (unsigned jobs : {2u, 4u}) {
        ran = 0;
        try {
            parallelIndexMap(16, jobs, boom);
            FAIL() << "no exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 3");
        }
        EXPECT_EQ(ran.load(), 16);
    }
}

namespace {

/** Small configs so the determinism sweep stays fast. */
std::vector<SystemConfig>
smallSweepConfigs()
{
    std::vector<SystemConfig> cfgs;
    for (const char *name : {"milc", "sjeng", "hmmer"}) {
        for (ProtectionMode mode :
             {ProtectionMode::Unprotected,
              ProtectionMode::ObfusMemAuth}) {
            SystemConfig cfg;
            cfg.mode = mode;
            cfg.benchmark = name;
            cfg.instrPerCore = 2000;
            cfg.attachObserver = false;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

/** Field-by-field equality: RunResult has no operator==. */
void
expectIdentical(const System::RunResult &a, const System::RunResult &b)
{
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.avgGapNs, b.avgGapNs);
    EXPECT_EQ(a.cellWrites, b.cellWrites);
    EXPECT_EQ(a.pcmEnergyPj, b.pcmEnergyPj);
    EXPECT_EQ(a.busUtilization, b.busUtilization);
}

} // namespace

TEST(RunSweep, ParallelIsBitIdenticalToSerial)
{
    // The tentpole invariant: OBFUSMEM_BENCH_JOBS changes wall-clock
    // time only, never simulated results.
    const auto cfgs = smallSweepConfigs();
    const auto serial = runSweep(cfgs, 1);
    const auto parallel = runSweep(cfgs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

TEST(RunSweep, RepeatedParallelRunsAgree)
{
    // No hidden dependence on thread scheduling between runs either.
    const auto cfgs = smallSweepConfigs();
    const auto first = runSweep(cfgs, 3);
    const auto second = runSweep(cfgs, 3);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        expectIdentical(first[i], second[i]);
}
