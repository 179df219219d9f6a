/**
 * @file
 * Microbenchmark of the discrete-event kernel: events/second and
 * allocations/event for the timing-wheel event queue, plus a
 * counting-allocator proof that the steady state never touches the
 * global allocator.
 *
 * Workloads (all self-rescheduling, so the pending population is
 * constant and the pool reaches steady state):
 *  - schedule-heavy: 64k actors with pseudo-random short delays —
 *    the acceptance workload (allocations/event must be exactly 0;
 *    nonzero exits 1).
 *  - same-tick-burst: all actors collide on the same ticks — stresses
 *    the FIFO bucket chain.
 *  - far-mix: 1/8 of delays land beyond the wheel horizon — stresses
 *    the overflow heap and promotion path.
 *
 * Knobs: OBFUSMEM_QUICK=1 shrinks the event counts (CI/sanitizers);
 * OBFUSMEM_BENCH_JSON appends one JSONL row per workload with
 * ticks = events executed and overhead_pct = allocations/event.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_common.hh"
#include "sim/event_queue.hh"

// --- Counting allocator hook ----------------------------------------
// Replaces the global operator new/delete for this binary; every
// heap allocation anywhere in the process bumps the counter, which is
// what lets the rows below claim "0 allocations/event" honestly.

static std::atomic<uint64_t> g_allocs{0};

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace obfusmem;

enum class Workload : uint8_t { ScheduleHeavy, SameTickBurst, FarMix };

constexpr uint64_t lcgMul = 6364136223846793005ULL;
constexpr uint64_t lcgAdd = 1442695040888963407ULL;

/**
 * A self-rescheduling event: executing it schedules a copy of itself
 * at the next pseudo-random tick. 24 bytes — the whole closure lives
 * in the pooled node's inline storage.
 */
struct Actor
{
    EventQueue *eq;
    uint64_t rng;
    Workload wl;

    void
    operator()()
    {
        rng = rng * lcgMul + lcgAdd;
        const uint64_t r = rng >> 33;
        Tick delay;
        switch (wl) {
          case Workload::ScheduleHeavy:
            delay = 1 + (r & 1023); // 1..1024 ticks
            break;
          case Workload::SameTickBurst:
            delay = 1000; // everyone collides on the same ticks
            break;
          case Workload::FarMix:
          default:
            if ((r & 7) == 0) // 1/8 beyond the wheel horizon
                delay = EventQueue::wheelSpan + (r & 0xfffff);
            else
                delay = 1 + (r & 8191);
            break;
        }
        eq->scheduleAfter(delay, *this);
    }
};

struct Row
{
    const char *workload;
    uint64_t events;
    double mevPerSec;
    double allocsPerEvent;
    uint64_t promotions;
    size_t poolHighWater;
};

Row
measure(Workload wl, const char *wlName, uint64_t population,
        uint64_t events)
{
    EventQueue eq;
    for (uint64_t i = 0; i < population; ++i)
        eq.schedule(i & 63, Actor{&eq, 0x9e3779b97f4a7c15ULL + i, wl});

    // Warm-up: let the node pool, far-heap vector and bucket chains
    // reach their steady-state capacity before counting.
    for (uint64_t i = 0; i < events / 4; ++i)
        eq.step();

    const uint64_t alloc0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < events; ++i)
        eq.step();
    const auto t1 = std::chrono::steady_clock::now();
    const uint64_t alloc1 = g_allocs.load(std::memory_order_relaxed);

    const double secs = std::chrono::duration<double>(t1 - t0).count();
    Row row;
    row.workload = wlName;
    row.events = events;
    row.mevPerSec = static_cast<double>(events) / secs / 1e6;
    row.allocsPerEvent =
        static_cast<double>(alloc1 - alloc0) / static_cast<double>(events);
    row.promotions = eq.overflowPromotions();
    row.poolHighWater = eq.poolHighWater();
    return row;
}

} // namespace

int
main()
{
    bench::Session session("sim_kernel_microbench");
    const bool quick = obfusmem::env::flag("OBFUSMEM_QUICK");
    const uint64_t events = quick ? 400 * 1000 : 4 * 1000 * 1000;

    std::printf("\n=== sim kernel microbench ===\n");
    std::printf("(measured events/row: %llu; OBFUSMEM_QUICK=1 "
                "shrinks)\n\n",
                static_cast<unsigned long long>(events));
    std::printf("%-16s %12s %10s %14s %12s %10s\n", "workload",
                "events", "Mev/s", "allocs/event", "promotions",
                "highwater");

    struct WlDef
    {
        Workload wl;
        const char *name;
        uint64_t population;
    };
    // schedule-heavy runs a large standing population, which the
    // wheel still serves in O(1) per event.
    const WlDef workloads[] = {
        {Workload::ScheduleHeavy, "schedule-heavy", 64 * 1024},
        {Workload::SameTickBurst, "same-tick-burst", 8 * 1024},
        {Workload::FarMix, "far-mix", 8 * 1024},
    };
    bool steadyStateClean = true;

    for (const auto &w : workloads) {
        Row row = measure(w.wl, w.name, w.population, events);
        std::printf("%-16s %12llu %10.2f %14.6f %12llu %10zu\n",
                    row.workload,
                    static_cast<unsigned long long>(row.events),
                    row.mevPerSec, row.allocsPerEvent,
                    static_cast<unsigned long long>(row.promotions),
                    row.poolHighWater);
        bench::jsonRow("sim_kernel_microbench", "wheel", row.workload,
                       row.events, row.allocsPerEvent,
                       row.events / row.mevPerSec / 1e3);
        if (w.wl == Workload::ScheduleHeavy && row.allocsPerEvent != 0.0)
            steadyStateClean = false;
    }

    if (!steadyStateClean) {
        std::fprintf(stderr,
                     "FAIL: schedule-heavy steady state touched the "
                     "allocator\n");
        return 1;
    }
    std::printf("steady-state allocations/event: 0 (verified by "
                "counting allocator)\n");
    return 0;
}
