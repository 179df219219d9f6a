/**
 * @file
 * Parallel sweep runner: run a batch of independent simulations
 * on a WorkerGroup and collect results in submission order.
 *
 * Determinism contract: every job builds its own self-contained
 * System (own EventQueue, own Random instances seeded from the
 * config), so a sweep produces *bit-identical* results whether it
 * runs serially or on N threads — the workers only change wall-clock
 * time, never simulated outcomes. This invariant is enforced by
 * tests/test_runner.cc.
 */

#ifndef OBFUSMEM_RUNNER_SWEEP_HH
#define OBFUSMEM_RUNNER_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <exception>
#include <type_traits>
#include <vector>

#include "runner/worker_group.hh"
#include "system/system.hh"

namespace obfusmem {
namespace runner {

/**
 * Job count from the OBFUSMEM_BENCH_JOBS environment knob.
 *
 * Unset, empty or 1 selects the serial path (no worker threads —
 * the historical behavior). "0" means "one job per hardware thread".
 * The value is read once and cached.
 */
unsigned jobsFromEnv();

/**
 * Apply @p fn to every index in [0, n) using @p jobs worker threads
 * and return the results ordered by index.
 *
 * With jobs <= 1 (or fewer than two items) this degenerates to a
 * plain serial loop on the calling thread. The result type must be
 * default-constructible (the output vector is pre-sized so each job
 * writes its own slot without synchronization). Otherwise one
 * WorkerGroup round of min(jobs, n) workers claims indices from an
 * atomic counter. The exception of the lowest failing index is
 * rethrown on the calling thread after all jobs finish.
 */
template <typename Fn>
auto
parallelIndexMap(size_t n, unsigned jobs, Fn &&fn)
    -> std::vector<std::decay_t<decltype(fn(size_t{0}))>>
{
    using Result = std::decay_t<decltype(fn(size_t{0}))>;
    std::vector<Result> results(n);

    if (jobs <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            results[i] = fn(i);
        return results;
    }

    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};
    WorkerGroup workers(
        static_cast<unsigned>(std::min<size_t>(jobs, n)));
    workers.runRound([&](unsigned) {
        for (size_t i = next++; i < n; i = next++) {
            try {
                results[i] = fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    });
    for (auto &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
    return results;
}

/**
 * Build, run and tear down one System per config, @p jobs at a time,
 * and return the RunResults in config order.
 */
std::vector<System::RunResult>
runSweep(const std::vector<SystemConfig> &configs, unsigned jobs);

/** runSweep() with the job count from OBFUSMEM_BENCH_JOBS. */
inline std::vector<System::RunResult>
runSweep(const std::vector<SystemConfig> &configs)
{
    return runSweep(configs, jobsFromEnv());
}

} // namespace runner
} // namespace obfusmem

#endif // OBFUSMEM_RUNNER_SWEEP_HH
