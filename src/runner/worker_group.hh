/**
 * @file
 * The one thread mechanism of the simulator: a persistent group of
 * workers that run rounds. The simulator itself is single-threaded by
 * design (one EventQueue per System); workers exist to run the shards
 * of a sharded kernel, and to run many self-contained Systems
 * concurrently during parameter sweeps (parallelIndexMap in
 * sweep.hh), where each job owns its System outright and shares
 * nothing mutable with its siblings.
 */

#ifndef OBFUSMEM_RUNNER_WORKER_GROUP_HH
#define OBFUSMEM_RUNNER_WORKER_GROUP_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace obfusmem {
namespace runner {

/**
 * Persistent round-based worker group.
 *
 * A sharded simulation kernel needs the *same* worker to own the same
 * shard across tens of thousands of epochs (shard state is
 * thread-confined by construction), with a full barrier between
 * epochs. WorkerGroup keeps N workers parked on a generation counter;
 * runRound(fn) publishes fn, wakes everyone, runs fn(worker_index)
 * exactly once per worker, and returns when the last worker
 * finishes. The mutex/condvar handshake doubles as the memory barrier
 * the epoch exchange protocol relies on: everything a worker wrote
 * during round R happens-before everything any worker reads in round
 * R+1.
 */
class WorkerGroup
{
  public:
    /** Spin up @p n persistent workers (at least one). */
    explicit WorkerGroup(unsigned n);

    /** Joins all workers (any round in progress completes first). */
    ~WorkerGroup();

    WorkerGroup(const WorkerGroup &) = delete;
    WorkerGroup &operator=(const WorkerGroup &) = delete;

    /**
     * Run fn(i) on every worker i in [0, size()) and block until all
     * return. The first exception thrown by any worker is rethrown
     * here after the round completes. Must not be called reentrantly.
     */
    void runRound(const std::function<void(unsigned)> &fn);

    unsigned size() const
    {
        return static_cast<unsigned>(workers.size());
    }

  private:
    void workerLoop(unsigned index);

    std::mutex mtx;
    std::condition_variable cvRound;  // workers wait for a new round
    std::condition_variable cvDone;   // runRound waits for the join
    const std::function<void(unsigned)> *roundFn = nullptr;
    uint64_t generation = 0;
    unsigned running = 0;
    bool stopping = false;
    std::exception_ptr firstError;
    std::vector<std::thread> workers;
};

} // namespace runner
} // namespace obfusmem

#endif // OBFUSMEM_RUNNER_WORKER_GROUP_HH
