/**
 * @file
 * WorkerGroup implementation.
 */

#include "runner/worker_group.hh"

#include "util/assert.hh"

namespace obfusmem {
namespace runner {

WorkerGroup::WorkerGroup(unsigned n)
{
    if (n == 0)
        n = 1;
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

WorkerGroup::~WorkerGroup()
{
    {
        std::unique_lock<std::mutex> lock(mtx);
        stopping = true;
    }
    cvRound.notify_all();
    for (auto &w : workers)
        w.join();
}

void
WorkerGroup::runRound(const std::function<void(unsigned)> &fn)
{
    OBF_ASSERT(fn, "null round function");
    std::unique_lock<std::mutex> lock(mtx);
    OBF_ASSERT(running == 0 && roundFn == nullptr,
               "reentrant WorkerGroup::runRound");
    roundFn = &fn;
    running = size();
    firstError = nullptr;
    ++generation;
    cvRound.notify_all();
    cvDone.wait(lock, [this] { return running == 0; });
    roundFn = nullptr;
    if (firstError)
        std::rethrow_exception(firstError);
}

void
WorkerGroup::workerLoop(unsigned index)
{
    uint64_t seen = 0;
    for (;;) {
        const std::function<void(unsigned)> *fn;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cvRound.wait(lock, [this, seen] {
                return stopping || generation != seen;
            });
            if (stopping)
                return;
            seen = generation;
            fn = roundFn;
        }
        std::exception_ptr err;
        try {
            (*fn)(index);
        } catch (...) {
            err = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mtx);
            if (err && !firstError)
                firstError = err;
            if (--running == 0)
                cvDone.notify_all();
        }
    }
}

} // namespace runner
} // namespace obfusmem
