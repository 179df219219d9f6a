/**
 * @file
 * ShardedKernel implementation: the epoch loop.
 */

#include "sim/sharded_kernel.hh"

#include "runner/worker_group.hh"
#include "util/env.hh"

namespace obfusmem {

namespace {

/// Shard owned by the calling thread during a round (post() misuse
/// check); outside any round no shard is current.
constexpr unsigned noShard = 0xffffffffu;
thread_local unsigned tlsShard = noShard;

} // namespace

unsigned
ShardedKernel::shardsFromEnv()
{
    static const unsigned shards = env::jobs("OBFUSMEM_SIM_SHARDS", 1);
    return shards;
}

ShardedKernel::ShardedKernel(const Params &params_) : params(params_)
{
    panic_if(params.lookahead == 0,
             "sharded kernel needs a non-zero lookahead window");
}

ShardedKernel::~ShardedKernel() = default;

unsigned
ShardedKernel::addEndpoint(EventQueue &eq)
{
    panic_if(sealed, "endpoint registered after the first run()");
    queues.push_back(&eq);
    return static_cast<unsigned>(queues.size() - 1);
}

void
ShardedKernel::seal()
{
    if (sealed)
        return;
    panic_if(queues.empty(), "sharded kernel has no endpoints");
    shardCount = params.shards ? params.shards : 1;
    if (shardCount > queues.size())
        shardCount = static_cast<unsigned>(queues.size());

    // Round-robin endpoint placement: with homogeneous sockets this
    // balances work; the placement never affects simulated results,
    // only wall clock.
    shardOf.resize(queues.size());
    owned.assign(shardCount, {});
    for (unsigned e = 0; e < queues.size(); ++e) {
        shardOf[e] = e % shardCount;
        owned[e % shardCount].push_back(e);
    }
    theRouter = std::make_unique<ShardRouter>(queues, shardOf,
                                              shardCount);
    if (statGroup)
        theRouter->attachStats(*statGroup);
    if (shardCount > 1)
        workers = std::make_unique<runner::WorkerGroup>(shardCount);
    sealed = true;
}

void
ShardedKernel::post(unsigned src, unsigned dst, Tick when,
                    EventQueue::Callback cb)
{
    // The whole determinism argument rests on this: an event posted
    // during epoch E lands at or after the start of epoch E+1, so no
    // shard can ever need an event another shard has not yet sent.
    panic_if(when < curEpochEnd,
             "cross-shard post at tick ", when,
             " violates the lookahead horizon ", curEpochEnd,
             " (link latency shorter than the epoch window?)");
    OBF_DCHECK(tlsShard == shardOf[src],
               "post for endpoint ", src, " from the wrong shard");
    theRouter->post(src, dst, when, std::move(cb));
}

void
ShardedKernel::roundFn(unsigned shard, unsigned parity,
                       Tick epoch_end)
{
    tlsShard = shard;
    // Drain first: everything posted last round is scheduled before
    // any event of this epoch executes, in deterministic order.
    theRouter->drainTo(shard, parity);
    // Then run the epoch window [epoch_end - lookahead, epoch_end):
    // run() executes events with when <= limit, so the limit is the
    // last tick inside the window. Each queue's clock advances to the
    // limit even when it drains early, keeping all shards' clocks in
    // lockstep at the barrier.
    for (unsigned e : owned[shard])
        queues[e]->run(epoch_end - 1);
    tlsShard = noShard;
}

ShardedKernel::RunSummary
ShardedKernel::run()
{
    seal();
    RunSummary sum;
    uint64_t events_before = 0;
    for (EventQueue *eq : queues)
        events_before += eq->eventsExecuted();
    const uint64_t rounds_before = rounds;

    for (;;) {
        // Between rounds every worker is parked, so reading queue
        // sizes and folding the per-shard mailbox counters is safe —
        // this is the "merge at epoch end" point.
        theRouter->mergeStats();
        size_t queued = 0;
        for (EventQueue *eq : queues)
            queued += eq->size();
        if (queued == 0 && theRouter->inFlight() == 0)
            break;

        const unsigned parity = static_cast<unsigned>(rounds & 1);
        theRouter->setRoundParity(parity);
        const Tick epoch_end = (rounds + 1) * params.lookahead;
        curEpochEnd = epoch_end;
        const unsigned drain_parity = parity ^ 1u;

        if (shardCount == 1) {
            roundFn(0, drain_parity, epoch_end);
        } else {
            workers->runRound([this, drain_parity,
                               epoch_end](unsigned s) {
                roundFn(s, drain_parity, epoch_end);
            });
        }
        ++rounds;
        statEpochs += 1;
    }

    sum.epochs = rounds - rounds_before;
    for (EventQueue *eq : queues)
        sum.eventsExecuted += eq->eventsExecuted();
    sum.eventsExecuted -= events_before;
    sum.crossMessages = theRouter->messagesDrained();
    sum.endTick = rounds * params.lookahead;
    return sum;
}

void
ShardedKernel::attachStats(statistics::Group &parent)
{
    panic_if(statGroup != nullptr, "kernel stats already attached");
    statGroup =
        std::make_unique<statistics::Group>("shardkernel", &parent);
    statGroup->addScalar("epochs", &statEpochs,
                         "epoch barriers executed");
    if (theRouter)
        theRouter->attachStats(*statGroup);
}

} // namespace obfusmem
