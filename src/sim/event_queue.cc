/**
 * @file
 * Event queue implementation: slab/free-list node pool, timing wheel
 * with two-level occupancy bitmap, and the binary-heap overflow tier.
 */

#include "sim/event_queue.hh"

#include <bit>

#include "util/assert.hh"
#include "util/logging.hh"

namespace obfusmem {

EventQueue::EventQueue()
    : bucketHead(wheelSlots, nilIdx), bucketTail(wheelSlots, nilIdx),
      bitsL0(wheelSlots / 64, 0), bitsL1(wheelSlots / (64 * 64), 0)
{}

uint32_t
EventQueue::allocNode()
{
    if (freeHead == nilIdx) {
        panic_if(slabs.size() >= (size_t(nilIdx) >> slabShift),
                 "event pool exhausted");
        auto slab = std::make_unique<EventNode[]>(slabNodes);
        const uint32_t base =
            static_cast<uint32_t>(slabs.size() << slabShift);
        // Thread the fresh slab onto the free list in reverse so the
        // lowest index pops first (cache-friendly warm-up order).
        for (size_t i = slabNodes; i-- > 0;) {
            slab[i].next = freeHead;
            freeHead = base + static_cast<uint32_t>(i);
        }
        slabs.push_back(std::move(slab));
        statPoolNodes.set(static_cast<double>(poolCapacity()));
    }
    const uint32_t idx = freeHead;
    freeHead = node(idx).next;
    if (++liveNodes > highWater) {
        highWater = liveNodes;
        statPoolHighWater.set(static_cast<double>(highWater));
    }
    return idx;
}

void
EventQueue::freeNode(uint32_t idx)
{
    EventNode &n = node(idx);
    n.next = freeHead;
    freeHead = idx;
    --liveNodes;
}

void
EventQueue::wheelInsert(uint32_t idx)
{
    EventNode &n = node(idx);
    const size_t b = static_cast<size_t>(n.when) & (wheelSlots - 1);
    if (bucketHead[b] == nilIdx) {
        bucketHead[b] = idx;
        bitsL0[b >> 6] |= uint64_t(1) << (b & 63);
        bitsL1[b >> 12] |= uint64_t(1) << ((b >> 6) & 63);
    } else {
        // Append at the tail: same-tick events stay FIFO. The window
        // invariant (all wheel events within one span of wheelBase)
        // guarantees a bucket only ever holds a single tick value.
        node(bucketTail[b]).next = idx;
    }
    bucketTail[b] = idx;
    ++wheelCount;
}

uint32_t
EventQueue::popBucket(size_t b)
{
    const uint32_t idx = bucketHead[b];
    OBF_DCHECK(idx != nilIdx, "popping empty bucket ", b);
    bucketHead[b] = node(idx).next;
    if (bucketHead[b] == nilIdx) {
        bucketTail[b] = nilIdx;
        uint64_t &word = bitsL0[b >> 6];
        word &= ~(uint64_t(1) << (b & 63));
        if (word == 0)
            bitsL1[b >> 12] &= ~(uint64_t(1) << ((b >> 6) & 63));
    }
    --wheelCount;
    return idx;
}

/**
 * First occupied bucket at or after `start`, scanning circularly.
 * Precondition: wheelCount > 0. Buckets for ticks already executed
 * are empty, so the circular scan order is exactly increasing-tick
 * order within the window.
 */
size_t
EventQueue::findOccupiedFrom(size_t start) const
{
    const size_t w = start >> 6;
    const uint64_t first = bitsL0[w] & (~uint64_t(0) << (start & 63));
    if (first)
        return (w << 6) | static_cast<size_t>(std::countr_zero(first));

    const size_t numWords = bitsL0.size();
    size_t i = (w + 1) & (numWords - 1);
    for (size_t guard = 0; guard <= numWords + bitsL1.size(); ++guard) {
        if ((i & 63) == 0 && bitsL1[i >> 6] == 0) {
            i = (i + 64) & (numWords - 1); // skip an empty 64-word block
            continue;
        }
        if (bitsL0[i]) {
            return (i << 6) |
                   static_cast<size_t>(std::countr_zero(bitsL0[i]));
        }
        i = (i + 1) & (numWords - 1);
    }
    panic("wheel bitmap scan found no occupied bucket");
}

Tick
EventQueue::nextWheelTick() const
{
    const size_t mask = wheelSlots - 1;
    const size_t start = static_cast<size_t>(now) & mask;
    const size_t b = findOccupiedFrom(start);
    return now + ((b - start) & mask);
}

void
EventQueue::promoteFar()
{
    // Pull every far event that slid inside the window. Popping in
    // (when, seq) order keeps the bucket chains FIFO; doing this
    // before the callback runs guarantees that by the time any direct
    // wheel insert at tick T happens (which requires T inside the
    // window), every earlier-seq far event at T is already chained.
    while (!far.empty() && far.top().when - now < wheelSpan) {
        const uint32_t idx = far.top().idx;
        far.pop();
        wheelInsert(idx);
        ++promotions;
        statOverflowPromotions += 1;
    }
}

void
EventQueue::schedule(Tick when, Callback cb)
{
    panic_if(when < now, "scheduling event in the past (", when, " < ",
             now, ")");
    const uint32_t idx = allocNode();
    EventNode &n = node(idx);
    n.when = when;
    n.seq = nextSeq++;
    n.next = nilIdx;
    n.cb = std::move(cb);
    ++pending;
    // `when - now` can't underflow: the past-scheduling panic above.
    if (when - now < wheelSpan)
        wheelInsert(idx);
    else
        far.push({when, n.seq, idx});
}

bool
EventQueue::step(Tick limit)
{
    if (pending == 0)
        return false;

    Tick when;
    if (wheelCount > 0) {
        when = nextWheelTick();
        // The window slid since the far events were scheduled; one of
        // them may now be the earliest pending tick.
        if (!far.empty() && far.top().when < when)
            when = far.top().when;
    } else {
        when = far.top().when;
    }
    if (when > limit)
        return false;
    now = when;

    promoteFar();
    const uint32_t idx =
        popBucket(static_cast<size_t>(now) & (wheelSlots - 1));

    // Move the callback out and recycle the node *before* invoking:
    // the capture is destroyed promptly (when `cb` leaves scope) and
    // the callback may itself schedule into the freed node.
    EventNode &n = node(idx);
    OBF_DCHECK(n.when == now, "node tick ", n.when, " != now ", now);
    Callback cb = std::move(n.cb);
    freeNode(idx);
    --pending;
    ++executed;
    statExecuted += 1;
    cb();
    return true;
}

uint64_t
EventQueue::run(Tick limit)
{
    const uint64_t before = executed;
    while (step(limit)) {
    }
    if (limit != maxTick && now < limit)
        now = limit;
    return executed - before;
}

void
EventQueue::attachStats(statistics::Group &parent)
{
    panic_if(statGroup != nullptr, "event queue stats already attached");
    statGroup = std::make_unique<statistics::Group>("eventq", &parent);
    // Seed with history accumulated before attachment; incremental
    // updates keep them current from here on.
    statExecuted.set(static_cast<double>(executed));
    statPoolHighWater.set(static_cast<double>(highWater));
    statOverflowPromotions.set(static_cast<double>(promotions));
    statPoolNodes.set(static_cast<double>(poolCapacity()));
    statGroup->addScalar("eventsExecuted", &statExecuted,
                         "events executed since construction");
    statGroup->addScalar("poolHighWater", &statPoolHighWater,
                         "max simultaneously pending events");
    statGroup->addScalar("poolNodes", &statPoolNodes,
                         "event node pool capacity");
    statGroup->addScalar("overflowPromotions", &statOverflowPromotions,
                         "far events promoted from overflow heap to wheel");
}

} // namespace obfusmem
