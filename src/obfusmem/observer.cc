/**
 * @file
 * BusObserver implementation.
 */

#include "obfusmem/observer.hh"

#include <algorithm>
#include <cmath>

namespace obfusmem {

BusObserver::BusObserver(unsigned channels_, Tick bucket_ticks)
    : channels(channels_), perChannelRequests(channels_, 0),
      buckets(channels_, bucket_ticks)
{
}

void
BusObserver::observe(const BusSnoop &snoop)
{
    buckets.advance(snoop.when);

    if (snoop.dir == BusDir::ToMemory) {
        ++totalRequests;
        toMemBytes += snoop.bytes;
        if (snoop.channel < channels) {
            ++perChannelRequests[snoop.channel];
            buckets.mark(snoop.channel);
        }
        if (snoop.wireIsWrite) {
            ++writesSeen;
        } else {
            ++readsSeen;
        }
        uint64_t &count = wireAddrs[snoop.wireAddr];
        if (count > 0)
            ++reusedRequests;
        ++count;
    } else {
        toProcBytes += snoop.bytes;
        if (snoop.channel < channels)
            buckets.mark(snoop.channel);
    }
}

double
BusObserver::addrReuseFraction() const
{
    if (totalRequests == 0)
        return 0.0;
    return static_cast<double>(reusedRequests) / totalRequests;
}

uint64_t
BusObserver::hottestAddrCount() const
{
    uint64_t hottest = 0;
    for (const auto &[addr, count] : wireAddrs)
        hottest = std::max(hottest, count);
    return hottest;
}

double
BusObserver::typeImbalance() const
{
    uint64_t total = readsSeen + writesSeen;
    if (total == 0)
        return 0.0;
    double read_frac = static_cast<double>(readsSeen) / total;
    return std::abs(read_frac - 0.5) * 2.0;
}

} // namespace obfusmem
