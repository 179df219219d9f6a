/**
 * @file
 * The attacker's view: a passive probe on the exposed memory channels
 * that accumulates exactly the statistics the paper's threat model
 * says an observer can extract - spatial pattern, temporal pattern
 * (address reuse), request types, memory footprint, and inter-channel
 * activity correlation (paper Secs. 2.3, 3.2-3.4, 6.1).
 *
 * Tests assert that these statistics are informative on an
 * unprotected bus and degenerate (uniform / constant) under ObfusMem.
 */

#ifndef OBFUSMEM_OBFUSMEM_OBSERVER_HH
#define OBFUSMEM_OBFUSMEM_OBSERVER_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/channel_bus.hh"

namespace obfusmem {

/**
 * Passive multi-channel bus observer.
 */
class BusObserver : public BusProbe
{
  public:
    /**
     * @param channels Number of channels probed.
     * @param bucket_ticks Time-bucket width for inter-channel
     *        correlation analysis.
     */
    explicit BusObserver(unsigned channels,
                         Tick bucket_ticks = 200 * tickPerNs);

    void observe(const BusSnoop &snoop) override;

    // --- Temporal / spatial / footprint analysis -------------------

    /** Total request messages seen (to-memory direction). */
    uint64_t requestMessages() const { return totalRequests; }

    /** Distinct wire addresses seen in request headers. */
    uint64_t distinctWireAddrs() const
    {
        return static_cast<uint64_t>(wireAddrs.size());
    }

    /**
     * Temporal reuse the observer can infer: fraction of request
     * messages whose wire address was seen before. ~0 under ObfusMem.
     */
    double addrReuseFraction() const;

    /**
     * Largest count of requests to a single wire address (dictionary
     * attack handle). 1 under ObfusMem.
     */
    uint64_t hottestAddrCount() const;

    // --- Request type analysis --------------------------------------

    /** Apparent writes (messages carrying payload toward memory). */
    uint64_t apparentWrites() const { return writesSeen; }
    /** Apparent reads (payload-less messages toward memory). */
    uint64_t apparentReads() const { return readsSeen; }

    /**
     * How far the observed read/write mix deviates from the 1:1 that
     * ObfusMem's read-then-write pairing enforces. 0 = perfect pairs.
     */
    double typeImbalance() const;

    // --- Inter-channel analysis --------------------------------------

    /**
     * Fraction of active time buckets in which exactly one channel
     * carried traffic: high when the spatial pattern leaks across
     * channel pins, ~0 under UNOPT/OPT dummy injection.
     */
    double soloBucketFraction() const { return buckets.soloFraction(); }

    /** Per-channel request counts (balance check). */
    const std::vector<uint64_t> &channelRequests() const
    {
        return perChannelRequests;
    }

    /** Bytes seen per direction. */
    uint64_t bytesToMemory() const { return toMemBytes; }
    uint64_t bytesToProcessor() const { return toProcBytes; }

  private:
    unsigned channels;

    uint64_t totalRequests = 0;
    uint64_t readsSeen = 0;
    uint64_t writesSeen = 0;
    uint64_t toMemBytes = 0;
    uint64_t toProcBytes = 0;

    std::unordered_map<uint64_t, uint64_t> wireAddrs;
    uint64_t reusedRequests = 0;

    std::vector<uint64_t> perChannelRequests;

    /** Both directions count as channel activity. */
    SoloBucketMeter buckets;
};

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_OBSERVER_HH
