/**
 * @file
 * The exposed processor-memory channel: a half-duplex data bus with
 * finite bandwidth (12.8 GB/s per channel in Table 2). This is the
 * only part of the system an external attacker can observe, so every
 * message carries the bytes that would really appear on the wires and
 * bus observers (src/obfusmem/observer.hh) can tap it.
 */

#ifndef OBFUSMEM_MEM_CHANNEL_BUS_HH
#define OBFUSMEM_MEM_CHANNEL_BUS_HH

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>

#include "sim/sim_object.hh"

namespace obfusmem {

/** Direction of a bus message. */
enum class BusDir : uint8_t { ToMemory, ToProcessor };

/** What an attacker probing the bus wires can see of one message. */
struct BusSnoop
{
    Tick when;
    BusDir dir;
    uint32_t bytes;
    /** Address bits as they appear on the wires (possibly ciphertext). */
    uint64_t wireAddr;
    /** Command bit as it appears on the wires. */
    bool wireIsWrite;
    unsigned channel;
};

/** Passive observer interface (the attacker's probe). */
class BusProbe
{
  public:
    virtual ~BusProbe() = default;
    virtual void observe(const BusSnoop &snoop) = 0;
};

/**
 * Inter-channel activity over fixed time buckets: the fraction of
 * active buckets in which exactly one channel carried traffic. A probe
 * calls advance() for every message it sees and mark() for the
 * messages its own rule counts as channel activity.
 */
class SoloBucketMeter
{
  public:
    SoloBucketMeter(unsigned channels_, Tick bucket_ticks)
        : channels(channels_), bucketTicks(bucket_ticks)
    {
    }

    /** Close the open bucket when `when` falls in a later one. */
    void advance(Tick when)
    {
        uint64_t next = when / bucketTicks;
        if (next == bucket)
            return;
        if (mask != 0) {
            ++active;
            solo += isSolo(mask);
        }
        mask = 0;
        bucket = next;
    }

    /** Count `channel` as busy in the open bucket. */
    void mark(unsigned channel) { mask |= 1u << channel; }

    /** Solo fraction over the active buckets, the open one included. */
    double soloFraction() const
    {
        uint64_t a = active;
        uint64_t s = solo;
        if (mask != 0) {
            ++a;
            s += isSolo(mask);
        }
        return a == 0 ? 0.0
                      : static_cast<double>(s) / static_cast<double>(a);
    }

  private:
    bool isSolo(uint32_t m) const
    {
        return std::popcount(m) == 1 && channels > 1;
    }

    unsigned channels;
    Tick bucketTicks;
    uint64_t bucket = 0;
    uint32_t mask = 0;
    uint64_t active = 0;
    uint64_t solo = 0;
};

class FaultInjector;

/**
 * What happened to a message in flight, handed to the receiver at
 * delivery. The wire already carried the original burst (the snoop
 * fires before the fault is applied — an attacker injecting faults
 * still saw the transmitted bytes), so corruption and duplication are
 * modeled at the receiving pin: `corrupted` means the receiver
 * latched a flipped bit, `duplicated` means the link retransmitted
 * and the receiver latched the frame twice back-to-back.
 */
struct BusFault
{
    bool corrupted = false;
    bool duplicated = false;
    /** Deterministic entropy (e.g. which header bit flipped). */
    uint64_t entropy = 0;
};

/**
 * One memory channel's exposed bus. Messages are serialized FIFO;
 * a message occupies the bus for bytes/bandwidth (plus a fixed
 * propagation delay), and zero-byte messages model command-bus-only
 * traffic that does not consume data-bus bandwidth.
 */
class ChannelBus : public SimObject
{
  public:
    struct Params
    {
        /** Data bandwidth in bytes per nanosecond (12.8 GB/s). */
        double bytesPerNs = 12.8;
        /** Wire propagation + SerDes delay per message. */
        Tick propagationDelay = 1 * tickPerNs;
        /** Time a zero-byte (command-only) message occupies. */
        Tick commandSlot = 1250; // one 800 MHz bus cycle
    };

    ChannelBus(const std::string &name, EventQueue &eq,
               statistics::Group *parent, unsigned channel_id,
               const Params &params);

    /**
     * Transmit a message. `deliver` fires when the last byte arrives
     * at the far end; a dropped message never delivers.
     *
     * @param dir Direction of travel.
     * @param bytes Data-bus bytes the message occupies.
     * @param snoop_addr Address bits visible on the wires.
     * @param snoop_is_write Command bit visible on the wires.
     * @param deliver Called at delivery time with the fault verdict
     *                (all-clear when no injector is attached).
     */
    void send(BusDir dir, uint32_t bytes, uint64_t snoop_addr,
              bool snoop_is_write,
              std::function<void(const BusFault &)> deliver);

    /** Attach a passive probe (attacker or analysis). */
    void attachProbe(BusProbe *probe) { probes.push_back(probe); }

    /** Attach a fault source (nullptr detaches). Not owned. */
    void setFaultInjector(FaultInjector *inj) { faults = inj; }

    /** True if nothing is in flight or queued. */
    bool idle() const { return !transferring && pending.empty(); }

    /** Fraction of elapsed time the data bus was busy. */
    double utilization() const;

    unsigned channelId() const { return channel; }

  private:
    struct Message
    {
        BusDir dir;
        uint32_t bytes;
        uint64_t snoopAddr;
        bool snoopIsWrite;
        std::function<void(const BusFault &)> deliver;
    };

    void startNext();
    Tick occupancy(uint32_t bytes) const;

    Params params;
    unsigned channel;
    std::deque<Message> pending;
    std::deque<Tick> enqueueTicks;
    bool transferring = false;
    std::vector<BusProbe *> probes;
    FaultInjector *faults = nullptr;

    statistics::Scalar messagesSent;
    statistics::Scalar bytesSent;
    statistics::Scalar busBusyTicks;
    statistics::Average queueDelayNs;
};

} // namespace obfusmem

#endif // OBFUSMEM_MEM_CHANNEL_BUS_HH
