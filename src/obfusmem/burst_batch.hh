/**
 * @file
 * BurstBatch: the structure-of-arrays batch pipeline for outbound
 * protection work.
 *
 * The scalar hot path built, MAC'd and transmitted each wire frame to
 * completion before starting the next, so every message paid a full
 * scalar MD5 plus a round of per-field plumbing. A BurstBatch instead
 * carries all frames staged inside one synchronous call chain — a
 * dispatch fan-out, a write-drain loop, a re-key replay — through the
 * pipeline in stage-wise passes:
 *
 *   stage:  per-frame protocol work that must stay in program order
 *           (counter advance, pad generation, audit onPadUse probes,
 *           pending-table bookkeeping, junk draws) plus pushing the
 *           frame's fields into the SoA lanes (FrameBatch) and its
 *           delivery context into the parallel lanes here.
 *   flush:  one MacEngine::computeBatch over the whole header/counter
 *           lane (vectorized MD5 lanes), one FrameBatch::seal pass
 *           (encrypt lane, payload lane, MAC lane), then delivery of
 *           the sealed frames in stage order.
 *
 * Because ChannelBus::send only *enqueues* (delivery happens on later
 * ticks after serialization + propagation), moving the sends of one
 * synchronous call chain to its end — same tick, same relative order —
 * produces bit-identical bus traffic, snoop traces and fault draws.
 *
 * Every stage happens inside a Scope; flushing happens when the
 * outermost Scope closes (a depth counter handles nesting, e.g.
 * dispatch -> maybeDrainWrites -> sendGroup).
 * The owner decides *how* to deliver by passing a callable to
 * flushWith — a template hop, not a std::function, so the per-frame
 * delivery is statically dispatched.
 */

#ifndef OBFUSMEM_OBFUSMEM_BURST_BATCH_HH
#define OBFUSMEM_OBFUSMEM_BURST_BATCH_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "obfusmem/mac_engine.hh"
#include "obfusmem/wire_format.hh"
#include "util/assert.hh"
#include "util/secret.hh"

namespace obfusmem {

class BurstBatch
{
  public:
    /**
     * Delivery context staged alongside a frame: the completion to
     * fire once the frame reaches the far pin. Frames without a
     * completion (header halves, dummies, control traffic) leave the
     * callback empty.
     */
    struct Completion
    {
        MemPacket pkt;
        PacketCallback cb;
    };

    /** Stage a header-only frame bound for `channel`. */
    void
    stageHeader(unsigned channel, const crypto::Block128 &hdr_pad,
                const WireHeader &hdr, uint64_t mac_ctr)
    {
        OBF_DCHECK(depth > 0, "frame staged outside a burst scope");
        frames.stageHeaderFrame(hdr_pad, hdr, mac_ctr);
        channels.push_back(channel);
        completions.emplace_back();
    }

    /**
     * Stage a data frame bound for `channel`; a non-empty `done`
     * completes a request when the frame is delivered.
     */
    void
    stageData(unsigned channel, const crypto::Block128 &hdr_pad,
              const crypto::Block128 payload_pads[4],
              const WireHeader &hdr, const DataBlock &payload,
              uint64_t mac_ctr, Completion done = {})
    {
        OBF_DCHECK(depth > 0, "frame staged outside a burst scope");
        frames.stageDataFrame(hdr_pad, payload_pads, hdr, payload,
                              mac_ctr);
        channels.push_back(channel);
        completions.push_back(std::move(done));
    }

    /**
     * Run the back half of the pipeline: batch-MAC (when `auth`),
     * seal, and hand each frame to `deliver(channel, msg, completion)`
     * in stage order. No-op on an empty batch.
     */
    template <class Deliver>
    void
    flushWith(const MacEngine &mac, bool auth, Deliver &&deliver)
    {
        const size_t n = frames.size();
        if (n == 0)
            return;
        if (auth) {
            macs.resize(n);
            mac.computeBatch(frames.headers(), frames.macCounters(),
                             macs.data(), n);
        }
        msgs.resize(n);
        frames.seal(auth ? macs.data() : nullptr, msgs.data());
        for (size_t i = 0; i < n; ++i)
            deliver(channels[i], std::move(msgs[i]),
                    std::move(completions[i]));
        channels.clear();
        completions.clear();
        msgs.clear();
    }

    /**
     * RAII nesting guard: the outermost scope's close triggers the
     * owner's flush. `flush` is the owner's flush thunk (typically
     * `[this] { flushBurst(); }`).
     */
    template <class FlushFn>
    class Scope
    {
      public:
        Scope(BurstBatch &b, FlushFn flush)
            : batch(b), flushFn(std::move(flush))
        {
            ++batch.depth;
        }

        ~Scope()
        {
            if (--batch.depth == 0)
                flushFn();
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        BurstBatch &batch;
        FlushFn flushFn;
    };

  private:
    FrameBatch frames;
    std::vector<unsigned> channels;
    std::vector<Completion> completions;
    OBF_SECRET std::vector<crypto::Md5Digest> macs;
    std::vector<WireMessage> msgs;
    unsigned depth = 0;
};

/** Deduce the flush-thunk type (pre-C++17-CTAD-style helper). */
template <class FlushFn>
BurstBatch::Scope<FlushFn>
burstScope(BurstBatch &b, FlushFn flush)
{
    return BurstBatch::Scope<FlushFn>(b, std::move(flush));
}

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_BURST_BATCH_HH
