/**
 * @file
 * TraceAuditor implementation.
 */

#include "check/trace_auditor.hh"

#include <iterator>
#include <ostream>
#include <sstream>

#include "util/assert.hh"
#include "util/logging.hh"

namespace obfusmem {
namespace check {

const char *
invariantName(Invariant invariant)
{
    switch (invariant) {
      case Invariant::ReadThenWritePairing:
        return "read-then-write-pairing";
      case Invariant::UniformMessageLength:
        return "uniform-message-length";
      case Invariant::PadFreshness: return "pad-freshness";
      case Invariant::CounterMonotonic: return "counter-monotonic";
      case Invariant::CounterSync: return "counter-sync";
      case Invariant::DummyCoverage: return "dummy-coverage";
      case Invariant::EndpointIncident: return "endpoint-incident";
    }
    return "?";
}

std::ostream &
operator<<(std::ostream &os, const Violation &v)
{
    os << "[audit] invariant=" << invariantName(v.invariant)
       << " channel=" << v.channel << " tick=" << v.when;
    if (v.wireAddr != 0)
        os << " wireAddr=0x" << std::hex << v.wireAddr << std::dec;
    return os << " : " << v.detail;
}

TraceAuditor::TraceAuditor(const Params &params_)
    : params(params_), chans(params_.channels),
      buckets(params_.channels, params_.bucketTicks)
{
    OBF_ASSERT(params.channels > 0, "auditor needs >= 1 channel");
    OBF_ASSERT(params.bucketTicks > 0, "bucketTicks must be nonzero");
}

void
TraceAuditor::addViolation(Invariant invariant, unsigned channel,
                           Tick when, uint64_t wire_addr,
                           std::string detail)
{
    ++violationCount;
    ++invariantCounts[static_cast<size_t>(invariant)];
    if (params.warnOnline && violationCount == 1) {
        warn("trace audit: first violation: ",
             invariantName(invariant), " on channel ", channel,
             " at tick ", when, ": ", detail);
    }
    if (findings.size() < params.maxRecordedViolations) {
        findings.push_back(Violation{invariant, channel, when,
                                     wire_addr, std::move(detail)});
    }
}

// --- Wire-level checks ---------------------------------------------

void
TraceAuditor::checkPairing(ChannelAudit &ca, const BusSnoop &snoop)
{
    if (params.uniformPackets) {
        // Uniform scheme: every request message carries a full
        // payload, so all of them must classify as writes.
        if (!snoop.wireIsWrite) {
            addViolation(Invariant::ReadThenWritePairing,
                         snoop.channel, snoop.when, snoop.wireAddr,
                         "payload-less request message under the "
                         "uniform-packet scheme");
        }
        return;
    }
    // Split scheme: strict read-then-write alternation per channel.
    if (ca.phase == 0) {
        if (snoop.wireIsWrite) {
            addViolation(Invariant::ReadThenWritePairing,
                         snoop.channel, snoop.when, snoop.wireAddr,
                         "write message without a preceding read "
                         "(unpaired group)");
            return; // stay in phase 0: next read starts a group
        }
        ca.phase = 1;
        return;
    }
    if (!snoop.wireIsWrite) {
        addViolation(Invariant::ReadThenWritePairing, snoop.channel,
                     snoop.when, snoop.wireAddr,
                     "read message while the previous read's paired "
                     "write is still missing");
        return; // treat this read as the new group's first message
    }
    ca.phase = 0;
}

void
TraceAuditor::checkLength(ChannelAudit &ca, const BusSnoop &snoop)
{
    std::optional<uint32_t> *expect = nullptr;
    const char *klass = nullptr;
    if (snoop.dir == BusDir::ToProcessor) {
        expect = &ca.replyBytes;
        klass = "reply";
    } else if (snoop.wireIsWrite) {
        expect = &ca.writeBytes;
        klass = "request-write";
    } else {
        expect = &ca.readBytes;
        klass = "request-read";
    }
    if (!expect->has_value()) {
        *expect = snoop.bytes;
        return;
    }
    if (**expect != snoop.bytes) {
        std::ostringstream oss;
        oss << klass << " message of " << snoop.bytes
            << " bytes on a channel whose " << klass
            << " messages are " << **expect << " bytes";
        addViolation(Invariant::UniformMessageLength, snoop.channel,
                     snoop.when, snoop.wireAddr, oss.str());
    }
}

void
TraceAuditor::checkFreshness(ChannelAudit &ca, const BusSnoop &snoop)
{
    auto &seen = snoop.dir == BusDir::ToMemory ? ca.toMemWireAddrs
                                               : ca.toProcWireAddrs;
    if (!seen.insert(snoop.wireAddr).second) {
        addViolation(Invariant::PadFreshness, snoop.channel,
                     snoop.when, snoop.wireAddr,
                     "wire header bits repeat on this channel "
                     "(reused pad or plaintext address)");
    }
}

void
TraceAuditor::observe(const BusSnoop &snoop)
{
    if (snoop.channel >= chans.size())
        return; // foreign probe traffic; not ours to judge
    ++messages;
    ChannelAudit &ca = chans[snoop.channel];

    buckets.advance(snoop.when);
    if (snoop.dir == BusDir::ToMemory) {
        buckets.mark(snoop.channel);
        checkPairing(ca, snoop);
    }
    checkLength(ca, snoop);
    checkFreshness(ca, snoop);
}

// --- Endpoint-level checks -----------------------------------------

void
TraceAuditor::StreamLedger::add(uint64_t first, uint64_t count)
{
    padsConsumed += count;
    uint64_t end = first + count;
    if (!runs.empty() && runs.back().second == first)
        runs.back().second = end;
    else
        runs.emplace_back(first, end);
    if (end > nextFree)
        nextFree = end;
}

bool
TraceAuditor::StreamLedger::sameCoverage(
    const StreamLedger &other) const
{
    return padsConsumed == other.padsConsumed && runs == other.runs;
}

void
TraceAuditor::onPadUse(Tick when, unsigned channel,
                       EndpointSide side, CounterStream stream,
                       uint64_t first, uint64_t count)
{
    OBF_DCHECK(count > 0, "empty pad run reported");
    if (channel >= chans.size())
        return;
    StreamLedger &ledger =
        chans[channel].ledgers[static_cast<unsigned>(side)]
                              [static_cast<unsigned>(stream)];
    if (first < ledger.nextFree) {
        std::ostringstream oss;
        oss << endpointSideName(side) << " side consumed "
            << counterStreamName(stream) << " pads [" << first << ", "
            << first + count << ") but the stream cursor is already "
            << "at " << ledger.nextFree
            << " (pad reuse / counter rollback)";
        addViolation(Invariant::CounterMonotonic, channel, when, 0,
                     oss.str());
    }
    ledger.add(first, count);
}

void
TraceAuditor::onIncident(Tick when, unsigned channel,
                         EndpointSide side, ChannelIncident incident)
{
    if (channel >= chans.size())
        return;

    // A completed re-key restarts the reporting side's data-plane
    // counters at zero under the new epoch key. Reset that side's
    // ledgers so post-epoch pad reports don't trip CounterMonotonic;
    // both endpoints report their own completion, so the CounterSync
    // comparison still runs over matching (post-epoch) coverage.
    if (incident == ChannelIncident::RekeyCompleted) {
        auto s = static_cast<unsigned>(side);
        chans[channel].ledgers[s][0] = StreamLedger{};
        chans[channel].ledgers[s][1] = StreamLedger{};
    }

    bool recoverable = incident != ChannelIncident::ChannelQuarantined;
    if (params.tolerateRecoverableIncidents && recoverable) {
        ++tolerated;
        return;
    }
    std::ostringstream oss;
    oss << endpointSideName(side) << " side rejected a message: "
        << channelIncidentName(incident);
    addViolation(Invariant::EndpointIncident, channel, when, 0,
                 oss.str());
}

// --- Post-run pass --------------------------------------------------

uint64_t
TraceAuditor::violationCountFor(Invariant invariant) const
{
    return invariantCounts[static_cast<size_t>(invariant)];
}

bool
TraceAuditor::finalize()
{
    if (finalized)
        return ok();
    finalized = true;

    constexpr auto proc =
        static_cast<unsigned>(EndpointSide::Processor);
    constexpr auto mem = static_cast<unsigned>(EndpointSide::Memory);
    constexpr auto req = static_cast<unsigned>(CounterStream::Request);
    constexpr auto resp =
        static_cast<unsigned>(CounterStream::Response);

    for (unsigned c = 0; c < chans.size(); ++c) {
        const ChannelAudit &ca = chans[c];
        // Skip channels no endpoint reported on (plain path runs).
        if (ca.ledgers[proc][req].padsConsumed == 0
            && ca.ledgers[mem][req].padsConsumed == 0) {
            continue;
        }
        if (!ca.ledgers[proc][req].sameCoverage(
                ca.ledgers[mem][req])) {
            std::ostringstream oss;
            oss << "request-stream counters diverged: proc consumed "
                << ca.ledgers[proc][req].padsConsumed
                << " pads (cursor "
                << ca.ledgers[proc][req].nextFree
                << "), mem consumed "
                << ca.ledgers[mem][req].padsConsumed << " (cursor "
                << ca.ledgers[mem][req].nextFree << ")";
            addViolation(Invariant::CounterSync, c, 0, 0, oss.str());
        }
        if (!ca.ledgers[mem][resp].sameCoverage(
                ca.ledgers[proc][resp])) {
            std::ostringstream oss;
            oss << "response-stream counters diverged: mem consumed "
                << ca.ledgers[mem][resp].padsConsumed
                << " pads (cursor "
                << ca.ledgers[mem][resp].nextFree
                << "), proc consumed "
                << ca.ledgers[proc][resp].padsConsumed << " (cursor "
                << ca.ledgers[proc][resp].nextFree << ")";
            addViolation(Invariant::CounterSync, c, 0, 0, oss.str());
        }
    }

    if (params.channelScheme != ChannelScheme::None
        && params.channels > 1) {
        double solo = soloBucketFraction();
        if (solo > params.maxSoloBucketFraction) {
            std::ostringstream oss;
            oss << "inter-channel correlation visible: "
                << (solo * 100.0)
                << "% of active buckets had exactly one busy channel"
                << " (tolerance "
                << (params.maxSoloBucketFraction * 100.0) << "%)";
            addViolation(Invariant::DummyCoverage, 0, 0, 0,
                         oss.str());
        }
    }
    return ok();
}

bool
TraceAuditor::report(std::ostream &os) const
{
    os << "trace-audit: " << messages << " messages on "
       << params.channels << " channel(s), "
       << (params.uniformPackets ? "uniform" : "split")
       << " scheme\n";
    for (const Violation &v : findings)
        os << "  " << v << "\n";
    if (violationCount > findings.size()) {
        os << "  ... " << (violationCount - findings.size())
           << " further violations not recorded\n";
    }
    for (size_t i = 0; i < std::size(invariantCounts); ++i) {
        if (invariantCounts[i] == 0)
            continue;
        os << "  total "
           << invariantName(static_cast<Invariant>(i)) << ": "
           << invariantCounts[i] << "\n";
    }
    if (tolerated > 0) {
        os << "  recoverable incidents tolerated: " << tolerated
           << "\n";
    }
    os << "trace-audit: "
       << (ok() ? "PASS (all invariants upheld)"
                : "FAIL (" + std::to_string(violationCount)
                      + " violations)")
       << "\n";
    return ok();
}

} // namespace check
} // namespace obfusmem
