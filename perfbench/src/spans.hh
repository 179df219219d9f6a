/**
 * @file
 * In-memory span recorder for the traced benchmark run. A span covers
 * one call the benchmark makes into a simulator layer (construction,
 * run(), the round-trip probe, a crypto microbenchmark); spans nest
 * through an explicit parent stack and are written out as JSON once,
 * when the benchmark ends. A recorder starts disabled and then records
 * nothing, so the untraced rounds pay one branch per call site.
 */

#ifndef OBFBENCH_SPANS_HH
#define OBFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace obfbench {

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::string config;
        int64_t startNs = 0;
        int64_t endNs = 0;
        /** Index of the enclosing span, or -1 at top level. */
        int parent = -1;
    };

    void setEnabled(bool enabled) { on = enabled; }

    /** Open a span; returns its index (-1 when disabled). */
    int
    open(std::string name, std::string config)
    {
        if (!on)
            return -1;
        Span s;
        s.name = std::move(name);
        s.config = std::move(config);
        s.parent = stack.empty() ? -1 : stack.back();
        s.startNs = nowNs();
        spans.push_back(std::move(s));
        stack.push_back(static_cast<int>(spans.size() - 1));
        return stack.back();
    }

    void
    close(int index)
    {
        if (index < 0)
            return;
        spans[index].endNs = nowNs();
        // Spans close in LIFO order (RAII scopes).
        if (!stack.empty() && stack.back() == index)
            stack.pop_back();
    }

    const std::vector<Span> &all() const { return spans; }

    /** JSON array of every span, times relative to the first one. */
    void
    writeJson(std::ostream &os) const
    {
        const int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
        os << "[";
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << (i ? ",\n " : "\n ") << "{\"id\":" << i
               << ",\"name\":\"" << s.name << "\",\"config\":\""
               << s.config << "\",\"start_ns\":" << s.startNs - t0
               << ",\"end_ns\":" << s.endNs - t0
               << ",\"parent\":" << s.parent << "}";
        }
        os << "\n]\n";
    }

  private:
    static int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    bool on = false;
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** RAII span scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::string config)
        : recorder(rec),
          index(rec.open(std::move(name), std::move(config)))
    {}
    ~ScopedSpan() { recorder.close(index); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder;
    int index;
};

} // namespace obfbench

#endif // OBFBENCH_SPANS_HH
