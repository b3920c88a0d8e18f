/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span marks one call into a public simulator function (constructor,
 * Workload::setup, HsaSystem::run, Workload::verify, destructor) or
 * one micro case.  Each span has a name, a start, an end, its parent
 * and a simulation id shared by every span of one simulation.  Spans
 * stay in memory and are written out once, when the run ends; the
 * untraced passes never touch a recorder.
 */

#ifndef HSC_PERFBENCH_SPANS_HH
#define HSC_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanRecorder
{
  public:
    static constexpr int NoParent = -1;

    struct Span
    {
        std::string name;
        std::uint64_t simId = 0;
        int parent = NoParent;
        Clock::time_point start;
        Clock::time_point end;
    };

    SpanRecorder() : origin(Clock::now()) {}

    /** Open a span under the innermost open one. */
    void
    open(std::string name, std::uint64_t sim_id)
    {
        int parent = stack.empty() ? NoParent : stack.back();
        spans.push_back({std::move(name), sim_id, parent, Clock::now(), {}});
        stack.push_back(int(spans.size()) - 1);
    }

    /** Close the innermost open span. */
    void
    close()
    {
        spans[std::size_t(stack.back())].end = Clock::now();
        stack.pop_back();
    }

    /** One JSON object per span, times in seconds from construction. */
    void
    write(std::ostream &os) const
    {
        os << "[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << "  {\"id\": " << i << ", \"name\": \"" << s.name
               << "\", \"sim\": " << s.simId << ", \"parent\": " << s.parent
               << ", \"start\": " << at(s.start) << ", \"end\": " << at(s.end)
               << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        os << "]\n";
    }

  private:
    double
    at(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - origin).count();
    }

    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** RAII span; a null recorder makes it a no-op (untraced passes). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, std::uint64_t sim_id)
        : rec(rec)
    {
        if (rec)
            rec->open(name, sim_id);
    }
    ~ScopedSpan()
    {
        if (rec)
            rec->close();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec;
};

} // namespace perfbench

#endif // HSC_PERFBENCH_SPANS_HH
