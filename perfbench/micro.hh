/**
 * @file
 * Per-layer micro cases: each drives one layer's public functions with
 * canned inputs and reports the host cost of one operation.
 */

#ifndef HSC_PERFBENCH_MICRO_HH
#define HSC_PERFBENCH_MICRO_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hh"

namespace perfbench
{

struct MicroResult
{
    std::string metric; ///< per-layer metric name, e.g. "cache.lookup_ns"
    double nsPerOp = 0; ///< median over the case's repetitions
    /** Layer counts the case observed (name, value). */
    std::vector<std::pair<std::string, double>> counts;
};

/**
 * Run every micro case, each under a "micro.<metric>" span.
 * @p trace_bytes is the scenario trace the TraceReader case decodes.
 */
std::vector<MicroResult> runMicroCases(const std::string &trace_bytes,
                                       SpanRecorder &spans);

} // namespace perfbench

#endif // HSC_PERFBENCH_MICRO_HH
