/**
 * @file
 * The benchmark's workloads: which simulations one pass runs.
 *
 *  - chai_paper: the ten CHAI workloads x {baseline, sharers}, with the
 *    figure harnesses' scaled hierarchy and the checker off;
 *  - scenario_write: a write-heavy synthetic scenario replayed through
 *    TraceWorkload on sharers.  Its end-to-end passes run with the
 *    checker off: with it on, run time swings by up to 50% from one
 *    process to the next on a shared host, about five times as much as
 *    the other workloads.  The traced run replays the same trace with
 *    the checker on and reports its cost as a layer.
 *
 * Every input is a pure function of the workload name and the seed.
 */

#ifndef HSC_PERFBENCH_WORKLOADS_HH
#define HSC_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "trace/scenario.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** One simulation of a pass: a config and a workload factory. */
struct SimSpec
{
    std::string label; ///< "<workload>/<config>", unique within a pass
    hsc::SystemConfig cfg;
    std::function<std::unique_ptr<hsc::Workload>()> make;
};

/** Everything one benchmark workload simulates per pass. */
struct WorkloadDef
{
    std::string name;
    std::vector<SimSpec> sims;
    /** The encoded scenario trace (scenario_write only), generated
     *  before any timing starts. */
    std::shared_ptr<const std::string> traceBytes;
};

/** Build @p name's simulations for @p seed; throws on unknown names. */
WorkloadDef makeWorkloadDef(const std::string &name, std::uint64_t seed);

/**
 * The fixed shape of the scenario_write workload: writes plus
 * atomics are at least half of all memory ops, a zipf-skewed hot set
 * re-skewed over four phases, producer/consumer and DMA on, and a
 * working set twice the scaled LLC.  Only the seed varies.
 */
hsc::ScenarioConfig checkedScenario(std::uint64_t seed);

/** checkedScenario(@p seed) encoded as an hsct trace. */
std::string scenarioBytes(std::uint64_t seed);

/** Share of the trace's memory ops that write (stores, atomics, vector
 *  stores, DMA writes and copies). */
double scenarioWriteShare(const std::string &bytes);

} // namespace perfbench

#endif // HSC_PERFBENCH_WORKLOADS_HH
