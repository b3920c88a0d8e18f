#include "workloads.hh"

#include <sstream>
#include <stdexcept>

#include "bench/bench_util.hh"
#include "trace/trace_io.hh"
#include "trace/trace_workload.hh"

namespace perfbench
{

namespace
{

/** Problem-size multiplier of chai_paper: a pass of all twenty runs
 *  takes about a second on a 4-core x86 host. */
constexpr unsigned ChaiScale = 64;

WorkloadDef
chaiPaper(std::uint64_t seed)
{
    WorkloadDef def{"chai_paper", {}, nullptr};
    hsc::WorkloadParams params = hsc::bench::figureParams();
    params.scale = ChaiScale;
    params.seed = seed;
    for (const std::string &id : hsc::workloadIds()) {
        for (hsc::SystemConfig cfg :
             {hsc::baselineConfig(), hsc::sharerTrackingConfig()}) {
            hsc::bench::scaleHierarchy(cfg); // also turns the checker off
            def.sims.push_back({id + "/" + cfg.label, cfg, [id, params] {
                                    return hsc::makeWorkload(id, params);
                                }});
        }
    }
    return def;
}

WorkloadDef
scenarioWrite(std::uint64_t seed)
{
    WorkloadDef def{"scenario_write", {}, nullptr};
    def.traceBytes = std::make_shared<const std::string>(scenarioBytes(seed));
    hsc::SystemConfig cfg = hsc::sharerTrackingConfig();
    hsc::bench::scaleHierarchy(cfg); // checker off; see workloads.hh
    std::shared_ptr<const std::string> bytes = def.traceBytes;
    def.sims.push_back({"scenario/" + cfg.label, cfg, [bytes] {
                            // Copying the bytes into the stream and
                            // decoding the header are set-up work.
                            auto in = std::make_shared<std::istringstream>(
                                *bytes, std::ios::binary);
                            return std::make_unique<hsc::TraceWorkload>(
                                hsc::WorkloadParams{}, in);
                        }});
    return def;
}

} // namespace

WorkloadDef
makeWorkloadDef(const std::string &name, std::uint64_t seed)
{
    if (name == "chai_paper")
        return chaiPaper(seed);
    if (name == "scenario_write")
        return scenarioWrite(seed);
    throw std::invalid_argument("unknown workload: " + name);
}

hsc::ScenarioConfig
checkedScenario(std::uint64_t seed)
{
    hsc::ScenarioConfig c;
    c.seed = seed;
    c.cpuThreads = 8;
    c.gpuKernels = 0;
    c.opsPerCpuThread = 32000;
    c.workingSetBytes = 128 * 1024; // twice the 64 KB scaled LLC
    c.zipfAlpha = 0.9;
    c.readPct = 30;
    c.atomicPct = 25;
    c.vectorPct = 20;
    c.sharedPct = 50;
    c.dmaPct = 5;
    c.phases = 4;
    c.producerConsumer = true;
    return c;
}

std::string
scenarioBytes(std::uint64_t seed)
{
    std::ostringstream os(std::ios::binary);
    hsc::generateScenarioTrace(checkedScenario(seed), os);
    return os.str();
}

double
scenarioWriteShare(const std::string &bytes)
{
    std::istringstream in(bytes, std::ios::binary);
    hsc::TraceReader reader(in);
    std::uint64_t mem = 0;
    std::uint64_t writes = 0;
    reader.validateAll([&](const hsc::TraceRecord &r) {
        using hsc::TraceOp;
        switch (r.op) {
          case TraceOp::CpuLoad:
          case TraceOp::GpuLoad:
          case TraceOp::GpuVload:
          case TraceOp::DmaRead:
            ++mem;
            break;
          case TraceOp::CpuStore:
          case TraceOp::CpuAmo:
          case TraceOp::GpuStore:
          case TraceOp::GpuAmo:
          case TraceOp::GpuVstore:
          case TraceOp::DmaWrite:
          case TraceOp::DmaCopy:
            ++mem;
            ++writes;
            break;
          default:
            break;
        }
    });
    return mem ? double(writes) / double(mem) : 0.0;
}

} // namespace perfbench
