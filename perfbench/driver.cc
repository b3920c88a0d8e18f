/**
 * @file
 * perfbench_driver — one pass of one benchmark workload per process,
 * printed as one JSON object per line for run.py to reduce.
 *
 *   perfbench_driver --workload <name> --seed <n>
 *                    [--spans-out <file>] [--check] [--fail-verify]
 *   perfbench_driver --micro --seed <n> --spans-out <file>
 *   perfbench_driver --scenario-digest --seed <n>
 *
 * A pass simulates every run of the workload once, serially, from
 * construction to destruction; the next simulation starts only when
 * the previous one has been torn down.  Each pass runs in a fresh
 * process, so every construction pays what one hsc_run invocation
 * pays (a long-lived process would recycle the previous system's
 * pages instead).  Only calls into public functions are timed: the
 * HsaSystem constructor, Workload::setup, HsaSystem::run,
 * Workload::verify and the destructor.  Each simulation reports its
 * fingerprint — simulated cycles, events executed and an FNV-1a hash
 * of the stat dump — for run.py's correctness gate — and the pass
 * reports per-layer counts from each simulation's StatRegistry.
 * --spans-out makes a traced pass, with spans around every timed call;
 * --check turns the coherence checker on for every simulation.
 */

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/hsa_system.hh"
#include "micro.hh"
#include "sim/hash.hh"
#include "spans.hh"
#include "trace/trace_io.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    std::string spansOut; ///< set: record spans (a traced pass)
    bool micro = false;
    bool digest = false;
    bool check = false;      ///< force the coherence checker on
    bool failVerify = false; ///< test hook: fail the first verify()
};

/** FNV-1a over the sorted stat dump (every counter name and value). */
std::uint64_t
statHash(const hsc::StatRegistry::Snapshot &snap)
{
    std::uint64_t h = hsc::FnvOffsetBasis;
    for (const auto &[name, value] : snap) {
        h = hsc::fnvBytes(name.data(), name.size(), h);
        h = hsc::fnvBytes(&value, sizeof(value), h);
    }
    return h;
}

/** Minimal JSON string escaping for labels and error messages. */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Per-layer counts summed over a pass from each simulation's registry. */
struct LayerCounts
{
    static constexpr const char *Names[] = {
        "stats.registered",  "sim.events",         "dir.requests",
        "dir.probes_sent",   "dir.probes_elided",  "dir.stalls",
        "dir.set_conflict_retries", "llc.reads",   "llc.read_hits",
        "corepair.l2_hits",  "corepair.l2_misses", "tcc.hits",
        "tcc.misses",        "checker.transitions_checked",
    };
    std::uint64_t v[std::size(Names)] = {};

    void
    add(hsc::HsaSystem &sys, std::size_t registered)
    {
        const hsc::StatRegistry &r = sys.stats();
        const std::uint64_t vals[] = {
            registered,
            sys.eventsExecuted(),
            r.sumMatching("system.dir", ".requests"),
            r.sumMatching("system.dir", ".probesSent"),
            r.sumMatching("system.dir", ".probesElided"),
            r.sumMatching("system.dir", ".stalls"),
            r.sumMatching("system.dir", ".setConflictRetries"),
            r.sumMatching("system.dir", ".llc.reads"),
            r.sumMatching("system.dir", ".llc.readHits"),
            r.sumMatching("system.corepair", ".l2Hits"),
            r.sumMatching("system.corepair", ".l2Misses"),
            r.sumMatching("system.tcc", ".hits"),
            r.sumMatching("system.tcc", ".misses"),
            r.sumMatching("system.checker", ".transitionsChecked"),
        };
        for (std::size_t i = 0; i < std::size(Names); ++i)
            v[i] += vals[i];
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < std::size(Names); ++i) {
            out += (i ? ", " : "") + quote(Names[i]) + ": " +
                   std::to_string(v[i]);
        }
        return out + "}";
    }
};

/** What one simulation produced. */
struct SimOutcome
{
    bool ok = false;
    std::string error;
    hsc::Cycles cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t hash = 0;
    double setupS = 0; ///< construct + Workload::setup
    double runS = 0;   ///< HsaSystem::run
};

/**
 * Construct, set up, run, verify and destroy one simulation.  Every
 * failure (hang, SimError or other exception, checker violation,
 * failed verify) is caught and reported, never propagated.
 */
SimOutcome
simulate(const SimSpec &spec, const hsc::SystemConfig &cfg,
         SpanRecorder *spans, std::uint64_t sim_id, LayerCounts &counts,
         bool fail_verify)
{
    SimOutcome out;
    ScopedSpan sim_span(spans, "sim", sim_id);
    std::unique_ptr<hsc::HsaSystem> sys;
    std::unique_ptr<hsc::Workload> wl;
    try {
        Clock::time_point t0 = Clock::now();
        {
            ScopedSpan s(spans, "construct", sim_id);
            sys = std::make_unique<hsc::HsaSystem>(cfg);
        }
        {
            ScopedSpan s(spans, "setup", sim_id);
            wl = spec.make();
            wl->setup(*sys);
        }
        Clock::time_point t1 = Clock::now();
        bool ran;
        {
            ScopedSpan s(spans, "run", sim_id);
            ran = sys->run();
        }
        Clock::time_point t2 = Clock::now();
        bool verified = false;
        if (ran) {
            ScopedSpan s(spans, "verify", sim_id);
            verified = wl->verify(*sys) && !fail_verify;
        }
        out.setupS = std::chrono::duration<double>(t1 - t0).count();
        out.runS = std::chrono::duration<double>(t2 - t1).count();
        out.cycles = sys->cpuCycles();
        out.events = sys->eventsExecuted();
        hsc::StatRegistry::Snapshot snap = sys->stats().snapshot();
        out.hash = statHash(snap);
        counts.add(*sys, snap.size());
        out.ok = ran && verified;
        if (!ran)
            out.error = sys->failReason();
        else if (!verified)
            out.error = "verify failed";
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    ScopedSpan s(spans, "destroy", sim_id);
    sys.reset();
    wl.reset();
    return out;
}

std::string
simJson(const std::string &label, const SimOutcome &o)
{
    std::ostringstream os;
    os << "{\"label\": " << quote(label) << ", \"ok\": "
       << (o.ok ? "true" : "false") << ", \"cycles\": " << o.cycles
       << ", \"events\": " << o.events << ", \"hash\": \"" << std::hex
       << o.hash << std::dec << "\", \"error\": " << quote(o.error) << "}";
    return os.str();
}

/** Decoded records of an encoded trace. */
std::uint64_t
countRecords(const std::string &bytes)
{
    std::istringstream in(bytes, std::ios::binary);
    hsc::TraceReader reader(in);
    std::uint64_t n = 0;
    reader.validateAll([&](const hsc::TraceRecord &) { ++n; });
    return n;
}

/** One pass over every simulation of @p def; prints its JSON line with
 *  the pass's per-layer counts.  A non-null @p spans makes it a traced
 *  pass. */
void
runPass(const WorkloadDef &def, const Args &args, SpanRecorder *spans)
{
    LayerCounts counts;
    double setup_s = 0, run_s = 0;
    std::uint64_t events = 0;
    std::string sims;
    Clock::time_point t0 = Clock::now();
    {
        ScopedSpan pass_span(spans, "pass", 0);
        for (std::size_t i = 0; i < def.sims.size(); ++i) {
            const SimSpec &spec = def.sims[i];
            hsc::SystemConfig cfg = spec.cfg;
            cfg.check = cfg.check || args.check;
            SimOutcome o = simulate(spec, cfg, spans, i + 1, counts,
                                    args.failVerify && i == 0);
            setup_s += o.setupS;
            run_s += o.runS;
            events += o.events;
            sims += (i ? ", " : "") + simJson(spec.label, o);
        }
    }
    double wall_s = secondsSince(t0);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::cout << "{\"kind\": \"pass\", \"workload\": " << quote(def.name)
              << ", \"seed\": " << args.seed
              << ", \"traced\": " << (spans ? "true" : "false")
              << ", \"check\": " << (args.check ? "true" : "false")
              << ", \"wall_s\": " << wall_s << ", \"setup_s\": " << setup_s
              << ", \"run_s\": " << run_s << ", \"events\": " << events
              << ", \"peak_rss_kb\": " << ru.ru_maxrss << ", \"sims\": ["
              << sims << "], \"counts\": " << counts.json();
    if (spans && def.traceBytes) {
        std::cout << ", \"trace_records\": " << countRecords(*def.traceBytes)
                  << ", \"write_share\": "
                  << scenarioWriteShare(*def.traceBytes);
    }
    std::cout << "}\n";
}

void
runMicro(const Args &args, SpanRecorder &spans)
{
    // The TraceReader case decodes this seed's scenario bytes.
    for (const MicroResult &m : runMicroCases(scenarioBytes(args.seed), spans)) {
        std::cout << "{\"kind\": \"micro\", \"metric\": " << quote(m.metric)
                  << ", \"ns_per_op\": " << m.nsPerOp << ", \"counts\": {";
        for (std::size_t i = 0; i < m.counts.size(); ++i) {
            std::cout << (i ? ", " : "") << quote(m.counts[i].first) << ": "
                      << m.counts[i].second;
        }
        std::cout << "}}\n";
    }
}

void
printDigest(std::uint64_t seed)
{
    std::string bytes = scenarioBytes(seed);
    std::cout << "{\"kind\": \"digest\", \"seed\": " << seed
              << ", \"bytes\": " << bytes.size() << ", \"fnv\": \""
              << std::hex << hsc::fnvBytes(bytes.data(), bytes.size())
              << std::dec << "\", \"write_share\": "
              << scenarioWriteShare(bytes) << "}\n";
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            a.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            a.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--spans-out" && has_value) {
            a.spansOut = argv[++i];
        } else if (arg == "--micro") {
            a.micro = true;
        } else if (arg == "--scenario-digest") {
            a.digest = true;
        } else if (arg == "--check") {
            a.check = true;
        } else if (arg == "--fail-verify") {
            a.failVerify = true;
        } else {
            return false;
        }
    }
    if (!have_seed)
        return false;
    if (a.digest)
        return true;
    if (a.micro)
        return !a.spansOut.empty();
    return !a.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr
            << "usage: perfbench_driver --workload <name> --seed <n>\n"
               "                        [--spans-out <file>] [--check]"
               " [--fail-verify]\n"
               "       perfbench_driver --micro --seed <n> --spans-out <file>\n"
               "       perfbench_driver --scenario-digest --seed <n>\n";
        return 2;
    }
    std::cout.precision(9);

    if (args.digest) {
        printDigest(args.seed);
        return 0;
    }

    std::unique_ptr<SpanRecorder> spans;
    if (!args.spansOut.empty())
        spans = std::make_unique<SpanRecorder>();
    if (args.micro) {
        runMicro(args, *spans);
    } else {
        WorkloadDef def;
        try {
            def = makeWorkloadDef(args.workload, args.seed);
        } catch (const std::exception &e) {
            std::cerr << e.what() << '\n';
            return 2;
        }
        runPass(def, args, spans.get());
    }

    if (spans) {
        std::ofstream os(args.spansOut);
        spans->write(os);
        if (!os) {
            std::cerr << "cannot write spans to " << args.spansOut << '\n';
            return 1;
        }
    }
    return 0;
}
