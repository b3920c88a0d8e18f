#include "micro.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "cache/cache_array.hh"
#include "core/hsa_system.hh"
#include "core/task.hh"
#include "mem/main_memory.hh"
#include "mem/message_buffer.hh"
#include "protocol/cpu/core_pair.hh"
#include "protocol/dir/directory.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/stats.hh"
#include "trace/trace_io.hh"

namespace perfbench
{

namespace
{

using hsc::Addr;
using hsc::Msg;
using hsc::MsgType;

constexpr int Reps = 7;

/** Keeps results observable so no timed loop is optimised away. */
volatile std::uint64_t sink;

/** One repetition's elapsed seconds and operations done. */
struct RepTime
{
    double seconds = 0;
    std::uint64_t ops = 0;
};

/** Median ns/op over Reps calls of @p rep. */
template <typename Rep>
double
medianNs(Rep &&rep)
{
    std::vector<double> ns;
    for (int i = 0; i < Reps; ++i) {
        RepTime t = rep();
        if (t.ops == 0)
            throw std::logic_error("micro case did no work");
        ns.push_back(t.seconds * 1e9 / double(t.ops));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

hsc::ClockDomain
cpuClock()
{
    return hsc::ClockDomain::fromMHz(3500);
}

// ---- EventQueue schedule + dispatch ---------------------------------

MicroResult
eventQueueCase()
{
    // Self-rescheduling chains with controller-like delays: link hops,
    // cache and directory latencies, and a DRAM access (ticks are ps).
    static const hsc::Tick delays[] = {2860, 5720, 286, 42900, 5720, 2860};
    constexpr unsigned Chains = 64;
    constexpr std::uint64_t Events = 200'000;
    MicroResult r;
    r.nsPerOp = medianNs(
        [&] {
            hsc::EventQueue eq;
            std::uint64_t left = Events;
            unsigned k = 0;
            std::function<void()> step = [&] {
                if (left == 0)
                    return;
                --left;
                eq.scheduleIn(delays[k++ % 6], [&] { step(); });
            };
            Clock::time_point t0 = Clock::now();
            for (unsigned c = 0; c < Chains; ++c)
                eq.schedule(hsc::Tick(c), [&] { step(); });
            std::uint64_t n = eq.run();
            double s = secondsSince(t0);
            sink = n;
            return RepTime{s, n};
        });
    return r;
}

// ---- MessageBuffer enqueue -> consumer ------------------------------

MicroResult
messageBufferCase()
{
    constexpr unsigned Burst = 16;
    constexpr unsigned Rounds = 8192;
    MicroResult r;
    hsc::EventQueue eq;
    hsc::MessageBuffer link("micro.link", eq, 2860);
    std::uint64_t consumed = 0;
    link.setConsumer([&](Msg &&m) { consumed += m.addr; });
    r.nsPerOp = medianNs(
        [&] {
            Clock::time_point t0 = Clock::now();
            for (unsigned i = 0; i < Rounds; ++i) {
                for (unsigned b = 0; b < Burst; ++b) {
                    Msg m;
                    m.type = MsgType::PrbResp;
                    m.addr = Addr(b) << hsc::BlockShift;
                    link.enqueue(std::move(m));
                }
                eq.run();
            }
            return RepTime{secondsSince(t0), std::uint64_t(Rounds) * Burst};
        });
    sink = consumed;
    r.counts = {{"mem.msgbuf.delivered", double(link.deliveredCount())},
                {"mem.msgbuf.peak_depth", double(link.peakDepth())}};
    return r;
}

// ---- Directory against fake clients ----------------------------------

/** A coherence client that answers probes as the dirty owner and
 *  unblocks every response, like a real L2. */
class FakeClient
{
  public:
    FakeClient(hsc::MachineId id, hsc::MessageBuffer &to_dir)
        : id(id), toDir(to_dir)
    {}

    void
    bind(hsc::MessageBuffer &from_dir)
    {
        from_dir.setConsumer([this](Msg &&m) { receive(std::move(m)); });
    }

    void
    send(MsgType type, Addr addr)
    {
        Msg m;
        m.type = type;
        m.addr = addr;
        m.sender = id;
        toDir.enqueue(std::move(m));
    }

  private:
    void
    receive(Msg &&m)
    {
        Msg out;
        out.addr = m.addr;
        out.sender = id;
        if (m.type == MsgType::PrbInv || m.type == MsgType::PrbDowngrade) {
            out.type = MsgType::PrbResp;
            out.txnId = m.txnId;
            out.hit = out.hasData = out.dirty = true;
            out.data.set<std::uint64_t>(0, m.addr);
        } else if (m.type == MsgType::SysResp) {
            out.type = MsgType::Unblock;
        } else {
            return;
        }
        toDir.enqueue(std::move(out));
    }

    hsc::MachineId id;
    hsc::MessageBuffer &toDir;
};

/** A sharer-tracking directory bank wired to fake clients. */
struct DirRig
{
    static constexpr hsc::Tick LinkTicks = 10 * 286;

    DirRig() : mem("micro.mem", eq, 150 * 286, 10 * 286)
    {
        hsc::DirParams params;
        params.topo = hsc::Topology{2, 1};
        params.cfg = hsc::sharerTrackingConfig().dir;
        params.cfg.dirEntries = 4096;
        params.cfg.dirAssoc = 16;
        params.llc.geom = {128, 8};
        dir = std::make_unique<hsc::DirectoryController>(
            "micro.dir", eq, cpuClock(), params, mem);
        for (unsigned i = 0; i < params.topo.numClients(); ++i) {
            auto n = std::to_string(i);
            toDir.push_back(std::make_unique<hsc::MessageBuffer>(
                "micro.toDir" + n, eq, LinkTicks));
            fromDir.push_back(std::make_unique<hsc::MessageBuffer>(
                "micro.fromDir" + n, eq, LinkTicks));
            dir->bindFromClient(*toDir[i]);
            dir->bindToClient(hsc::MachineId(i), *fromDir[i]);
            clients.push_back(
                std::make_unique<FakeClient>(hsc::MachineId(i), *toDir[i]));
            clients.back()->bind(*fromDir[i]);
        }
        dir->regStats(stats);
    }

    /** Client @p c requests every line in @p lines, then drain. */
    void
    round(unsigned c, MsgType type, const std::vector<Addr> &lines)
    {
        for (Addr a : lines)
            clients[c]->send(type, a);
        eq.run();
    }

    hsc::EventQueue eq;
    hsc::StatRegistry stats;
    hsc::MainMemory mem;
    std::unique_ptr<hsc::DirectoryController> dir;
    std::vector<std::unique_ptr<hsc::MessageBuffer>> toDir;
    std::vector<std::unique_ptr<hsc::MessageBuffer>> fromDir;
    std::vector<std::unique_ptr<FakeClient>> clients;
};

std::vector<Addr>
lineSet(unsigned n)
{
    std::vector<Addr> lines;
    for (unsigned i = 0; i < n; ++i)
        lines.push_back(0x100000 + (Addr(i) << hsc::BlockShift));
    return lines;
}

/** GetS: two clients alternately read lines tracked Shared, so every
 *  request is served from the LLC/memory without probes. */
MicroResult
dirGetSCase()
{
    constexpr unsigned Lines = 64;
    constexpr unsigned Rounds = 64;
    MicroResult r;
    DirRig rig;
    std::vector<Addr> lines = lineSet(Lines);
    rig.round(0, MsgType::RdBlkS, lines); // warm: lines become tracked S
    r.nsPerOp = medianNs(
        [&] {
            Clock::time_point t0 = Clock::now();
            for (unsigned i = 0; i < Rounds; ++i)
                rig.round(i % 2, MsgType::RdBlkS, lines);
            return RepTime{secondsSince(t0), std::uint64_t(Rounds) * Lines};
        });
    if (rig.stats.counter("micro.dir.probesSent") != 0)
        throw std::logic_error("dir.gets_ns: a GetS sent probes");
    return r;
}

/** GetM with probes: two clients alternately take write permission, so
 *  every request invalidates the other client's dirty copy. */
MicroResult
dirGetMCase()
{
    constexpr unsigned Lines = 64;
    constexpr unsigned Rounds = 64;
    MicroResult r;
    DirRig rig;
    std::vector<Addr> lines = lineSet(Lines);
    rig.round(1, MsgType::RdBlkM, lines); // warm: client 1 owns them
    std::uint64_t probes0 = rig.stats.counter("micro.dir.probesSent");
    std::uint64_t ops = 0;
    r.nsPerOp = medianNs(
        [&] {
            Clock::time_point t0 = Clock::now();
            for (unsigned i = 0; i < Rounds; ++i)
                rig.round(i % 2, MsgType::RdBlkM, lines);
            ops += std::uint64_t(Rounds) * Lines;
            return RepTime{secondsSince(t0), std::uint64_t(Rounds) * Lines};
        });
    std::uint64_t probes = rig.stats.counter("micro.dir.probesSent") - probes0;
    if (probes < ops)
        throw std::logic_error("dir.getm_probe_ns: a GetM sent no probe");
    return r;
}

// ---- CorePair L2 hit --------------------------------------------------

/** A CorePair whose directory grants every request Exclusive. */
struct CorePairRig
{
    CorePairRig()
        : toDir("micro.cp.toDir", eq, DirRig::LinkTicks),
          fromDir("micro.cp.fromDir", eq, DirRig::LinkTicks)
    {
        hsc::CorePairParams params;
        params.l2Geom = {64, 8}; // 512 lines
        params.l1dGeom = {8, 2}; // 16 lines: the case's loads miss L1
        params.l1iGeom = {8, 2};
        cp = std::make_unique<hsc::CorePairController>(
            "micro.cp", eq, cpuClock(), 0, params, toDir);
        cp->bindFromDir(fromDir);
        cp->regStats(stats);
        toDir.setConsumer([this](Msg &&m) {
            Msg r;
            r.addr = m.addr;
            if (m.type == MsgType::VicClean || m.type == MsgType::VicDirty) {
                r.type = MsgType::WBAck;
            } else if (m.type == MsgType::Unblock) {
                return;
            } else {
                r.type = MsgType::SysResp;
                r.hasData = true;
                r.grant = hsc::Grant::Exclusive;
            }
            fromDir.enqueue(std::move(r));
        });
    }

    hsc::EventQueue eq;
    hsc::StatRegistry stats;
    hsc::MessageBuffer toDir;
    hsc::MessageBuffer fromDir;
    std::unique_ptr<hsc::CorePairController> cp;
};

MicroResult
corePairL2HitCase()
{
    constexpr unsigned Lines = 256;
    constexpr unsigned Rounds = 256;
    MicroResult r;
    CorePairRig rig;
    std::vector<Addr> lines = lineSet(Lines);
    std::uint64_t loaded = 0;
    auto round = [&] {
        for (Addr a : lines)
            rig.cp->load(0, a, 8, [&](std::uint64_t v) { loaded += v + 1; });
        rig.eq.run();
    };
    round(); // warm: every line misses once and fills the L2
    std::uint64_t hits0 = rig.stats.counter("micro.cp.l2Hits");
    std::uint64_t ops = 0;
    r.nsPerOp = medianNs(
        [&] {
            Clock::time_point t0 = Clock::now();
            for (unsigned i = 0; i < Rounds; ++i)
                round();
            ops += std::uint64_t(Rounds) * Lines;
            return RepTime{secondsSince(t0), std::uint64_t(Rounds) * Lines};
        });
    sink = loaded;
    if (rig.stats.counter("micro.cp.l2Hits") - hits0 != ops)
        throw std::logic_error("corepair.l2_hit_ns: a load missed the L2");
    return r;
}

// ---- CacheArray lookup and TreePLRU victim ---------------------------

MicroResult
cacheLookupCase()
{
    constexpr std::uint64_t Lookups = 1u << 20;
    MicroResult r;
    struct Payload
    {
        int state = 0;
    };
    hsc::CacheArray<Payload> arr("micro.cache", {1024, 8});
    hsc::Rng rng(1);
    std::vector<Addr> addrs;
    while (addrs.size() < 4096) {
        Addr a = hsc::blockAlign(rng.next() % (1u << 24));
        if (!arr.lookup(a) && arr.hasFreeWay(a)) {
            arr.allocate(a);
            addrs.push_back(a);
        }
    }
    // Half the probes miss: the canned stream interleaves resident and
    // absent lines.
    for (std::size_t i = 0, n = addrs.size(); i < n; ++i)
        addrs.push_back(addrs[i] + (Addr(1) << 30));
    r.nsPerOp = medianNs(
        [&] {
            std::uint64_t hits = 0;
            Clock::time_point t0 = Clock::now();
            for (std::uint64_t i = 0; i < Lookups; ++i)
                hits += arr.lookup(addrs[(i * 7919) % addrs.size()]) != nullptr;
            double s = secondsSince(t0);
            sink = hits;
            return RepTime{s, Lookups};
        });
    return r;
}

MicroResult
plruVictimCase()
{
    constexpr std::uint64_t Victims = 1u << 20;
    MicroResult r;
    hsc::TreePlruPolicy plru(256, 16);
    for (unsigned s = 0; s < 256; ++s)
        for (unsigned w = 0; w < 16; ++w)
            plru.fill(s, w);
    r.nsPerOp = medianNs(
        [&] {
            std::uint64_t acc = 0;
            Clock::time_point t0 = Clock::now();
            for (std::uint64_t i = 0; i < Victims; ++i) {
                auto set = unsigned((i * 40503u) & 255u);
                unsigned v = plru.victim(set);
                plru.touch(set, v);
                acc += v;
            }
            double s = secondsSince(t0);
            sink = acc;
            return RepTime{s, Victims};
        });
    return r;
}

// ---- Awaiter round trip ------------------------------------------------

/** Suspends the awaiting coroutine for one event-queue tick. */
struct TickOp : hsc::AwaitVoidOpBase<TickOp>
{
    hsc::EventQueue *eq;

    void
    start()
    {
        eq->scheduleIn(1, [this] { complete(); });
    }
};

hsc::SimTask
awaitLoop(hsc::EventQueue &eq, std::uint64_t n, std::uint64_t &done)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        co_await TickOp{{}, &eq};
        ++done;
    }
}

MicroResult
awaitCase()
{
    constexpr std::uint64_t Awaits = 200'000;
    MicroResult r;
    r.nsPerOp = medianNs(
        [&] {
            hsc::EventQueue eq;
            std::uint64_t done = 0;
            Clock::time_point t0 = Clock::now();
            awaitLoop(eq, Awaits, done).start();
            eq.run();
            double s = secondsSince(t0);
            if (done != Awaits)
                throw std::logic_error("core.await_ns: coroutine stalled");
            return RepTime{s, done};
        });
    return r;
}

// ---- StatRegistry::addCounter -------------------------------------------

MicroResult
statRegisterCase()
{
    MicroResult r;
    // Canned names: the counter namespace of the big64 machine.
    std::vector<std::string> names;
    {
        hsc::SystemConfig cfg = hsc::big64Config();
        cfg.check = false;
        hsc::HsaSystem sys(cfg);
        names = sys.stats().counterNames();
    }
    std::vector<hsc::Counter> counters(names.size());
    r.nsPerOp = medianNs(
        [&] {
            hsc::StatRegistry reg;
            Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < names.size(); ++i)
                reg.addCounter(names[i], &counters[i]);
            return RepTime{secondsSince(t0), names.size()};
        });
    return r;
}

// ---- TraceReader decode --------------------------------------------------

MicroResult
traceDecodeCase(const std::string &bytes)
{
    MicroResult r;
    r.nsPerOp = medianNs(
        [&] {
            std::istringstream in(bytes, std::ios::binary);
            Clock::time_point t0 = Clock::now();
            hsc::TraceReader reader(in);
            std::uint64_t records = 0;
            reader.validateAll([&](const hsc::TraceRecord &) { ++records; });
            return RepTime{secondsSince(t0), records};
        });
    return r;
}

} // namespace

std::vector<MicroResult>
runMicroCases(const std::string &trace_bytes, SpanRecorder &spans)
{
    const std::vector<std::pair<const char *, std::function<MicroResult()>>>
        cases = {
            {"sim.eq.ns_per_event", eventQueueCase},
            {"mem.msgbuf.ns_per_msg", messageBufferCase},
            {"dir.gets_ns", dirGetSCase},
            {"dir.getm_probe_ns", dirGetMCase},
            {"corepair.l2_hit_ns", corePairL2HitCase},
            {"cache.lookup_ns", cacheLookupCase},
            {"cache.plru_victim_ns", plruVictimCase},
            {"core.await_ns", awaitCase},
            {"stats.ns_per_register", statRegisterCase},
            {"trace.decode_ns_per_record",
             [&trace_bytes] { return traceDecodeCase(trace_bytes); }},
        };
    std::vector<MicroResult> out;
    for (const auto &[metric, fn] : cases) {
        ScopedSpan span(&spans, (std::string("micro.") + metric).c_str(), 0);
        out.push_back(fn());
        out.back().metric = metric;
    }
    return out;
}

} // namespace perfbench
