#!/usr/bin/env python3
"""The repository benchmark: host time to simulate fixed workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench_driver (the simulator library plus the benchmark's own
driver) from source, then runs the workload in a closed loop: one pass
at a time, each in a fresh single-threaded process, until --seconds of
passes have been measured.  A pass simulates every run of the workload
once, from construction to destruction.

--trace 0 prints the end-to-end metrics (medians over the timed
passes).  --trace 1 is the separate traced run: the per-layer micro
cases, then untraced and traced passes alternately; it prints the
per-layer metrics, span self times and the tracing overhead.

Every simulation's fingerprint (simulated cycles, events executed, stat
dump hash) must match the first pass's, and, for seeds listed in
reference.json, the committed reference.  Any hang, SimError, checker
violation, failed verify() or fingerprint mismatch counts as a failed
simulation; the command then exits 1.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --write-reference 0-15   # regenerate
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("chai_paper", "scenario_write")
SCENARIO = "scenario_write"  # also replayed with the checker on when traced
MIN_PASSES = 5          # timed passes per side, however short --seconds is
PASS_TIMEOUT_S = 120    # one pass of any workload takes ~1 s
MIN_WRITE_SHARE = 0.5   # scenario_write: writes + atomics of all ops

# Units of every metric run.py reports, end-to-end and per layer.
UNITS = {
    "wall_s": "s", "setup_s": "s", "run_s": "s", "events_per_s": "1/s",
    "peak_rss_mb": "MB", "fail_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result (build or driver)."""


# ---- build -----------------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def drive(driver, args):
    """Run the driver once; returns its JSON lines."""
    try:
        proc = subprocess.run([driver] + args, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise BenchError("driver timed out: %s" % " ".join(args)) from e
    if proc.returncode != 0:
        raise BenchError("driver failed (%d): %s\n%s" % (
            proc.returncode, " ".join(args), proc.stderr))
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


# ---- reduction ---------------------------------------------------------

def fingerprint(sim):
    return [sim["cycles"], sim["events"], sim["hash"]]


def count_failures(passes, reference, checked=()):
    """Failed simulations over all passes, with one reason each.

    A simulation fails when it did not run or verify, when its
    fingerprint differs from the first pass's, or when the first pass
    differs from the committed reference.  Checker-on replays must pass
    the checker and reproduce the unchecked cycles and events: the
    checker observes, it never changes timing.
    """
    first = {s["label"]: fingerprint(s) for s in passes[0]["sims"]}
    reasons = []
    for p in passes:
        share = p.get("write_share")
        for s in p["sims"]:
            label = s["label"]
            if not s["ok"]:
                reasons.append("%s: %s" % (label, s["error"]))
            elif fingerprint(s) != first[label]:
                reasons.append("%s: fingerprint %s differs from the first "
                               "pass's %s" % (label, fingerprint(s),
                                              first[label]))
            elif reference is not None and \
                    fingerprint(s) != reference.get(label):
                reasons.append("%s: fingerprint %s differs from reference "
                               "%s" % (label, fingerprint(s),
                                       reference.get(label)))
            elif share is not None and share < MIN_WRITE_SHARE:
                reasons.append("%s: write share %.3f below %.2f" % (
                    label, share, MIN_WRITE_SHARE))
    for s in checked:
        ref = first[s["label"]][:2]
        if not s["ok"] or fingerprint(s)[:2] != ref:
            reasons.append("%s (checker on): %s cycles/events %s, unchecked "
                           "%s" % (s["label"], s["error"] or "ok",
                                   fingerprint(s)[:2], ref))
    return reasons


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_name(spans):
    """Total self time per span name, summed over one spans file."""
    selfs = self_times(spans)
    totals = defaultdict(float)
    for s in spans:
        totals[s["name"]] += selfs[s["id"]]
    return dict(totals)


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(timed):
    return {
        "wall_s": median_of(timed, "wall_s"),
        "setup_s": median_of(timed, "setup_s"),
        "run_s": median_of(timed, "run_s"),
        "events_per_s": statistics.median(
            p["events"] / p["run_s"] for p in timed),
        # A mean: per-pass peaks differ by a few pages, and a median
        # of near-equal values would hide that they were measured.
        "peak_rss_mb": statistics.mean(
            p["peak_rss_kb"] / 1024.0 for p in timed),
    }


def ratio(num, base):
    return num / base if base else 0.0


def per_layer(micro, untraced, traced, span_files, checked):
    """The per-layer metrics of a traced run, as (name, value, unit)."""
    counts = traced[0]["counts"]
    micro_ns = {m["metric"]: m["ns_per_op"] for m in micro}
    micro_counts = {}
    for m in micro:
        micro_counts.update(m["counts"])
    selfs = [self_time_by_name(spans) for spans in span_files]

    def span_s(name):
        return statistics.median(s.get(name, 0.0) for s in selfs)

    traced_wall = median_of(traced, "wall_s")
    requests = counts["dir.requests"]
    l2 = counts["corepair.l2_hits"] + counts["corepair.l2_misses"]
    tcc = counts["tcc.hits"] + counts["tcc.misses"]
    checker_s, transitions = 0.0, 0
    if checked:
        checker_s = median_of(checked, "run_s") - median_of(untraced, "run_s")
        transitions = checked[0]["counts"]["checker.transitions_checked"]
    rows = [
        ("stats.registered", counts["stats.registered"], "count"),
        ("stats.ns_per_register", micro_ns["stats.ns_per_register"], "ns"),
        ("core.construct_s", span_s("construct"), "s"),
        ("core.teardown_s", span_s("destroy"), "s"),
        ("core.construct_share", ratio(span_s("construct"), traced_wall),
         "ratio"),
        ("bench.traced_wall_s", traced_wall, "s"),
        ("core.await_ns", micro_ns["core.await_ns"], "ns"),
        ("sim.events", counts["sim.events"], "count"),
        ("sim.eq.ns_per_event", micro_ns["sim.eq.ns_per_event"], "ns"),
        ("mem.msgbuf.delivered", micro_counts["mem.msgbuf.delivered"],
         "count"),
        ("mem.msgbuf.ns_per_msg", micro_ns["mem.msgbuf.ns_per_msg"], "ns"),
        ("mem.msgbuf.peak_depth", micro_counts["mem.msgbuf.peak_depth"],
         "count"),
        ("dir.requests", requests, "count"),
        ("dir.probes_sent", counts["dir.probes_sent"], "count"),
        ("dir.probes_elided", counts["dir.probes_elided"], "count"),
        ("dir.stalls", counts["dir.stalls"], "count"),
        ("dir.set_conflict_retries", counts["dir.set_conflict_retries"],
         "count"),
        ("dir.set_conflict_retries_per_request",
         ratio(counts["dir.set_conflict_retries"], requests), "ratio"),
        ("dir.gets_ns", micro_ns["dir.gets_ns"], "ns"),
        ("dir.getm_probe_ns", micro_ns["dir.getm_probe_ns"], "ns"),
        ("llc.reads", counts["llc.reads"], "count"),
        ("llc.hit_ratio", ratio(counts["llc.read_hits"], counts["llc.reads"]),
         "ratio"),
        ("corepair.l2_accesses", l2, "count"),
        ("corepair.l2_hit_ratio", ratio(counts["corepair.l2_hits"], l2),
         "ratio"),
        ("tcc.accesses", tcc, "count"),
        ("tcc.hit_ratio", ratio(counts["tcc.hits"], tcc), "ratio"),
        ("corepair.l2_hit_ns", micro_ns["corepair.l2_hit_ns"], "ns"),
        ("cache.lookup_ns", micro_ns["cache.lookup_ns"], "ns"),
        ("cache.plru_victim_ns", micro_ns["cache.plru_victim_ns"], "ns"),
        ("trace.records", traced[0].get("trace_records", 0), "count"),
        ("trace.decode_ns_per_record",
         micro_ns["trace.decode_ns_per_record"], "ns"),
        ("checker.transitions_checked", transitions, "count"),
        ("checker.host_s", checker_s, "s"),
        ("bench.tracing_overhead_s",
         traced_wall - median_of(untraced, "wall_s"), "s"),
    ]
    for name in ("pass", "sim", "setup", "run", "verify"):
        rows.append(("span.%s.self_s" % name, span_s(name), "s"))
    return rows


# ---- runs ----------------------------------------------------------------

def load_reference(workload, seed):
    try:
        with open(REFERENCE) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def pass_args(workload, seed, extra=()):
    return ["--workload", workload, "--seed", str(seed)] + list(extra)


def run_passes(driver, workload, seed, seconds, trace, fail_verify):
    """Warm-up pass, then timed passes until --seconds have elapsed."""
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    micro, span_files, checked = [], [], []
    if trace:
        path = os.path.join(spans_dir, "micro-s%d.json" % seed)
        micro = drive(driver, ["--micro", "--seed", str(seed),
                               "--spans-out", path])
        with open(path) as f:
            span_files.append(json.load(f))
    extra = ["--fail-verify"] if fail_verify else []
    warmup = drive(driver, pass_args(workload, seed, extra))[-1]
    untraced, traced = [], []
    t0 = time.monotonic()
    k = 0
    while (time.monotonic() - t0 < seconds or len(untraced) < MIN_PASSES
           or (trace and len(traced) < MIN_PASSES)):
        k += 1
        untraced.append(drive(driver, pass_args(workload, seed))[-1])
        if not trace:
            continue
        path = os.path.join(spans_dir, "%s-s%d-p%d.json" % (workload, seed, k))
        traced.append(drive(driver, pass_args(
            workload, seed, ["--spans-out", path]))[-1])
        with open(path) as f:
            span_files.append(json.load(f))
        if workload == SCENARIO:
            checked.append(drive(driver, pass_args(
                workload, seed, ["--check"]))[-1])
    return warmup, untraced, traced, micro, span_files, checked


def print_metric(name, value, unit):
    print("  %-40s %16.6g %s" % (name, value, unit))


def run(args):
    driver = build()
    warmup, untraced, traced, micro, span_files, checked = run_passes(
        driver, args.workload, args.seed, args.seconds, args.trace,
        args.fail_verify)
    passes = [warmup] + untraced + traced
    reference = load_reference(args.workload, args.seed)
    reasons = count_failures(passes, reference,
                             [s for p in checked for s in p["sims"]])
    attempted = sum(len(p["sims"]) for p in passes + checked)
    failed = len(reasons)

    print("perfbench %s seed=%d: %d simulations per pass, %d timed passes "
          "(+1 warm-up)%s, reference %s" % (
              args.workload, args.seed, len(warmup["sims"]), len(untraced),
              ", %d traced" % len(traced) if traced else "",
              "checked" if reference else "not committed for this seed"))
    for r in reasons[:10]:
        print("  FAIL " + r)
    metrics = {}
    if args.trace:
        rows = per_layer(micro, untraced, traced, span_files, checked)
        print("per-layer metrics (counts from the first traced pass, times "
              "are medians):")
    else:
        e2e = end_to_end(untraced)
        rows = [(k, v, UNITS[k]) for k, v in e2e.items()]
        print("end-to-end metrics (median over %d passes):" % len(untraced))
    for name, value, unit in rows:
        print_metric(name, value, unit)
        metrics[name] = {"value": value, "unit": unit}
    print_metric("fail_frac", failed / attempted, UNITS["fail_frac"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def write_reference(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    driver = build()
    ref = {}
    for workload in WORKLOADS:
        ref[workload] = {}
        for seed in seeds:
            p = drive(driver, pass_args(workload, seed))[-1]
            bad = [s["label"] for s in p["sims"] if not s["ok"]]
            if bad:
                raise BenchError("%s seed %d failed: %s" % (workload, seed,
                                                            bad))
            ref[workload][str(seed)] = {s["label"]: fingerprint(s)
                                        for s in p["sims"]}
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print("reference written for seeds %s" % spec)
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", metavar="LO-HI",
                    help="regenerate reference.json for these seeds")
    ap.add_argument("--fail-verify", action="store_true",
                    help=argparse.SUPPRESS)  # test hook
    args = ap.parse_args(argv)
    try:
        if args.write_reference:
            return write_reference(args.write_reference)
        if not args.workload:
            ap.error("--workload is required")
        return run(args)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
