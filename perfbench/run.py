"""Benchmark of the tenantcache simulator on three fixed workloads.

    python3 perfbench/run.py --workload replay-2t [--seed 0] [--seconds 30] [--trace 0|1]

Run from the root of a checkout; the simulator is imported from ./src.
With --trace 0 it repeats passes of the workload for --seconds and reports
the end-to-end metrics of BENCHMARK.json; with --trace 1 it runs one pass
that samples RSS, then alternates untraced and traced passes, and reports
the per-layer metrics.  The last line of standard output is one JSON object;
a fuller record of the run goes to perfbench/out/.  Every pass's outputs
are checked against the recorded SHA-256 digests in perfbench/golden.json
(where that file has the seed) and against invariants that hold for any seed.

    python3 perfbench/run.py --record-golden 0-15

re-records the digests.  Do that only in a change that alters the
simulator's behaviour on purpose and says so.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
SETUP_RUNS = 11

sys.path.insert(0, str(HERE))
from refspeed import REF_S, SpeedMeter  # noqa: E402
from tracer import RssSampler, Tracer  # noqa: E402
from workloads import CPU, WALL, WORKLOADS  # noqa: E402

# Process start to the first simulated event: import, scenario_from_json
# (which validates) and validate(), in a fresh interpreter.  The child runs
# the reference kernel just before its imports and again just after its
# set-up, because the host can change speed within the child's lifetime and
# the child may run on the other CPU; its set-up time is scaled by the mean of
# the two.  It prints the wall time set-up ended and the CPU time of its main
# thread from the process's start to then, both less what loading and running
# the first kernel took, and both kernel times.  Threads that numpy's
# libraries start at import and leave spinning are not counted.
# time.monotonic is one clock for all processes.
SETUP_CHILD = """
import sys, time
t0, c0 = time.monotonic(), time.thread_time()
sys.path.insert(0, sys.argv[3])
from refspeed import kernel_seconds
before = kernel_seconds()
t1, c1 = time.monotonic(), time.thread_time()
import json
sys.path.insert(0, sys.argv[1])
from tenantcache import harness
harness.scenario_from_json(json.loads(sys.argv[2])).validate()
done, cpu = time.monotonic(), time.thread_time()
print(done - (t1 - t0), cpu - (c1 - c0), before, kernel_seconds())
"""


def load_tenantcache():
    """The simulator's modules, imported from this checkout's src/ only."""
    if not (SRC / "tenantcache" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tenantcache package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import tenantcache
    from tenantcache import cache_core, harness, metrics, sharing, workload

    if Path(tenantcache.__file__).resolve().parent != (SRC / "tenantcache").resolve():
        sys.exit(f"perfbench: imported tenantcache from {tenantcache.__file__}, not {SRC}")
    return types.SimpleNamespace(
        harness=harness, sharing=sharing, cache_core=cache_core, metrics=metrics,
        workload=workload,
    )


def measure_setup(doc: dict) -> list:
    """(wall s, scaled CPU s) of SETUP_RUNS fresh interpreters doing the set-up in SETUP_CHILD."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(doc), str(HERE)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        out = subprocess.run(
            cmd, check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True
        )
        done, cpu, before, after = map(float, out.stdout.split())
        times.append((done - t0, cpu * REF_S * 2 / (before + after)))
    return times


def load_golden(wl, seed: int):
    """Recorded digests for (workload, seed), or None when none were recorded."""
    if not GOLDEN.is_file():
        return None
    entry = json.loads(GOLDEN.read_text()).get(wl.name)
    if entry is None:
        return None
    if entry["definition"] != wl.definition():
        # the workload changed after its digests were recorded: nothing matches
        return {}
    return entry["seeds"].get(str(seed))


def run_passes(wl, tc, scenario, meter, seconds, golden, trace):
    """Run passes until `seconds` are used (at least one); check each.

    Returns the passes as (PassResult, probe) pairs.  With trace, the first
    pass runs under an RssSampler probe, the first use of the simulator's
    memory in the process; after it untraced passes (probe None) and traced
    passes (a fresh Tracer each) alternate, at least one of each.
    """
    passes, failures = [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        i = len(passes)
        probe = None
        if trace:
            probe = RssSampler() if i == 0 else Tracer() if i % 2 == 0 else None
        t0 = time.perf_counter()
        if probe is not None:
            wrap_trace = probe.sampled if isinstance(probe, RssSampler) else lambda t: t
            probe.install(tc)
            try:
                res = wl.run_pass(tc, scenario, meter, wrap_trace=wrap_trace)
            finally:
                probe.uninstall()
        else:
            res = wl.run_pass(tc, scenario, meter)
        meter.sample()
        last = time.perf_counter() - t0
        failed = wl.check(res, golden)
        attempted += len(res.ops)
        failures.extend({"pass": len(passes), "op": op, "reasons": r} for op, r in failed.items())
        passes.append((res, probe))
        elapsed = time.perf_counter() - start
        if len(passes) >= (3 if trace else 1) and elapsed + last > seconds:
            break
    return passes, attempted, failures


def e2e_metrics(wl, passes, setup_times, scale) -> tuple[dict, dict]:
    """(gated end-to-end metrics, workload-specific figures) of an untraced run.

    Times are process CPU times (see refspeed.py), means over the passes,
    scaled to the reference speed; a mean, not a median, because the scale is
    a mean over the same stretch of time.
    """
    results = [p for p, _ in passes]
    cpu = statistics.mean(r.total(CPU) for r in results)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup_times), "s"),
        "pass_s": (cpu * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "pass_wall_s": (statistics.mean(r.total(WALL) for r in results), "s"),
        "pass_cpu_s": (cpu, "s"),
    }

    for name, ops in wl.rates.items():
        # an operation that raised has no timing and no rate
        timed = [r.timings[op][CPU] for r in results for op in ops if op in r.timings]
        if timed:
            extra[name] = (wl.txns * len(timed) / (sum(timed) * scale), "1/s")
    if wl.pass_alias:
        extra[wl.pass_alias] = metrics["pass_s"]
    return metrics, extra


def trace_metrics(passes) -> tuple[dict, list, list, Tracer]:
    """Per-layer metrics of a traced run, the names left absent, the counts that
    did not repeat, and the first traced pass's tracer.

    Counts come from the first traced pass and must repeat exactly in every
    later one; self times are medians over the traced passes.  RSS growth
    comes from the RssSampler pass.
    """
    plain = [r.total(CPU) for r, t in passes if t is None]
    traced = [(r, t) for r, t in passes if isinstance(t, Tracer)]
    per_pass = [t.layer_metrics() for _, t in traced]
    first, absent = per_pass[0]
    metrics = {}
    mismatched = []
    for name, (value, unit) in first.items():
        values = [m[name][0] for m, _ in per_pass]
        if unit == "count":
            if any(v != value for v in values):
                mismatched.append(name)
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    rss = passes[0][1].per_100k()
    if rss is None:
        absent.append("cache_core.rss_growth_mb_per_100k")
    else:
        metrics["cache_core.rss_growth_mb_per_100k"] = (rss, "MB/100k")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.total(CPU) for r, _ in traced) / statistics.median(plain),
        "ratio",
    )
    return metrics, absent, mismatched, traced[0][1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tenantcache").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment(args) -> dict:
    import numpy

    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "command": getattr(sys, "orig_argv", [sys.executable] + sys.argv),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(wl, tc, seed: int, seconds: float, trace: bool, golden) -> dict:
    """One benchmark run; returns the full record (see README.md)."""
    doc = wl.scenario_doc(seed)
    record = {"workload": wl.name, "golden_checked": golden is not None}
    meter = SpeedMeter()
    setup_times = [] if trace else measure_setup(doc)
    scenario = tc.harness.scenario_from_json(doc)
    passes, attempted, failures = run_passes(wl, tc, scenario, meter, seconds, golden, trace)
    kinds = {type(None): "untraced", RssSampler: "rss", Tracer: "traced"}
    record["timings_columns"] = ["wall_s", "cpu_s"]
    record["passes"] = [{"kind": kinds[type(t)], "timings": r.timings} for r, t in passes]
    record["reference_kernel_s"] = meter.samples
    correct = not failures
    if trace:
        metrics, absent, mismatched, tracer = trace_metrics(passes)
        record["absent"] = absent
        record["count_mismatches"] = mismatched
        record["tracer"] = tracer
        correct = correct and not mismatched
    else:
        metrics, extra = e2e_metrics(wl, passes, setup_times, meter.scale())
        record["setup_s"] = setup_times
        record["scale"] = meter.scale()
        record["workload_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    record["failures"] = failures
    record["result"] = {
        "correct": correct,
        "attempted": attempted,
        "failed": len({(f["pass"], f["op"]) for f in failures}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record


def record_golden(tc, seeds) -> None:
    table = {}
    for wl in WORKLOADS.values():
        entry = {"definition": wl.definition(), "seeds": {}}
        for seed in seeds:
            scenario = tc.harness.scenario_from_json(wl.scenario_doc(seed))
            res = wl.run_pass(tc, scenario, SpeedMeter())
            failed = wl.check(res, None)
            if failed:
                sys.exit(f"perfbench: {wl.name} seed {seed} breaks invariants: {failed}")
            entry["seeds"][str(seed)] = {
                k: hashlib.sha256(v.encode()).hexdigest() for k, v in res.outputs.items()
            }
            print(f"{wl.name} seed {seed}: {res.total(WALL):.2f} s", file=sys.stderr)
        table[wl.name] = entry
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", metavar="LO-HI", help="re-record digests for these seeds")
    args = ap.parse_args(argv)
    tc = load_tenantcache()
    if args.record_golden:
        record_golden(tc, parse_seeds(args.record_golden))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    wl = WORKLOADS[args.workload]
    record = measure(wl, tc, args.seed, args.seconds, bool(args.trace), load_golden(wl, args.seed))
    record["environment"] = environment(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        record["spans_file"] = f"spans-{stem}.json"
        tracer.write_spans(OUT / record["spans_file"], workload=wl.name, seed=args.seed)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for f in record["failures"][:10]:
        print(f"FAILED pass {f['pass']} {f['op']}: {'; '.join(f['reasons'])}", file=sys.stderr)
    for name in record.get("absent", []):
        print(f"absent: {name} (its wrapped target no longer exists)", file=sys.stderr)
    for name in record.get("count_mismatches", []):
        print(f"NOT DETERMINISTIC: {name} differs between traced passes", file=sys.stderr)
    result = record["result"]
    shown = dict(result["metrics"])
    shown.update(record.get("workload_metrics", {}))
    for name, m in shown.items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    print(f"{wl.name} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
