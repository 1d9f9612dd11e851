"""Fast self-check of the benchmark itself, on tiny workloads.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It checks that both modes print exactly the
metrics BENCHMARK.json names, that the output check catches a corrupted
digest, that an operation that raises counts as failed, that the tracer's counts match a hand-counted trace, and that a
wrapped target that no longer exists is reported absent.  Exits 0 when every
check holds and 1 otherwise.
"""
from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from refspeed import SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Churn, Replay, Sweep, sha256  # noqa: E402

TINY = (
    Replay(txns=2_000, sample_every=200),
    Churn(txns=3_000, sample_every=300),
    Sweep(universe=200, targets=(0.3, 0.45), upper=400, resolution=50, min_txns=2_000),
)

problems: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def check_workload(tc, wl, spec) -> None:
    scenario = tc.harness.scenario_from_json(wl.scenario_doc(0))
    res = wl.run_pass(tc, scenario, SpeedMeter())
    golden = {k: sha256(v) for k, v in res.outputs.items()}
    expect(bool(golden) and not res.errors, f"{wl.name} runs at tiny size")
    if not golden:
        return
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(wl, tc, 0, 0.0, trace, golden)["result"]
        names = sorted(m["name"] for m in spec[key])
        expect(sorted(result["metrics"]) == names,
               f"{wl.name} trace={int(trace)} prints every {key} metric and no other")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{wl.name} trace={int(trace)} passes its output check")
    corrupt = dict(golden)
    label = sorted(corrupt)[0]
    corrupt[label] = "0" * 64
    result = run.measure(wl, tc, 0, 0.0, False, corrupt)["result"]
    expect(not result["correct"] and result["failed"] > 0,
           f"{wl.name} output check catches a corrupted digest")

    # the first run_scenario call, direct or inside the sweep, raises
    orig = tc.harness.run_scenario
    calls = []

    def raise_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("injected by selfcheck")
        return orig(*args, **kwargs)

    tc.harness.run_scenario = raise_once
    try:
        result = run.measure(wl, tc, 0, 0.0, False, golden)["result"]
    finally:
        tc.harness.run_scenario = orig
    names = sorted(m["name"] for m in spec["end_to_end"])
    expect(not result["correct"] and result["failed"] > 0 and sorted(result["metrics"]) == names,
           f"{wl.name} counts an operation that raises as failed and still reports")


def check_hand_counted(tc) -> None:
    """Capacity 2, LRU, one tenant, window 2, items 1 2 1 3 2 1:
    miss-insert, miss-insert, hit, then three misses that each find the
    store full, evict the least recently used slot and insert."""
    h = tc.harness
    tenant = h.TenantSpec(tc.workload.TenantWorkload(tenant_id=1, universe_size=10))
    scenario = h.Scenario(capacity=2, policy="global", tenants=[tenant], total_txns=6,
                          window_length=2, sample_every=1)
    events = [tc.workload.AccessEvent(i, 1, item) for i, item in enumerate((1, 2, 1, 3, 2, 1))]
    tracer = Tracer()
    tracer.install(tc)
    try:
        h.run_scenario(scenario, trace=events)
    finally:
        tracer.uninstall()
    got, absent = tracer.layer_metrics()
    want = {
        "cache_core.SlotStore.lookup.calls": 6,
        "cache_core.SlotStore.lookup.hits": 1,
        "cache_core.SlotStore.insert_into_empty.calls": 8,
        "cache_core.SlotStore.insert_into_empty.full": 3,
        "cache_core.SlotStore.select_victim.calls": 3,
        "cache_core.SlotStore.evict.calls": 3,
        "cache_core.SlotStore.evict_victim.calls": 0,
        "cache_core.SlotStore.swap.calls": 0,
        "harness.outcome.hit": 1,
        "harness.outcome.inserted": 2,
        "harness.outcome.replaced": 3,
        "metrics.HitRateTracker.record_access.calls": 6,
        "metrics.windows_closed": 3,
        "sharing.victim_choice.calls": 0,
    }
    wrong = {k: (got.get(k, (None,))[0], v) for k, v in want.items() if got.get(k, (None,))[0] != v}
    expect(not wrong and not absent, f"tracer counts match the hand-counted trace {wrong or ''}")
    ids = {span[0] for span in tracer.spans}
    roots = [span[1] for span in tracer.spans if span[4] is None]
    expect(roots == ["harness.run_scenario"] and all(s[4] in ids for s in tracer.spans
                                                     if s[4] is not None),
           "spans nest under the one run_scenario span")


def check_absent(tc) -> None:
    """Targets that no longer exist are reported absent, not a crash."""
    cache_core = types.SimpleNamespace(
        **{k: v for k, v in vars(tc.cache_core).items() if k != "RegionFullError"}
    )
    harness = types.SimpleNamespace(
        **{k: v for k, v in vars(tc.harness).items() if k != "meets_target"}
    )
    tracer = Tracer()
    tracer.install(types.SimpleNamespace(**dict(vars(tc), cache_core=cache_core, harness=harness)))
    tracer.uninstall()
    _, absent = tracer.layer_metrics()
    expect(
        {"cache_core.SlotStore.insert_into_empty.full", "harness.meets_target.calls",
         "harness.meets_target.distinct_ratio"} <= set(absent),
        "metrics of a missing wrapped target are reported absent",
    )


def main() -> int:
    tc = run.load_tenantcache()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for wl in TINY:
        check_workload(tc, wl, spec)
    check_hand_counted(tc)
    check_absent(tc)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
