"""The benchmark's three workloads: their inputs, one timed pass each, and the
checks on what a pass produced.

Every workload is built from a scenario JSON document through
``harness.scenario_from_json``, so set-up time covers the same parsing and
validation a user of the CLI pays.  The simulator is reached only through the
public functions of its modules, looked up on the module at call time so that
the traced mode can wrap them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field

POLICIES = (
    "global",
    "static",
    "maxmin_fair",
    "maxmin_selfish",
    "hybrid_fair",
    "hybrid_selfish",
)

# Replays are grouped in policy families: single replays of a few tenths of a
# second are too short to time steadily on a shared host, pairs are not.
FAMILIES = {
    "baseline": ("global", "static"),
    "maxmin": ("maxmin_fair", "maxmin_selfish"),
    "hybrid": ("hybrid_fair", "hybrid_selfish"),
}

WALL, CPU = 0, 1  # columns of PassResult.timings
TXNS_PER_SLOT = 4  # sweep probe length per slot of capacity


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    """One pass of a workload: its timings, its outputs and what went wrong.

    ``ops`` lists the operations the pass attempted; ``timings`` holds
    (wall s, cpu s) per timed call; ``outputs`` the CSV text per output label.
    """

    ops: list
    timings: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def total(self, column: int) -> float:
        """Sum of one timings column (WALL or CPU) over the timed calls."""
        return sum(t[column] for t in self.timings.values())


def _call(label, fn, res: PassResult, meter):
    """Sample host speed, then run fn, recording its timings, or its error, under label."""
    meter.sample()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = fn()
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc()
        res.errors[label] = f"{type(exc).__name__}: {exc}"
        return None
    res.timings[label] = (time.perf_counter() - w0, time.process_time() - c0)
    return out


def _records_csv(tc, records) -> str:
    buf = io.StringIO()
    tc.harness.write_records_csv(records, buf)
    return buf.getvalue()


def _tenant_doc(tid, universe, alpha, hard, soft, weight=1):
    return {
        "tenant_id": tid,
        "universe_size": universe,
        "weight": weight,
        "phases": [{"alpha": alpha, "start_txn": 0}],
        "requirement": {"hard": hard, "soft": soft},
    }


class Workload:
    name = ""
    # figure name -> the timed calls whose simulated accesses it counts per second
    rates: dict = {}
    # a second name under which pass_s is reported, if any
    pass_alias: str | None = None

    def scenario_doc(self, seed: int) -> dict:
        raise NotImplementedError

    def definition(self) -> str:
        """Digest of everything but the seed that decides this workload's outputs."""
        doc = self.scenario_doc(0)
        doc.pop("seed", None)
        return sha256(json.dumps([self.name, doc, self.call_args()], sort_keys=True))

    def call_args(self) -> dict:
        """Arguments of the workload's public call that the scenario does not hold."""
        return {}

    def run_pass(self, tc, scenario, meter, wrap_trace=lambda t: t) -> PassResult:
        """Run the workload once, timing each public call and sampling meter before it."""
        raise NotImplementedError

    def check(self, res: PassResult, golden: dict | None) -> dict:
        """Map each failed operation to the reasons it failed."""
        raise NotImplementedError


class _RecordsWorkload(Workload):
    """Workloads whose operations each return a run/compare CSV time series."""

    def check(self, res, golden):
        failed: dict = {}
        for op in res.ops:
            reasons = []
            if op in res.errors:
                reasons.append(res.errors[op])
            else:
                if golden is not None and sha256(res.outputs[op]) != golden.get(op):
                    reasons.append("output digest differs from the recorded one")
                reasons.extend(record_invariants(res.data[op], res.data["capacity"]))
            if reasons:
                failed[op] = reasons
        return failed


def record_invariants(records, capacity: int) -> list:
    """Broken invariants of one run's samples, as messages."""
    broken = []
    for rec in records:
        used = sum(t.dc_slots + t.sc_slots for t in rec.tenants.values())
        if used > capacity:
            broken.append(f"txn {rec.txn}: {used} slots used, capacity {capacity}")
        for k, t in rec.tenants.items():
            for label, rate in (("ewma", t.ewma_hit_rate), ("window", t.window_hit_rate)):
                if not 0.0 <= rate <= 1.0:
                    broken.append(f"txn {rec.txn} tenant {k}: {label} hit rate {rate}")
        if len(broken) > 10:
            break
    return broken


class Replay(_RecordsWorkload):
    """Two tenants, one trace generated once and replayed through all six policies."""

    name = "replay-2t"
    rates = {
        "events_per_s": POLICIES,
        **{f"events_per_s.{family}": pols for family, pols in FAMILIES.items()},
    }

    def __init__(self, txns: int = 40_000, sample_every: int = 1_000):
        self.txns = txns
        self.sample_every = sample_every

    def scenario_doc(self, seed):
        return {
            "capacity": 5000,
            "policy": "hybrid_fair",
            "total_txns": self.txns,
            "seed": seed,
            "sample_every": self.sample_every,
            "layout": {"dc_sizes": {"1": 1000, "2": 1000}, "sc_size": 3000},
            "tenants": [
                _tenant_doc(1, 30_000, 0.9, 0.3, 0.6, weight=5),
                _tenant_doc(2, 16_500, 0.7, 0.3, 0.6, weight=1),
            ],
        }

    def run_pass(self, tc, base, meter, wrap_trace=lambda t: t):
        harness = tc.harness
        res = PassResult(list(POLICIES), data={"capacity": base.capacity})
        events = _call(
            "generate",
            lambda: list(
                tc.workload.generate_stream(
                    [t.workload for t in base.tenants], base.total_txns, base.seed
                )
            ),
            res,
            meter,
        )
        for policy in POLICIES:
            if events is None:
                res.errors[policy] = "trace generation failed"
                continue
            layout = harness.derive_layout(policy, base.capacity, base.tenant_ids(), base.layout)
            scenario = dataclasses.replace(base, policy=policy, layout=layout)
            records = _call(
                policy,
                lambda: harness.run_scenario(scenario, trace=wrap_trace(events)),
                res,
                meter,
            )
            if records is not None:
                res.data[policy] = records
        for policy in POLICIES:
            if policy in res.data:
                res.outputs[policy] = _records_csv(tc, res.data[policy])
        return res


class Churn(_RecordsWorkload):
    """Eight tenants arriving, leaving and shifting skew under hybrid_selfish."""

    name = "churn-8t"
    rates = {"events_per_s": ("hybrid_selfish",)}

    ALPHAS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.9, 0.8, 0.7)
    WEIGHTS = (1, 2, 3, 1, 2, 3, 1, 2)

    def __init__(self, txns: int = 50_000, sample_every: int = 500):
        self.txns = txns
        self.sample_every = sample_every

    def scenario_doc(self, seed):
        n = self.txns
        tenants = []
        for i, (alpha, weight) in enumerate(zip(self.ALPHAS, self.WEIGHTS)):
            tid = i + 1
            low = max(0.5, round(alpha - 0.3, 6))
            doc = _tenant_doc(tid, 100_000, alpha, 0.2, 0.4, weight=weight)
            doc["phases"] = [
                {"alpha": alpha, "start_txn": 0},
                {"alpha": low, "start_txn": n // 3},
                {"alpha": alpha, "start_txn": 2 * n // 3},
            ]
            if tid in (7, 8):
                doc["active_from"] = n // 4
            if tid == 3:
                doc["active_until"] = n // 2
            if tid == 5:
                doc["active_until"] = 3 * n // 4
            tenants.append(doc)
        return {
            "capacity": 4000,
            "policy": "hybrid_selfish",
            "total_txns": n,
            "seed": seed,
            "sample_every": self.sample_every,
            "layout": {"dc_sizes": {str(i): 250 for i in range(1, 9)}, "sc_size": 2000},
            "tenants": tenants,
        }

    def run_pass(self, tc, scenario, meter, wrap_trace=lambda t: t):
        label = scenario.policy
        res = PassResult([label], data={"capacity": scenario.capacity})
        records = _call(label, lambda: tc.harness.run_scenario(scenario), res, meter)
        if records is not None:
            res.data[label] = records
            res.outputs[label] = _records_csv(tc, records)
        return res


class Sweep(Workload):
    """Capacity search for three targets under the two baselines and max-min fair."""

    name = "sweep-3t"
    pass_alias = "sweep_s"

    SWEPT = ("global", "static", "maxmin_fair")

    def __init__(
        self,
        universe: int = 1_000,
        targets=(0.3, 0.45, 0.6),
        upper: int = 1_500,
        resolution: int = 25,
        min_txns: int = 4_000,
    ):
        self.universe = universe
        self.targets = tuple(targets)
        self.upper = upper
        self.resolution = resolution
        self.min_txns = min_txns

    def scenario_doc(self, seed):
        # The sweep takes tenants, not a scenario; they are read from a scenario
        # document so that set-up is measured the same way for every workload.
        return {
            "capacity": self.upper,
            "policy": "global",
            "seed": seed,
            "tenants": [
                _tenant_doc(1, self.universe, 1.0, 0.0, 0.6),
                _tenant_doc(2, self.universe, 0.7, 0.0, 0.6),
            ],
        }

    def call_args(self):
        return {
            "targets": self.targets,
            "policies": self.SWEPT,
            "lower": 50,
            "upper": self.upper,
            "resolution": self.resolution,
            "trials": 1,
            "min_txns": self.min_txns,
            "txns_per_slot": TXNS_PER_SLOT,
        }

    def run_pass(self, tc, scenario, meter, wrap_trace=lambda t: t):
        kw = self.call_args()
        res = PassResult([f"{t}/{p}" for t in self.targets for p in self.SWEPT])
        results = _call(
            "sweep",
            lambda: tc.harness.capacity_sweep(scenario.tenants, seed=scenario.seed, **kw),
            res,
            meter,
        )
        if results is not None:
            res.data["sweep"] = results
            buf = io.StringIO()
            tc.harness.write_sweep_csv(results, buf)
            res.outputs["sweep"] = buf.getvalue()
        return res

    def check(self, res, golden):
        if "sweep" in res.errors:
            return {cell: [res.errors["sweep"]] for cell in res.ops}
        failed: dict = {}
        if golden is not None and sha256(res.outputs["sweep"]) != golden.get("sweep"):
            failed = {cell: ["sweep digest differs from the recorded one"] for cell in res.ops}
        for cell, reason in sweep_invariants(res.data["sweep"], self.targets, self.SWEPT):
            failed.setdefault(cell, []).append(reason)
        return failed


def sweep_invariants(results, targets, policies) -> list:
    """(cell, message) for each broken sweep invariant."""
    table = {(r.target, r.policy): r.min_slots for r in results}
    broken = []
    for p in policies:
        for lo, hi in zip(targets, targets[1:]):
            if (lo, p) in table and (hi, p) in table and table[(hi, p)] < table[(lo, p)]:
                broken.append((f"{hi}/{p}", f"min_slots falls from {table[(lo, p)]} to {table[(hi, p)]}"))
    for t in targets:
        fair = table.get((t, "maxmin_fair"))
        for base in ("global", "static"):
            other = table.get((t, base))
            if fair is not None and other is not None and fair > other:
                broken.append((f"{t}/maxmin_fair", f"needs {fair} slots, {base} needs {other}"))
    missing = [f"{t}/{p}" for t in targets for p in policies if (t, p) not in table]
    broken.extend((cell, "no result") for cell in missing)
    return broken


WORKLOADS = {w.name: w for w in (Replay(), Churn(), Sweep())}
