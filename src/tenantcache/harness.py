"""Scenario configuration, the simulation driver, capacity search, and CSV output."""
from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Mapping, Sequence

from .cache_core import (
    LRU,
    REPLACEMENTS,
    SC,
    CacheError,
    RegionLayout,
    SlotStore,
    dc_region,
    global_insert,
    static_insert,
)
from .metrics import (
    DEFAULT_EWMA_WEIGHT,
    DEFAULT_WINDOW,
    HitRateTracker,
    Requirement,
)
from .sharing import (
    FAIR,
    INF,
    SELFISH,
    SharingStrategy,
    TenantShareState,
    hybrid_insert,
    maxmin_insert,
    selfish_eligible,
)
from .workload import AccessEvent, TenantWorkload, generate_stream

POLICIES = (
    "global",
    "static",
    "maxmin_fair",
    "maxmin_selfish",
    "hybrid_fair",
    "hybrid_selfish",
)

CSV_HEADER = "txn,tenant_id,ewma_hit_rate,window_hit_rate,dc_slots,sc_slots,gap,hard_violation,G"
SWEEP_CSV_HEADER = "target,policy,min_slots,savings_vs_global,savings_vs_static"


class ConfigurationError(ValueError):
    """A scenario field is missing, malformed, or inconsistent."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


class InfeasibleTargetError(RuntimeError):
    """The capacity search's upper bound cannot meet the requested hit rate."""


@dataclass(frozen=True)
class TenantSpec:
    workload: TenantWorkload
    requirement: Requirement = Requirement()


@dataclass(frozen=True)
class TenantSample:
    ewma_hit_rate: float
    window_hit_rate: float
    dc_slots: int
    sc_slots: int
    gap: float
    hard_violation: bool


@dataclass(frozen=True)
class SampleRecord:
    txn: int
    tenants: Mapping[int, TenantSample]
    min_gap: float


@dataclass(frozen=True)
class CapacitySweepResult:
    target: float
    policy: str
    min_slots: int
    savings_vs_global: float | None = None
    savings_vs_static: float | None = None


@dataclass
class Scenario:
    capacity: int
    policy: str
    tenants: Sequence[TenantSpec]
    layout: RegionLayout | None = None
    total_txns: int = 200_000
    window_length: int = DEFAULT_WINDOW
    ewma_weight: float = DEFAULT_EWMA_WEIGHT
    strategy: SharingStrategy = field(default_factory=SharingStrategy)
    replacement: str = LRU
    seed: int = 0
    sample_every: int = 1_000

    def tenant_ids(self) -> list[int]:
        return [t.workload.tenant_id for t in self.tenants]

    def validate(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("capacity", "must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigurationError("policy", f"must be one of {', '.join(POLICIES)}")
        if not self.tenants:
            raise ConfigurationError("tenants", "at least one tenant is required")
        ids = self.tenant_ids()
        if len(set(ids)) != len(ids):
            raise ConfigurationError("tenants", "tenant ids must be unique")
        if self.total_txns < 0:
            raise ConfigurationError("total_txns", "must be >= 0")
        if self.sample_every < 1:
            raise ConfigurationError("sample_every", "must be >= 1")
        if self.window_length < 1:
            raise ConfigurationError("window_length", "must be >= 1")
        if not 0.0 < self.ewma_weight <= 1.0:
            raise ConfigurationError("ewma_weight", "must be in (0, 1]")
        if self.replacement not in REPLACEMENTS:
            raise ConfigurationError("replacement", f"must be one of {', '.join(REPLACEMENTS)}")
        layout = self.resolved_layout()
        if layout.capacity != self.capacity:
            raise ConfigurationError(
                "layout", f"region sizes sum to {layout.capacity}, capacity is {self.capacity}"
            )
        if self.policy in ("global", "maxmin_fair", "maxmin_selfish") and layout.dc_sizes:
            if any(v > 0 for v in layout.dc_sizes.values()):
                raise ConfigurationError("layout", f"{self.policy} requires an all-SC layout")
        if self.policy == "static" and layout.sc_size != 0:
            raise ConfigurationError("layout", "static requires sc_size = 0")
        if self.policy.startswith("hybrid"):
            missing = [i for i in ids if i not in layout.dc_sizes]
            if missing:
                raise ConfigurationError("layout", f"missing dc_sizes for tenants {missing}")

    def resolved_layout(self) -> RegionLayout:
        if self.layout is not None:
            return self.layout
        return derive_layout(self.policy, self.capacity, self.tenant_ids())


def derive_layout(
    policy: str,
    capacity: int,
    tenant_ids: Iterable[int],
    base: RegionLayout | None = None,
) -> RegionLayout:
    """Default layout for a policy: all-SC, equal static split, or the given hybrid layout."""
    if policy in ("global", "maxmin_fair", "maxmin_selfish"):
        return RegionLayout.global_layout(capacity)
    if policy == "static":
        return RegionLayout.static_layout(capacity, tenant_ids)
    if policy.startswith("hybrid"):
        if base is None or not base.dc_sizes:
            raise ConfigurationError("layout", "hybrid policies need explicit dc_sizes")
        return base
    raise ConfigurationError("policy", f"unknown policy {policy!r}")


# -- JSON configuration ----------------------------------------------------


_REQUIRED = object()

_SCALAR_FIELDS = (
    ("capacity", int, _REQUIRED),
    ("policy", str, _REQUIRED),
    ("total_txns", int, 200_000),
    ("window_length", int, DEFAULT_WINDOW),
    ("ewma_weight", float, DEFAULT_EWMA_WEIGHT),
    ("replacement", str, LRU),
    ("seed", int, 0),
    ("sample_every", int, 1_000),
)


@contextmanager
def _reading(path: str):
    """Report a failure to read or build the field at path as a ConfigurationError.

    A missing key is named below path; any other bad value names path itself.
    """
    try:
        yield
    except KeyError as exc:
        raise ConfigurationError(f"{path}.{exc.args[0]}", "missing field") from exc
    except (OSError, TypeError, ValueError, AttributeError, OverflowError, CacheError) as exc:
        raise ConfigurationError(path, str(exc)) from exc


def scenario_from_json(doc: Mapping | str) -> Scenario:
    """Build a Scenario from a JSON document (dict, JSON text, or file path).

    Every failure, from an unreadable file to an inconsistent field, raises a
    ConfigurationError naming the field.
    """
    with _reading("config"):
        if isinstance(doc, str):
            if doc.lstrip()[:1] in ("{", "["):
                doc = json.loads(doc)
            else:
                with open(doc) as fh:
                    doc = json.load(fh)
    if not isinstance(doc, Mapping):
        raise ConfigurationError("config", f"must be a JSON object, not {type(doc).__name__}")
    if "tenants" not in doc:
        raise ConfigurationError("tenants", "missing field")
    with _reading("tenants"):
        tenant_docs = list(doc["tenants"])
    tenants = []
    for i, td in enumerate(tenant_docs):
        with _reading(f"tenants[{i}]"):
            tenants.append(_tenant_from_json(td))
    layout = None
    if doc.get("layout") is not None:
        with _reading("layout"):
            ld = doc["layout"]
            layout = RegionLayout(
                dc_sizes={int(k): int(v) for k, v in ld.get("dc_sizes", {}).items()},
                sc_size=int(ld.get("sc_size", 0)),
            )
    strategy = SharingStrategy()
    if doc.get("strategy") is not None:
        with _reading("strategy"):
            sd = doc["strategy"]
            strategy = SharingStrategy(
                mode=sd.get("mode", FAIR),
                loss_horizon=int(sd.get("loss_horizon", SharingStrategy().loss_horizon)),
                history_len=int(sd.get("history_len", SharingStrategy().history_len)),
            )
    scalars = {}
    for name, convert, default in _SCALAR_FIELDS:
        if name in doc:
            with _reading(name):
                scalars[name] = convert(doc[name])
        elif default is _REQUIRED:
            raise ConfigurationError(name, "missing field")
        else:
            scalars[name] = default
    scenario = Scenario(tenants=tenants, layout=layout, strategy=strategy, **scalars)
    scenario.validate()
    return scenario


def _tenant_from_json(doc: Mapping) -> TenantSpec:
    from .workload import WorkloadPhase

    phases = [
        WorkloadPhase(alpha=float(p["alpha"]), start_txn=int(p.get("start_txn", 0)))
        for p in doc.get("phases", [{"alpha": 1.0}])
    ]
    workload = TenantWorkload(
        tenant_id=int(doc["tenant_id"]),
        universe_size=int(doc.get("universe_size", 100_000)),
        phases=phases,
        active_from=int(doc.get("active_from", 0)),
        active_until=None if doc.get("active_until") is None else int(doc["active_until"]),
        weight=int(doc.get("weight", 1)),
    )
    rd = doc.get("requirement", {})
    requirement = Requirement(hard=float(rd.get("hard", 0.0)), soft=float(rd.get("soft", 0.0)))
    return TenantSpec(workload=workload, requirement=requirement)


def scenario_to_json(s: Scenario) -> dict:
    doc: dict = {
        "capacity": s.capacity,
        "policy": s.policy,
        "tenants": [],
        "total_txns": s.total_txns,
        "window_length": s.window_length,
        "ewma_weight": s.ewma_weight,
        "strategy": {
            "mode": s.strategy.mode,
            "loss_horizon": s.strategy.loss_horizon,
            "history_len": s.strategy.history_len,
        },
        "replacement": s.replacement,
        "seed": s.seed,
        "sample_every": s.sample_every,
    }
    if s.layout is not None:
        doc["layout"] = {
            "dc_sizes": {str(k): v for k, v in s.layout.dc_sizes.items()},
            "sc_size": s.layout.sc_size,
        }
    for t in s.tenants:
        w = t.workload
        doc["tenants"].append(
            {
                "tenant_id": w.tenant_id,
                "universe_size": w.universe_size,
                "phases": [{"alpha": p.alpha, "start_txn": p.start_txn} for p in w.phases],
                "active_from": w.active_from,
                "active_until": w.active_until,
                "weight": w.weight,
                "requirement": {"hard": t.requirement.hard, "soft": t.requirement.soft},
            }
        )
    return doc


# -- simulation driver -----------------------------------------------------


def run_scenario(s: Scenario, trace: Iterable[AccessEvent] | None = None) -> list[SampleRecord]:
    """Drive the scenario's policy over its workload stream.

    A lookup hit before any mutation counts as a hit; everything else is a
    miss.  One SampleRecord is emitted every sample_every transactions.  The
    run is fully deterministic given the scenario (seed included).
    """
    s.validate()
    layout = s.resolved_layout()
    store = SlotStore(layout)
    policy = s.policy
    replacement = s.replacement
    strategy = s.strategy
    if policy.endswith("selfish"):
        strategy = replace(strategy, mode=SELFISH)
    elif policy.endswith("fair"):
        strategy = replace(strategy, mode=FAIR)
    selfish = strategy.mode == SELFISH

    specs = {t.workload.tenant_id: t for t in s.tenants}
    trackers = {
        k: HitRateTracker(window_length=s.window_length, ewma_weight=s.ewma_weight)
        for k in specs
    }
    states = {
        k: TenantShareState(history=deque(maxlen=strategy.history_len)) for k in specs
    }
    softs = {k: specs[k].requirement.soft for k in specs}
    hards = {k: specs[k].requirement.hard for k in specs}

    # gaps drive victim selection; departed owners get +inf so their residual
    # slots are reclaimed first
    gaps: dict = {}
    eligible: dict = {}
    active: set = set()
    boundaries = sorted(
        {w.workload.active_from for w in s.tenants}
        | {w.workload.active_until for w in s.tenants if w.workload.active_until is not None}
    )
    bi = 0

    if trace is None:
        trace = generate_stream([t.workload for t in s.tenants], s.total_txns, s.seed)

    # resolved once per run, from the module globals so that wrappers apply
    if policy in ("global", "static"):
        insert = global_insert if policy == "global" else static_insert
        insert_args: tuple = (replacement,)
    else:
        insert = maxmin_insert if policy.startswith("maxmin") else hybrid_insert
        insert_args = (gaps, strategy, eligible, replacement)

    records: list[SampleRecord] = []
    sample_every = s.sample_every

    for ev in trace:
        txn = ev.txn
        if bi < len(boundaries) and boundaries[bi] <= txn:
            while bi < len(boundaries) and boundaries[bi] <= txn:
                bi += 1
            for k, spec in specs.items():
                w = spec.workload
                if w.active_at(txn):
                    if k not in active:
                        active.add(k)
                        gaps[k] = trackers[k].hit_rate - softs[k]
                        if selfish:
                            eligible[k] = selfish_eligible(
                                states[k], trackers[k].ewma, softs[k], strategy
                            )
                elif k in active:
                    active.discard(k)
                    gaps[k] = INF
                    eligible[k] = True

        outcome = insert(store, (ev.tenant_id, ev.item), *insert_args)
        tracker = trackers[ev.tenant_id]
        if tracker.record_access(outcome.kind == "hit") is not None:
            k = ev.tenant_id
            dc_n, sc_n = store.owned(k)
            states[k].observe(dc_n, sc_n, tracker.ewma)
            gaps[k] = tracker.ewma - softs[k]
            if selfish:
                eligible[k] = selfish_eligible(states[k], tracker.ewma, softs[k], strategy)

        if (txn + 1) % sample_every == 0:
            records.append(_sample(txn, store, trackers, softs, hards, active))
    return records


def _sample(txn, store, trackers, softs, hards, active) -> SampleRecord:
    tenants = {}
    min_gap = INF
    for k in sorted(active):
        tr = trackers[k]
        h = tr.hit_rate
        gap = h - softs[k]
        min_gap = min(min_gap, gap)
        dc_n, sc_n = store.owned(k)
        tenants[k] = TenantSample(
            ewma_hit_rate=h,
            window_hit_rate=tr.last_window_rate if tr.last_window_rate is not None else 0.0,
            dc_slots=dc_n,
            sc_slots=sc_n,
            gap=gap,
            hard_violation=h < hards[k],
        )
    return SampleRecord(txn=txn, tenants=tenants, min_gap=min_gap)


def write_records_csv(records: Iterable[SampleRecord], out: str | IO[str]) -> None:
    own = isinstance(out, str)
    fh = open(out, "w") if own else out
    try:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            for k, t in rec.tenants.items():
                fh.write(
                    f"{rec.txn},{k},{t.ewma_hit_rate:.6f},{t.window_hit_rate:.6f},"
                    f"{t.dc_slots},{t.sc_slots},{t.gap:.6f},{int(t.hard_violation)},"
                    f"{rec.min_gap:.6f}\n"
                )
    finally:
        if own:
            fh.close()


def compare_policies(
    base: Scenario, policies: Sequence[str]
) -> dict[str, list[SampleRecord]]:
    """Replay one generated trace through each policy so curves are workload-identical."""
    base.validate()
    events = list(
        generate_stream([t.workload for t in base.tenants], base.total_txns, base.seed)
    )
    results: dict[str, list[SampleRecord]] = {}
    for policy in policies:
        layout = derive_layout(policy, base.capacity, base.tenant_ids(), base.layout)
        scenario = replace(base, policy=policy, layout=layout)
        results[policy] = run_scenario(scenario, trace=events)
    return results


# -- capacity search -------------------------------------------------------


def _final_quarter_means(records: Sequence[SampleRecord], total_txns: int) -> dict:
    cutoff = total_txns * 3 // 4
    sums: dict = {}
    counts: dict = {}
    for rec in records:
        if rec.txn < cutoff:
            continue
        for k, t in rec.tenants.items():
            sums[k] = sums.get(k, 0.0) + t.ewma_hit_rate
            counts[k] = counts.get(k, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


def meets_target(
    policy: str,
    tenants: Sequence[TenantSpec],
    capacity: int,
    target: float,
    seeds: Sequence[int],
    hybrid_layout: RegionLayout | None = None,
    min_txns: int = 40_000,
    txns_per_slot: int = 4,
    window_length: int = DEFAULT_WINDOW,
    ewma_weight: float = DEFAULT_EWMA_WEIGHT,
) -> bool:
    """True iff every tenant's final-quarter mean EWMA >= target for all seeds."""
    total_txns = max(min_txns, txns_per_slot * capacity)
    layout = derive_layout(policy, capacity, [t.workload.tenant_id for t in tenants], hybrid_layout)
    for seed in seeds:
        scenario = Scenario(
            capacity=capacity,
            policy=policy,
            tenants=tenants,
            layout=layout,
            total_txns=total_txns,
            window_length=window_length,
            ewma_weight=ewma_weight,
            seed=seed,
            sample_every=max(1, total_txns // 200),
        )
        means = _final_quarter_means(run_scenario(scenario), total_txns)
        if any(means.get(t.workload.tenant_id, 0.0) < target for t in tenants):
            return False
    return True


def min_slots_for_target(
    policy: str,
    tenants: Sequence[TenantSpec],
    target: float,
    lower: int = 50,
    upper: int = 40_000,
    resolution: int = 50,
    trials: int = 3,
    seed: int = 0,
    **run_kwargs,
) -> int:
    """Smallest capacity (on the resolution grid) meeting the target hit rate.

    Binary search between lower and upper; the upper bound is verified
    feasible first and an InfeasibleTargetError is raised when it is not.
    """
    if not 0.0 <= target < 1.0:
        raise ConfigurationError("target", "must be in [0, 1)")
    seeds = [seed + i for i in range(trials)]
    lower = max(resolution, (lower // resolution) * resolution)
    upper = ((upper + resolution - 1) // resolution) * resolution

    def ok(capacity: int) -> bool:
        return meets_target(policy, tenants, capacity, target, seeds, **run_kwargs)

    if ok(lower):
        return lower
    if not ok(upper):
        raise InfeasibleTargetError(
            f"{policy}: upper bound {upper} slots does not reach {target:.0%}"
        )
    lo, hi = lower, upper  # lo fails, hi meets
    while hi - lo > resolution:
        mid = ((lo + hi) // 2 // resolution) * resolution
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def capacity_sweep(
    tenants: Sequence[TenantSpec],
    targets: Sequence[float],
    policies: Sequence[str],
    **kwargs,
) -> list[CapacitySweepResult]:
    """min_slots_for_target across a target grid, with savings vs the baselines."""
    results: list[CapacitySweepResult] = []
    for target in targets:
        per_policy = {
            policy: min_slots_for_target(policy, tenants, target, **kwargs)
            for policy in policies
        }
        for policy, slots in per_policy.items():
            res = CapacitySweepResult(
                target=target,
                policy=policy,
                min_slots=slots,
                savings_vs_global=(
                    1.0 - slots / per_policy["global"] if "global" in per_policy else None
                ),
                savings_vs_static=(
                    1.0 - slots / per_policy["static"] if "static" in per_policy else None
                ),
            )
            results.append(res)
    return results


def write_sweep_csv(results: Iterable[CapacitySweepResult], out: str | IO[str]) -> None:
    own = isinstance(out, str)
    fh = open(out, "w") if own else out
    try:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for r in results:
            sg = "" if r.savings_vs_global is None else f"{r.savings_vs_global:.6f}"
            ss = "" if r.savings_vs_static is None else f"{r.savings_vs_static:.6f}"
            fh.write(f"{r.target:.6f},{r.policy},{r.min_slots},{sg},{ss}\n")
    finally:
        if own:
            fh.close()


def suggest_dc_size(
    hard: float,
    least_skewed_alpha: float,
    universe: int = 100_000,
    resolution: int = 50,
    **kwargs,
) -> int:
    """Recommended per-tenant DC size: slots one tenant at the least skewed
    exponent needs to meet the hard requirement on its own."""
    from .workload import WorkloadPhase

    tenant = TenantSpec(
        workload=TenantWorkload(
            tenant_id=0,
            universe_size=universe,
            phases=(WorkloadPhase(alpha=least_skewed_alpha),),
        ),
        requirement=Requirement(hard=hard, soft=hard),
    )
    return min_slots_for_target(
        "global", [tenant], hard, lower=resolution, resolution=resolution, **kwargs
    )
