"""The stack-distance backend of LRU global and static sweep probes.

Under LRU an access hits a cache of c slots iff fewer than c distinct keys
were accessed since its key's previous access (Mattson et al., 1970), so one
pass over a seed's trace gives the outcome of every capacity.  These tests
hold the distance pass to its definition, and that backend to the
simulation it replaces: the same hit bits, access by access, and the same
final-quarter means, exactly.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenantcache.harness as harness
from tenantcache.cache_core import LRU, SlotStore
from tenantcache.cli import main
from tenantcache.harness import (
    ProbeCache,
    Scenario,
    TenantSpec,
    _mean_ewma,
    capacity_sweep,
    meets_target,
    min_slots_for_target,
    run_scenario,
    scenario_to_json,
)
from tenantcache.metrics import Requirement
from tenantcache.sharing import SlotCounts, global_insert, static_insert
from tenantcache.workload import TenantWorkload, WorkloadPhase

FAST = dict(min_txns=4_000, txns_per_slot=4)


def tenant(tid, universe=120, alpha=1.0, soft=0.3, **kw):
    return TenantSpec(
        workload=TenantWorkload(
            tenant_id=tid, universe_size=universe, phases=(WorkloadPhase(alpha),), **kw
        ),
        requirement=Requirement(hard=0.0, soft=soft),
    )


# -- the distance pass against its definition -----------------------------------


def distances_by_definition(keys):
    """Distinct keys since each key's previous access, or _COLD on a first one."""
    last, out = {}, []
    for i, key in enumerate(keys):
        out.append(len(set(keys[last[key] + 1 : i])) if key in last else harness._COLD)
        last[key] = i
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 12) | st.integers(0, 2**40), max_size=300))
def test_distances_equal_their_definition(keys):
    got = harness._stack_distances(np.array(keys, dtype=np.int64))
    assert got.tolist() == distances_by_definition(keys)


def test_distances_across_chunks():
    # more than _ROWS reuses, so the pass crosses a chunk boundary
    rng = np.random.default_rng(7)
    keys = rng.zipf(1.3, size=3 * harness._ROWS) % 200
    got = harness._stack_distances(keys)
    assert (got != harness._COLD).sum() > harness._ROWS
    assert got.tolist() == distances_by_definition(keys.tolist())


# -- the oracle: random traces against the simulation ---------------------------


@st.composite
def tenant_specs(draw):
    """1-3 tenants with phases, arrivals, departures and weights."""
    ids = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True))
    specs = []
    for tid in ids:
        phases = [WorkloadPhase(draw(st.sampled_from([0.0, 0.6, 1.0, 1.4])))]
        if draw(st.booleans()):
            phases.append(
                WorkloadPhase(draw(st.sampled_from([0.3, 0.9, 1.2])), draw(st.integers(1, 500)))
            )
        active_from = draw(st.sampled_from([0, 0, 50, 300]))
        until = draw(st.none() | st.integers(1, 700))
        workload = TenantWorkload(
            tenant_id=tid,
            universe_size=draw(st.integers(3, 80)),
            phases=tuple(phases),
            active_from=active_from,
            active_until=None if until is None else active_from + until,
            weight=draw(st.integers(1, 3)),
        )
        specs.append(TenantSpec(workload=workload))
    return specs


@st.composite
def probes(draw):
    """An LRU global or static scenario, its sampling start, and a longer held trace."""
    tenants = draw(tenant_specs())
    policy = draw(st.sampled_from(["global", "static"]))
    # static splits the capacity equally, the remainder going to the lowest ids
    capacity = draw(st.integers(len(tenants) if policy == "static" else 1, 60))
    total_txns = draw(st.integers(1, 900))
    scenario = Scenario(
        capacity=capacity,
        policy=policy,
        tenants=tenants,
        total_txns=total_txns,
        window_length=draw(st.integers(1, 40)),
        ewma_weight=draw(
            st.sampled_from([1.0, 0.125]) | st.floats(0.001, 1.0, allow_nan=False)
        ),
        replacement=LRU,
        seed=draw(st.integers(0, 2**32)),
        sample_every=draw(st.integers(1, 60)),
    )
    sample_from = draw(st.integers(0, total_txns))
    return scenario, sample_from, total_txns + draw(st.sampled_from([0, 0, 1, 250]))


@settings(max_examples=300, deadline=None)
@given(case=probes())
def test_hit_bits_and_means_equal_the_simulation(case):
    s, sample_from, held = case
    cache = ProbeCache()
    workloads = [t.workload for t in s.tenants]
    # a trace held longer than the probe serves it as a prefix
    events = list(cache.trace(workloads, held, s.seed))[: s.total_txns]

    ids, codes, hits = cache.lru_hits(s)
    assert len(hits) == len(events)
    store = SlotStore(s.resolved_layout(), LRU)
    insert = global_insert if s.policy == "global" else static_insert
    for (_, tid, item), code, hit in zip(events, codes.tolist(), hits.tolist()):
        assert ids[code] == tid
        assert hit == (insert(store, (tid, item)).kind == "hit")

    simulated = _mean_ewma(run_scenario(s, trace=iter(events), sample_from=sample_from))
    assert cache.lru_means(s, sample_from) == simulated


def test_means_of_a_sweep_grid_equal_the_simulation():
    # long enough that the distance pass takes its reuses in several chunks
    tenants = [tenant(1, universe=300), tenant(2, universe=300, alpha=0.7, weight=2)]
    cache = ProbeCache()
    for policy in ("global", "static"):
        for capacity in (2, 17, 64, 150, 301):
            s = Scenario(
                capacity=capacity, policy=policy, tenants=tenants, total_txns=10_000,
                seed=4, sample_every=50,
            )
            trace = cache.trace([t.workload for t in tenants], 10_000, 4)
            simulated = _mean_ewma(run_scenario(s, trace=trace, sample_from=7_500))
            assert cache.lru_means(s, 7_500) == simulated


def test_distances_recomputed_only_for_a_longer_trace():
    workloads = [tenant(1).workload, tenant(2, alpha=0.7).workload]
    cache = ProbeCache()
    first = cache.stack_distances(workloads, 2_000, 0)
    shorter = cache.stack_distances(workloads, 1_500, 0)
    assert all(a is b for a, b in zip(shorter, first))
    longer = cache.stack_distances(workloads, 3_000, 0)
    assert len(longer[1]) == 3_000
    # a prefix of the trace has the prefix of its distances
    assert (longer[2][:2_000] == first[2]).all() and (longer[3][:2_000] == first[3]).all()


def test_bad_probe_scenario_raises_as_the_simulation_does():
    cache = ProbeCache()
    s = Scenario(capacity=1, policy="static", tenants=[tenant(1), tenant(2)], total_txns=100)
    with pytest.raises(harness.ConfigurationError) as exc:
        cache.lru_means(s, 0)
    assert exc.value.field_name == "capacity"
    assert not cache.traces


# -- dispatch: which probes still simulate ---------------------------------------


def counted_runs(monkeypatch) -> list:
    runs = []
    real_run = harness.run_scenario

    def counting_run(s, **kw):
        runs.append((s.policy, s.replacement))
        return real_run(s, **kw)

    monkeypatch.setattr(harness, "run_scenario", counting_run)
    return runs


TENANTS = [tenant(1, universe=60), tenant(2, universe=60, alpha=0.7)]
SWEEP = dict(lower=4, upper=128, resolution=4, trials=2, **FAST)


def test_lru_baseline_sweep_simulates_nothing(monkeypatch):
    runs = counted_runs(monkeypatch)
    results = capacity_sweep(TENANTS, [0.3, 0.45, 0.6], ["global", "static"], **SWEEP)
    assert runs == []
    assert [r.policy for r in results] == ["global", "static"] * 3


@pytest.mark.parametrize(
    "replacement,simulated",
    [("fcfs", {"global", "static", "maxmin_fair"}), ("lru", set())],
)
def test_fcfs_and_maxmin_probes_still_simulate(monkeypatch, replacement, simulated):
    """FCFS probes run run_scenario; LRU maxmin probes replay slot counts instead."""
    runs = counted_runs(monkeypatch)
    drives = []
    real_drive = harness._drive

    def counting_drive(s, store, *args):
        drives.append((s.policy, type(store)))
        return real_drive(s, store, *args)

    monkeypatch.setattr(harness, "_drive", counting_drive)
    base = Scenario(capacity=64, policy="global", tenants=TENANTS, replacement=replacement)
    capacity_sweep(TENANTS, [0.4], ["global", "static", "maxmin_fair"], base=base, **SWEEP)
    assert {policy for policy, _ in runs} == simulated
    assert {r for _, r in runs} <= {replacement}
    store = SlotStore if replacement == "fcfs" else SlotCounts
    assert {policy for policy, _ in drives} == simulated | {"maxmin_fair"}
    assert {kind for _, kind in drives} == {store}


# the CSVs of this sweep before the stack-distance backend existed
SWEEP_CSV = {
    "fcfs": (
        "target,policy,min_slots,savings_vs_global,savings_vs_static\n"
        "0.300000,global,40,0.000000,0.166667\n"
        "0.300000,static,48,-0.200000,0.000000\n"
        "0.300000,maxmin_fair,40,0.000000,0.166667\n"
        "0.450000,global,64,0.000000,0.111111\n"
        "0.450000,static,72,-0.125000,0.000000\n"
        "0.450000,maxmin_fair,72,-0.125000,0.000000\n"
    ),
    "lru": (
        "target,policy,min_slots,savings_vs_global,savings_vs_static\n"
        "0.300000,global,40,0.000000,0.000000\n"
        "0.300000,static,40,0.000000,0.000000\n"
        "0.300000,maxmin_fair,40,0.000000,0.000000\n"
        "0.450000,global,56,0.000000,0.125000\n"
        "0.450000,static,64,-0.142857,0.000000\n"
        "0.450000,maxmin_fair,64,-0.142857,0.000000\n"
    ),
}


@pytest.mark.parametrize("replacement", sorted(SWEEP_CSV))
def test_sweep_cli_csv_unchanged(tmp_path, replacement):
    base = Scenario(
        capacity=64,
        policy="global",
        tenants=[tenant(1), tenant(2, alpha=0.7)],
        total_txns=4_000,
        sample_every=500,
        replacement=replacement,
    )
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario_to_json(base)))
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(cfg), "--targets", "0.3,0.45",
        "--policies", "global,static,maxmin_fair", "--out", str(out),
        "--lower", "8", "--upper", "120", "--resolution", "8", "--trials", "1",
    ])
    assert code == 0
    assert out.read_text() == SWEEP_CSV[replacement]


# -- the search's premise: feasibility only grows with capacity ------------------


def test_feasibility_is_monotone_on_the_sweep_benchmark_workload():
    """Every grid capacity from min_slots to upper meets the target.

    Tenants, targets and search grid are those of the sweep-3t benchmark
    workload.  The binary search is only right if this holds.
    """
    tenants = [tenant(1, universe=1_000, soft=0.6), tenant(2, universe=1_000, alpha=0.7, soft=0.6)]
    upper, resolution = 1_500, 25
    for seed in range(4):
        cache = ProbeCache()
        for policy in ("global", "static"):
            for target in (0.3, 0.45, 0.6):
                found = min_slots_for_target(
                    policy, tenants, target, lower=50, upper=upper, resolution=resolution,
                    trials=1, seed=seed, cache=cache, **FAST,
                )
                failing = [
                    c
                    for c in range(found, upper + 1, resolution)
                    if not meets_target(policy, tenants, c, target, [seed], cache=cache, **FAST)
                ]
                assert failing == [], (policy, target, seed, found)
