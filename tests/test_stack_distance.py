"""The stack-distance backend of LRU global and static sweep probes.

Under LRU an access hits a cache of c slots iff fewer than c distinct keys
were accessed since its key's previous access (Mattson et al., 1970), so one
pass over a seed's trace gives the outcome of every capacity.  These tests
hold the distance pass to its definition, its hit bits to the store access
by access, and every probe engine (stack distances, slot counts, FCFS
simulation) to run_scenario: the same final-quarter EWMA series, exactly.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenantcache.harness as harness
from tenantcache.cache_core import FCFS, LRU, RegionLayout, SlotStore
from tenantcache.cli import main
from tenantcache.harness import (
    POLICIES,
    ProbeCache,
    Scenario,
    TenantSpec,
    capacity_sweep,
    meets_target,
    min_slots_for_target,
    run_scenario,
    scenario_to_json,
)
from tenantcache.metrics import Requirement
from tenantcache.sharing import FifoHeaps, SharingStrategy, global_insert, static_insert
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
def probes(draw, policies=("global", "static"), replacement=LRU):
    """A probe scenario of one of policies under replacement, and a longer held trace."""
    tenants = draw(tenant_specs())
    policy = draw(st.sampled_from(policies))
    layout = None
    if policy.startswith("hybrid"):
        sc_size = draw(st.sampled_from([0, 1, 3, 8, 15]))
        least = 0 if sc_size else 1  # with no SC every tenant needs a DC slot
        dc_sizes = {t.workload.tenant_id: draw(st.integers(least, 8)) for t in tenants}
        layout = RegionLayout(dc_sizes=dc_sizes, sc_size=sc_size)
        capacity = layout.capacity
    else:
        # static splits the capacity equally, the remainder going to the lowest ids
        capacity = draw(st.integers(len(tenants) if policy == "static" else 1, 60))
    total_txns = draw(st.integers(1, 900))
    scenario = Scenario(
        capacity=capacity,
        policy=policy,
        tenants=tenants,
        layout=layout,
        total_txns=total_txns,
        window_length=draw(st.integers(1, 40)),
        ewma_weight=draw(
            st.sampled_from([1.0, 0.125]) | st.floats(0.001, 1.0, allow_nan=False)
        ),
        strategy=SharingStrategy(
            loss_horizon=draw(st.integers(1, 12)), history_len=draw(st.integers(2, 6))
        ),
        replacement=replacement,
        seed=draw(st.integers(0, 2**32)),
        sample_every=draw(st.integers(1, 60)),
    )
    return scenario, total_txns + draw(st.sampled_from([0, 0, 1, 250]))


def held_events(cache: ProbeCache, s: Scenario, held: int) -> list:
    """The first s.total_txns events of s.seed's trace, held at length held:
    a trace held longer than the probe serves it as a prefix."""
    return list(cache.trace([t.workload for t in s.tenants], held, s.seed))[: s.total_txns]


def simulated_series(s: Scenario, events) -> dict:
    """Each tenant's EWMA hit rate at each final-quarter sample of run_scenario
    over events, in sample order: the oracle of ProbeCache.probe."""
    series = {}
    for rec in run_scenario(s, trace=iter(events), sample_from=s.total_txns * 3 // 4):
        for k, t in rec.tenants.items():
            series.setdefault(k, []).append(t.ewma_hit_rate)
    return series


@settings(max_examples=300, deadline=None)
@given(case=probes())
def test_hit_bits_equal_the_store(case):
    """An access hits iff its global distance is below the capacity (global),
    or its tenant distance below its tenant's DC size (static)."""
    s, held = case
    cache = ProbeCache()
    events = held_events(cache, s, held)
    ids, codes, global_d, tenant_d = cache.stack_distances(
        [t.workload for t in s.tenants], s.total_txns, s.seed
    )
    n = len(events)
    if s.policy == "global":
        hits = global_d[:n] < s.capacity
    else:
        dc_sizes = s.resolved_layout().dc_sizes
        hits = tenant_d[:n] < np.array([dc_sizes[k] for k in ids])[codes[:n]]
    store = SlotStore(s.resolved_layout(), LRU)
    insert = global_insert if s.policy == "global" else static_insert
    for (_, tid, item), code, hit in zip(events, codes.tolist(), hits.tolist()):
        assert ids[code] == tid
        assert hit == (insert(store, (tid, item)).kind == "hit")


RANKED = ("maxmin_fair", "maxmin_selfish", "hybrid_fair", "hybrid_selfish")


@pytest.mark.parametrize(
    "policies,replacement",
    [(("global", "static"), LRU), (RANKED, LRU), (POLICIES, FCFS)],
    ids=["stack-distances", "slot-counts", "fcfs"],
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_probe_series_equal_the_simulation(data, policies, replacement):
    s, held = data.draw(probes(policies, replacement))
    cache = ProbeCache()
    expected = simulated_series(s, held_events(cache, s, held))
    assert cache.probe(s) == expected
    assert cache.probe(s) is cache.probe(s)  # memoised


def test_series_of_a_sweep_grid_equal_the_simulation():
    # long enough that the distance pass takes its reuses in several chunks
    tenants = [tenant(1, universe=300), tenant(2, universe=300, alpha=0.7, weight=2)]
    cache = ProbeCache()
    for policy in ("global", "static"):
        for capacity in (2, 17, 64, 150, 301):
            s = Scenario(
                capacity=capacity, policy=policy, tenants=tenants, total_txns=10_000,
                seed=4, sample_every=50,
            )
            events = held_events(cache, s, 10_000)
            assert cache.probe(s) == simulated_series(s, events)


def test_counted_series_of_a_sweep_grid_equal_the_simulation():
    """The one loop of LRU max-min and hybrid probes at grid scale, with a
    tenant that arrives late and one that departs in the final quarter."""
    tenants = [
        tenant(1, universe=300, soft=0.5),
        tenant(2, universe=300, alpha=0.7, soft=0.4, weight=2, active_until=8_500),
        tenant(3, universe=200, alpha=0.9, soft=0.6, active_from=2_000),
    ]
    cache = ProbeCache()
    for policy in RANKED:
        for capacity in (3, 40, 150, 301):
            layout = None
            if policy.startswith("hybrid"):
                dc = capacity // 6
                layout = RegionLayout(dc_sizes={1: dc, 2: dc, 3: dc}, sc_size=capacity - 3 * dc)
            s = Scenario(
                capacity=capacity, policy=policy, tenants=tenants, layout=layout,
                total_txns=10_000, seed=4, sample_every=50,
                strategy=SharingStrategy(loss_horizon=10, history_len=5),
            )
            series = cache.probe(s)
            assert series == simulated_series(s, held_events(cache, s, 10_000))
            assert set(series) == {1, 2, 3}


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
        cache.probe(s)
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
    """FCFS probes run run_scenario on insertion stamps; LRU maxmin probes
    are served by the slot-count loop instead, and drive nothing."""
    runs = counted_runs(monkeypatch)
    drives, counted = [], []
    real_drive, real_counted = harness._drive, harness._counted_rates

    def counting_drive(s, store, *args):
        drives.append((s.policy, type(store)))
        return real_drive(s, store, *args)

    def counting_counted(s, *args):
        counted.append(s.policy)
        return real_counted(s, *args)

    monkeypatch.setattr(harness, "_drive", counting_drive)
    monkeypatch.setattr(harness, "_counted_rates", counting_counted)
    base = Scenario(capacity=64, policy="global", tenants=TENANTS, replacement=replacement)
    capacity_sweep(TENANTS, [0.4], ["global", "static", "maxmin_fair"], base=base, **SWEEP)
    assert {policy for policy, _ in runs} == simulated
    assert {r for _, r in runs} <= {replacement}
    assert {policy for policy, _ in drives} == simulated
    assert {kind for _, kind in drives} == ({FifoHeaps} if simulated else set())
    assert set(counted) == {"maxmin_fair"} - simulated


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


def test_only_maxmin_fair_at_seed_0_meets_a_target_below_the_search_answer():
    """Every grid capacity from 25 to upper, on either side of the answer.

    Tenants, targets and search grid are those of the sweep-3t benchmark
    workload.  The binary search assumes that feasibility only grows with
    capacity.  For global and static under LRU that holds (the inclusion
    property); max-min sharing is not a stack algorithm, so this pins what
    is observed: no grid capacity above the search's answer fails, and one
    below it meets the target.  maxmin_fair, seed 0, target 0.45: 325 meets
    (final-quarter means 0.4578 and 0.4572), 350 fails (tenant 1 at
    0.4466), 375 meets, and the search, which probes 350 and not 325,
    answers 375.
    """
    tenants = [tenant(1, universe=1_000, soft=0.6), tenant(2, universe=1_000, alpha=0.7, soft=0.6)]
    upper, resolution = 1_500, 25
    below = []
    for seed in range(4):
        cache = ProbeCache()
        for policy in ("global", "static", "maxmin_fair", "maxmin_selfish"):
            for target in (0.3, 0.45, 0.6):
                found = min_slots_for_target(
                    policy, tenants, target, lower=50, upper=upper, resolution=resolution,
                    trials=1, seed=seed, cache=cache, **FAST,
                )
                for c in range(resolution, upper + 1, resolution):
                    meets = meets_target(policy, tenants, c, target, [seed], cache=cache, **FAST)
                    assert meets or c < found, (policy, target, seed, found, c)
                    if meets and c < found:
                        below.append((policy, seed, target, c, found))
    assert below == [("maxmin_fair", 0, 0.45, 325, 375)]
