"""Runs and probes without a store, held to the store they replace.

Under LRU a tenant's resident items are always its most recent distinct
ones, and every victim is its owner's least recent item.  So run_scenario
runs LRU scenarios on per-tenant recency lists (recency_insert over
RecencyLists), and ProbeCache.probe serves an LRU max-min or hybrid probe
with one loop over per-tenant stack distances that keeps slot counts alone
(_counted_rates).  FCFS scenarios run on insertion stamps (fifo_insert over
FifoHeaps).  Each must give the driver's results over a SlotStore of the
same replacement and hybrid_insert, the reference model: the same records
(the same EWMA at each sample, for the loop), or the same error class.  The
unit tests hold the loop to each case of hybrid_insert's case list, one
hand-built distance trace per case.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenantcache.cache_core import (
    FCFS,
    LRU,
    RegionLayout,
    SlotStore,
    UnknownTenantError,
)
from tenantcache.harness import (
    _COLD,
    POLICIES,
    ProbeCache,
    Scenario,
    TenantSpec,
    _counted_rates,
    _drive,
    run_scenario,
)
from tenantcache.metrics import Requirement
from tenantcache.sharing import SharingStrategy, hybrid_insert
from tenantcache.workload import TenantWorkload, WorkloadPhase

RANKED = ("maxmin_fair", "maxmin_selfish", "hybrid_fair", "hybrid_selfish")


def reference(s: Scenario, trace, sample_from: int) -> list:
    """The driver's records over a SlotStore of s's replacement and hybrid_insert."""
    s.validate()
    store = SlotStore(s.resolved_layout(), s.replacement)
    return _drive(s, store, hybrid_insert, trace, sample_from)


def held_trace(s: Scenario, cache: ProbeCache | None = None) -> list:
    """s.seed's ProbeCache trace of s.total_txns txns."""
    cache = cache or ProbeCache()
    return list(cache.trace([t.workload for t in s.tenants], s.total_txns, s.seed))


def store_and_counted(s: Scenario, sample_from: int) -> tuple:
    """(tenant, EWMA hit rate) at each sample from sample_from on: the
    reference's over s.seed's ProbeCache trace, and _counted_rates' over its
    stack distances, as ProbeCache.probe serves an LRU max-min or hybrid
    probe."""
    cache = ProbeCache()
    records = reference(s, held_trace(s, cache), sample_from)
    expected = [(k, t.ewma_hit_rate) for rec in records for k, t in rec.tenants.items()]
    distances = cache.stack_distances([t.workload for t in s.tenants], s.total_txns, s.seed)
    return expected, list(_counted_rates(s, distances, sample_from))


def result(run, *args) -> tuple:
    """("records", the records) of run(*args), or ("raised", the error class)."""
    try:
        return "records", run(*args)
    except Exception as exc:  # noqa: BLE001 -- the class is what is compared
        return "raised", type(exc)


# -- runs against the store ---------------------------------------------------


@st.composite
def tenant_specs(draw, tid: int) -> TenantSpec:
    start, phases = 0, [WorkloadPhase(draw(st.sampled_from((0.0, 0.6, 1.0, 1.4))))]
    for _ in range(draw(st.integers(0, 2))):
        start += draw(st.integers(1, 300))
        phases.append(WorkloadPhase(draw(st.sampled_from((0.0, 0.6, 1.0, 1.4))), start))
    active_from = draw(st.just(0) | st.integers(0, 300))
    active_until = draw(st.none() | st.integers(active_from + 1, active_from + 500))
    workload = TenantWorkload(
        tenant_id=tid,
        universe_size=draw(st.integers(1, 60)),
        phases=tuple(phases),
        active_from=active_from,
        active_until=active_until,
        weight=draw(st.integers(1, 3)),
    )
    soft = draw(st.sampled_from((0.0, 0.2, 0.4, 0.7, 0.95)))
    return TenantSpec(workload=workload, requirement=Requirement(hard=0.0, soft=soft))


@st.composite
def scenarios(draw, policies=RANKED, replacement=LRU) -> Scenario:
    """A scenario of one of policies under replacement: phases, arrivals and
    departures, selfish strategies, DCs of size 0, hybrids with no SC and
    static splits of any sizes."""
    policy = draw(st.sampled_from(policies))
    ids = range(1, draw(st.integers(1, 3)) + 1)
    tenants = [draw(tenant_specs(k)) for k in ids]
    if policy in ("global", "maxmin_fair", "maxmin_selfish"):
        layout = RegionLayout.global_layout(draw(st.integers(1, 40)))
    elif policy == "static":
        layout = RegionLayout(dc_sizes={k: draw(st.integers(1, 12)) for k in ids})
    else:
        sc_size = draw(st.sampled_from((0, 0, 1, 3, 8, 15)))
        least = 0 if sc_size else 1  # with no SC every tenant needs a DC slot
        layout = RegionLayout(
            dc_sizes={k: draw(st.integers(least, 8)) for k in ids}, sc_size=sc_size
        )
    return Scenario(
        capacity=layout.capacity,
        policy=policy,
        tenants=tenants,
        layout=layout,
        total_txns=draw(st.integers(0, 800)),
        window_length=draw(st.integers(1, 40)),
        replacement=replacement,
        ewma_weight=draw(st.sampled_from((0.1, 0.5, 1.0))),
        strategy=SharingStrategy(
            loss_horizon=draw(st.integers(1, 12)), history_len=draw(st.integers(2, 6))
        ),
        seed=draw(st.integers(0, 5)),
        sample_every=draw(st.integers(1, 60)),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), s=scenarios())
def test_counted_replay_gives_the_store_runs_records(data, s):
    # from within the trace's first half, so that most examples sample something
    sample_from = data.draw(st.integers(0, s.total_txns // 2))
    expected, counted = store_and_counted(s, sample_from)
    assert counted == expected


@st.composite
def traces(draw, s: Scenario) -> list:
    """A trace for s: its own held trace, with gaps or not, or one that
    ignores the scenario's arrivals and departures; maybe with an event of
    a tenant s does not list."""
    ids = s.tenant_ids()
    if draw(st.booleans()):
        trace = held_trace(s)
        every = draw(st.integers(1, 4))
        if every > 1:  # drop the txns of one residue: activation changes may be skipped
            skip = draw(st.integers(0, every - 1))
            trace = [ev for ev in trace if ev[0] % every != skip]
    else:
        steps = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(ids),
                                        st.integers(0, 30)), min_size=20, max_size=400))
        txn, trace = -1, []
        for step, tenant, item in steps:
            txn += step
            trace.append((txn, tenant, item))
    if trace and not draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(trace) - 1))
        trace[at] = (trace[at][0], 99, trace[at][2])
    return trace


def assert_run_gives_the_store_runs_records(data, s):
    """Every policy, gapped traces, traces that break the scenario's timeline
    and events of a tenant it does not list: records equal, or the same error
    class raised.  The driver names an unlisted tenant before its access, so
    both engines raise UnknownTenantError at its event unless an earlier
    event raised."""
    trace = data.draw(traces(s))
    sample_from = data.draw(st.integers(0, trace[-1][0] // 2 if trace else 0))
    assert result(run_scenario, s, trace, sample_from) == result(reference, s, trace, sample_from)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), s=scenarios(POLICIES))
def test_lru_runs_give_the_store_runs_records(data, s):
    assert_run_gives_the_store_runs_records(data, s)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), s=scenarios(POLICIES, FCFS))
def test_fifo_runs_give_the_store_runs_records(data, s):
    assert_run_gives_the_store_runs_records(data, s)


@pytest.mark.parametrize("policy", POLICIES)
def test_an_unlisted_tenant_raises_under_every_policy(policy):
    if policy.startswith("hybrid"):
        layout = RegionLayout(dc_sizes={1: 2, 2: 2}, sc_size=4)
    elif policy == "static":
        layout = RegionLayout(dc_sizes={1: 4, 2: 4})
    else:
        layout = RegionLayout.global_layout(8)
    trace = [(0, 1, 5), (1, 2, 5), (2, 99, 5)]
    for replacement in (LRU, FCFS):
        s = Scenario(capacity=8, policy=policy, tenants=[spec(1), spec(2)], layout=layout,
                     total_txns=100, replacement=replacement)
        for run in (reference, run_scenario):
            with pytest.raises(UnknownTenantError, match="99"):
                run(s, trace, 0)


def test_a_tenant_sending_before_its_arrival_raises_as_the_store_does():
    """Tenant 2 sends every odd txn from 0 but arrives at 100: the driver
    names it at its first event, whichever policy and engine run."""
    tenants = [spec(1), spec(2, active_from=100)]
    trace = [(txn, 1 + txn % 2, txn) for txn in range(200)]
    for policy in ("global", "static", "maxmin_fair"):
        for replacement in (LRU, FCFS):
            s = Scenario(capacity=8, policy=policy, tenants=tenants, total_txns=200,
                         replacement=replacement)
            for run in (reference, run_scenario):
                with pytest.raises(UnknownTenantError, match="tenant 2 at txn 1 has not arrived"):
                    run(s, trace, 0)


def spec(tid, alpha=1.0, soft=0.5, **kw) -> TenantSpec:
    workload = TenantWorkload(
        tenant_id=tid, universe_size=40, phases=(WorkloadPhase(alpha),), **kw
    )
    return TenantSpec(workload=workload, requirement=Requirement(hard=0.0, soft=soft))


@pytest.mark.parametrize(
    "policy,dc_sizes,sc_size",
    [
        ("maxmin_fair", {}, 24),
        ("maxmin_selfish", {}, 24),
        ("hybrid_fair", {1: 6, 2: 0, 3: 4}, 14),  # tenant 2 lives in SC alone
        ("hybrid_selfish", {1: 6, 2: 5, 3: 4}, 14),
        ("hybrid_fair", {1: 6, 2: 5, 3: 4}, 0),  # no SC: static caching
    ],
)
def test_counted_replay_over_churn(policy, dc_sizes, sc_size):
    """Phases, a late arrival and a departure, with donations that change hands."""
    tenants = [
        spec(1, soft=0.7),
        TenantSpec(
            workload=TenantWorkload(
                tenant_id=2,
                universe_size=60,
                phases=(WorkloadPhase(1.2), WorkloadPhase(0.3, 1_000), WorkloadPhase(1.0, 2_000)),
                weight=2,
            ),
            requirement=Requirement(hard=0.0, soft=0.4),
        ),
        spec(3, alpha=0.6, soft=0.2, active_from=500, active_until=2_500),
    ]
    layout = RegionLayout(dc_sizes=dc_sizes, sc_size=sc_size)
    s = Scenario(
        capacity=layout.capacity,
        policy=policy,
        tenants=tenants,
        layout=layout,
        total_txns=3_000,
        window_length=25,
        strategy=SharingStrategy(loss_horizon=3, history_len=4),
        sample_every=50,
        seed=4,
    )
    expected, counted = store_and_counted(s, 0)
    assert counted == expected
    assert sum(k == 1 for k, _ in expected) == 60  # a sample every 50 txns


# -- the loop, case by case -----------------------------------------------------


def hit_bits(policy, layout, trace, softs=(0.0, 0.0), strategy=SharingStrategy()) -> list:
    """Whether each access of trace hits in _counted_rates.

    trace holds (tenant, tenant distance) pairs of tenants 1 and 2, None for
    a first access.  With windows of one access, an EWMA weight of 1 and a
    sample at every txn, the accessing tenant's EWMA after its access is its
    hit bit, and a tenant's gap is its last hit bit less its soft level.
    """
    tenants = [spec(k, soft=soft) for k, soft in zip((1, 2), softs)]
    s = Scenario(capacity=layout.capacity, policy=policy, tenants=tenants, layout=layout,
                 total_txns=len(trace), window_length=1, ewma_weight=1.0, sample_every=1,
                 strategy=strategy)
    s.validate()
    codes = np.array([k - 1 for k, _ in trace], dtype=np.int32)
    tenant_d = np.array([_COLD if d is None else d for _, d in trace], dtype=np.int32)
    pairs = list(_counted_rates(s, ([1, 2], codes, None, tenant_d), 0))
    assert len(pairs) == 2 * len(trace)  # both tenants, at every txn
    return [pairs[2 * txn + k - 1][1] == 1.0 for txn, (k, _) in enumerate(trace)]


def test_a_distance_below_the_tenants_slots_hits():
    # tenant 1 fills its DC, then takes an SC slot: 3 slots
    layout = RegionLayout(dc_sizes={1: 2, 2: 2}, sc_size=4)
    trace = [(1, None)] * 3 + [(1, 2), (1, 0), (1, 3)]
    assert hit_bits("hybrid_fair", layout, trace) == [False] * 3 + [True, True, False]


def test_a_miss_takes_a_free_dc_slot_first():
    # tenant 1's two misses fill its DC and leave all 4 SC slots to tenant 2,
    # which then holds 2 + 4 and has taken none of tenant 1's 2
    layout = RegionLayout(dc_sizes={1: 2, 2: 2}, sc_size=4)
    trace = [(1, None)] * 2 + [(2, None)] * 6 + [(2, 5), (1, 1)]
    assert hit_bits("hybrid_fair", layout, trace) == [False] * 8 + [True, True]


def test_a_miss_on_a_full_dc_takes_a_free_sc_slot():
    layout = RegionLayout(dc_sizes={1: 2, 2: 0}, sc_size=4)
    trace = [
        (1, None), (1, None), (1, None),  # DC full: the third takes an SC slot
        (2, None),  # no DC: straight to SC
        (1, 2), (2, 0),  # 3 slots and 1
        (2, None),  # the last free SC slot
        (2, 1), (1, 3),  # 2 slots and still 3
    ]
    assert hit_bits("hybrid_fair", layout, trace) == [
        False, False, False, False, True, True, False, True, False,
    ]


def test_a_miss_with_no_sc_replaces_in_the_tenants_dc():
    layout = RegionLayout(dc_sizes={1: 2, 2: 3}, sc_size=0)
    # the fourth miss replaces one of tenant 2's own 3 items; it keeps 3
    trace = [(2, None)] * 4 + [(2, 2), (2, 3)]
    assert hit_bits("hybrid_fair", layout, trace) == [False] * 4 + [True, False]


def test_a_miss_on_a_full_sc_takes_a_slot_from_the_donor():
    layout = RegionLayout(sc_size=3)
    trace = [
        (1, None), (2, None), (2, None),  # SC full: tenant 1 holds 1, tenant 2 holds 2
        (2, 0),  # a hit: gap 1 ranks tenant 2 first
        (1, None),  # so tenant 2 gives a slot to tenant 1
        (1, 1),  # a hit: tenant 1 holds 2; the gaps tie at 1, so tenant 1 ranks first
        (2, 1),  # a miss: tenant 2 holds 1, and tenant 1 gives the slot back
        (1, None),  # tenant 1 still ranks first (gap 1 to 0): it donates to itself
        (1, 0), (1, 1), (2, 1),  # tenant 1 holds 1, tenant 2 holds 2
    ]
    assert hit_bits("maxmin_fair", layout, trace) == [
        False, False, False, True, False, True, False, False, True, False, True,
    ]


def test_a_selfish_requester_donates_to_itself():
    layout = RegionLayout(sc_size=3)
    strategy = SharingStrategy(loss_horizon=1, history_len=2)
    trace = [
        (2, None), (2, None),  # tenant 2 holds 2; its history (1, 0), (2, 0)
        # a hit: gap 1 - 0.6 > 0, but the mean of its history (2, 0), (2, 1)
        # is below 0.6, so it refuses to donate
        (2, 0),
        (1, None),  # SC full: tenant 1 holds 1
        (1, None),  # tenant 2 ranks first but refuses: the requester donates
        (1, 1),  # so tenant 1 still holds 1
        (2, 1),  # and tenant 2 still holds 2; its history (2, 1), (2, 1): it volunteers
        (1, None),  # and gives a slot to tenant 1
        (1, 1), (2, 1),  # tenant 1 holds 2 now, tenant 2 holds 1
    ]
    assert hit_bits("maxmin_selfish", layout, trace, (0.6, 0.6), strategy) == [
        False, False, True, False, False, False, True, False, True, False,
    ]
