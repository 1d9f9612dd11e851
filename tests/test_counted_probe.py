"""Runs without a store, held to the store they replace.

Under LRU a tenant's resident items are always its most recent distinct
ones, and every victim is its owner's least recent item.  So run_scenario
runs LRU scenarios on per-tenant recency lists (recency_insert over
RecencyLists), and ProbeCache.lru_records replays counted_insert over
SlotCounts and per-tenant stack distances.  FCFS scenarios run on insertion
stamps (fifo_insert over FifoHeaps).  Each must give the records of the
driver over a SlotStore of the same replacement and hybrid_insert, the
reference model, sample for sample, or raise the same error class.  The unit
tests hold counted_insert to each case of hybrid_insert's case list.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenantcache.cache_core import (
    FCFS,
    LRU,
    NoCandidateError,
    RegionLayout,
    SlotStore,
    UnknownTenantError,
)
from tenantcache.harness import POLICIES, ProbeCache, Scenario, TenantSpec, _drive, run_scenario
from tenantcache.metrics import Requirement
from tenantcache.sharing import (
    DonorRanking,
    SharingStrategy,
    SlotCounts,
    counted_insert,
    hybrid_insert,
)
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
    """The reference's records over s.seed's ProbeCache trace, and lru_records'."""
    cache = ProbeCache()
    return reference(s, held_trace(s, cache), sample_from), cache.lru_records(s, sample_from)


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
    """Tenant 2 sends every odd txn from 0 but arrives at 100, so it has no
    gap and never donates; the ranked tenant donates to it until it alone
    owns SC, and then no donor is left."""
    tenants = [spec(1), spec(2, active_from=100)]
    trace = [(txn, 1 + txn % 2, txn) for txn in range(200)]
    for replacement in (LRU, FCFS):
        s = Scenario(capacity=8, policy="maxmin_fair", tenants=tenants, total_txns=200,
                     replacement=replacement)
        for run in (reference, run_scenario):
            with pytest.raises(NoCandidateError):
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
    assert len(expected) == 60


# -- counted_insert, case by case --------------------------------------------

FAIR = DonorRanking((1, 2))


def counts(dc_sizes, sc_size, dc=None, sc=None) -> SlotCounts:
    c = SlotCounts(RegionLayout(dc_sizes=dc_sizes, sc_size=sc_size), [1, 2])
    c.dc_count.update(dc or {})
    c.sc_count.update(sc or {})
    c.sc_free -= sum(c.sc_count.values())
    return c


def state(c: SlotCounts) -> tuple:
    return dict(c.dc_count), dict(c.sc_count), c.sc_free


def test_a_distance_below_the_tenants_slots_hits():
    c = counts({1: 2, 2: 2}, 4, dc={1: 2}, sc={1: 1})
    before = state(c)
    assert counted_insert(c, (1, 2), FAIR).kind == "hit"  # 2 < 2 + 1
    assert state(c) == before
    assert counted_insert(c, (1, 3), FAIR).kind != "hit"


def test_a_miss_takes_a_free_dc_slot_first():
    c = counts({1: 2, 2: 2}, 4, dc={1: 1})
    assert counted_insert(c, (1, 7), FAIR).kind == "inserted"
    assert state(c) == ({1: 2, 2: 0}, {1: 0, 2: 0}, 4)


def test_a_miss_on_a_full_dc_takes_a_free_sc_slot():
    c = counts({1: 2, 2: 0}, 4, dc={1: 2}, sc={2: 1})
    assert counted_insert(c, (1, 7), FAIR).kind == "inserted"
    assert counted_insert(c, (2, 7), FAIR).kind == "inserted"  # no DC: straight to SC
    assert state(c) == ({1: 2, 2: 0}, {1: 1, 2: 2}, 1)


def test_a_miss_with_no_sc_replaces_in_the_tenants_dc():
    c = counts({1: 2, 2: 3}, 0, dc={1: 2, 2: 3})
    before = state(c)
    assert counted_insert(c, (2, 9), FAIR).kind == "replaced"
    assert state(c) == before


def test_a_miss_on_a_full_sc_takes_a_slot_from_the_donor():
    c = counts({1: 1, 2: 1}, 3, dc={1: 1, 2: 1}, sc={1: 2, 2: 1})
    # tenant 2 ranks first and owns SC, so it gives one slot to tenant 1
    assert counted_insert(c, (1, 9), DonorRanking((2, 1))).kind == "replaced"
    assert state(c) == ({1: 1, 2: 1}, {1: 3, 2: 0}, 0)
    # tenant 2 owns no SC now, so tenant 1 donates to itself
    assert counted_insert(c, (1, 9), DonorRanking((2, 1))).kind == "replaced"
    assert state(c) == ({1: 1, 2: 1}, {1: 3, 2: 0}, 0)


def test_a_selfish_requester_donates_to_itself():
    c = counts({}, 3, sc={1: 1, 2: 2})
    # tenant 2 ranks first but refuses; the requester is taken before the
    # fallback to the first owner
    ranking = DonorRanking((2, 1), frozenset())
    assert counted_insert(c, (1, 5), ranking).kind == "replaced"
    assert state(c) == ({1: 0, 2: 0}, {1: 1, 2: 2}, 0)
    # a volunteer gives its slot
    assert counted_insert(c, (1, 5), DonorRanking((2, 1), frozenset({2}))).kind == "replaced"
    assert state(c) == ({1: 0, 2: 0}, {1: 2, 2: 1}, 0)
