"""run_scenario's one-comparison schedule against the per-event loop it replaced.

reference_run_scenario below is run_scenario as it stood when every event
probed the activation changes and the sampling grid, copied verbatim; its
inserts take that loop's (gaps, eligible) arguments and rank the donors on
every call.  For any increasing trace that skips no activation change,
gaps included, run_scenario must give the same records.  The reference
acts only on a change at exactly an event's txn, so a trace that skips an
arrival leaves that tenant without a gap; run_scenario applies every change
at or before an event's txn, and such traces are checked on their own.
"""
from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Iterable

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from tenantcache.cache_core import RegionLayout, SlotStore
from tenantcache.harness import POLICIES, SampleRecord, Scenario, TenantSpec, _sample, run_scenario
from tenantcache.metrics import HitRateTracker, Requirement
from tenantcache import sharing
from tenantcache.sharing import INF, rank_donors, selfish_eligible
from tenantcache.workload import (
    TenantWorkload,
    WorkloadPhase,
    activation_timeline,
    _BATCH,
    generate_stream,
)

# -- the reference: the per-event driver loop, verbatim ----------------------


def _gaps_signature(insert):
    """insert called as the reference loop calls it, with gaps and the selfish answers."""

    def call(store, key, gaps=None, eligible=None):
        return insert(store, key, None if gaps is None else rank_donors(gaps, eligible))

    return call


global_insert = static_insert = _gaps_signature(sharing.global_insert)
maxmin_insert = hybrid_insert = _gaps_signature(sharing.hybrid_insert)


def reference_run_scenario(
    s: Scenario, trace: Iterable[tuple[int, int, int]] | None = None, sample_from: int = 0
) -> list[SampleRecord]:
    """Drive the scenario's policy over its workload stream.

    A lookup hit before any mutation counts as a hit; everything else is a
    miss.  A given trace holds (txn, tenant_id, item) triples, AccessEvents
    or plain tuples; without one the scenario's stream is generated.  One
    SampleRecord is emitted every sample_every transactions from txn
    sample_from on, over the tenants active at that txn per
    activation_timeline (the generator's account of arrivals and
    departures).  Sampling only reads the run, so sample_from decides which
    records are built, never their values.  Selfish or fair sharing follows
    the policy name.  The run is fully deterministic given the scenario (seed
    included).
    """
    s.validate()
    layout = s.resolved_layout()
    store = SlotStore(layout, s.replacement)
    policy = s.policy
    strategy = s.strategy
    selfish = policy.endswith("selfish")

    reqs = {t.workload.tenant_id: t.requirement for t in s.tenants}
    trackers = {
        k: HitRateTracker(window_length=s.window_length, ewma_weight=s.ewma_weight)
        for k in reqs
    }
    # per tenant, one (owned slots, smoothed hit rate) point per closed window
    histories = {k: deque(maxlen=strategy.history_len) for k in reqs}

    # gaps drive victim selection; departed owners get +inf so their residual
    # slots are reclaimed first
    gaps: dict = {}
    eligible: dict = {}
    active: set = set()

    def refresh(k) -> None:
        """Set k's gap, and under selfish sharing its answer as a donor."""
        hit_rate = trackers[k].hit_rate
        gaps[k] = hit_rate - reqs[k].soft
        if selfish:
            eligible[k] = selfish_eligible(histories[k], hit_rate, reqs[k].soft, strategy)

    workloads = [t.workload for t in s.tenants]
    # the active set from each txn where it changes; an idle stretch's two
    # entries share a txn, and the later one wins
    changes = {txn: set(ids) for txn, _, ids in activation_timeline(workloads, s.total_txns)}

    if trace is None:
        trace = generate_stream(workloads, s.total_txns, s.seed)

    # one algorithm under the policy family's name, resolved once per run from
    # the module globals so that wrappers apply; without gaps SC donors go by age
    if policy in ("global", "static"):
        insert = global_insert if policy == "global" else static_insert
        insert_args: tuple = ()
    else:
        insert = maxmin_insert if policy.startswith("maxmin") else hybrid_insert
        insert_args = (gaps, eligible if selfish else None)

    records: list[SampleRecord] = []
    sample_every = s.sample_every

    for txn, tenant, item in trace:
        if txn in changes:
            now = changes[txn]
            for k in active - now:
                gaps[k] = INF
                eligible[k] = True
            for k in now - active:
                refresh(k)
            active = now

        outcome = insert(store, (tenant, item), *insert_args)
        tracker = trackers[tenant]
        if tracker.record_access(outcome.kind == "hit") is not None:
            histories[tenant].append((sum(store.owned(tenant)), tracker.hit_rate))
            refresh(tenant)

        if (txn + 1) % sample_every == 0 and txn >= sample_from:
            records.append(_sample(txn, store, trackers, reqs, gaps, active))
    return records


# -- the comparison ----------------------------------------------------------

TENANTS = (1, 2, 3)

# a tenant's activity: (active_from, active_until or None), both in txns
spans = st.tuples(st.integers(0, 400), st.none() | st.integers(1, 500)).map(
    lambda s: (s[0], None if s[1] is None else s[0] + s[1])
)


def scenario(policy, activity, total_txns, sample_every, seed):
    tenants = [
        TenantSpec(
            workload=TenantWorkload(
                tenant_id=tid,
                universe_size=60,
                phases=(WorkloadPhase(alpha=1.0), WorkloadPhase(alpha=0.6, start_txn=150)),
                active_from=start,
                active_until=until,
                weight=tid,
            ),
            requirement=Requirement(hard=0.1, soft=0.3 + 0.1 * tid),
        )
        for tid, (start, until) in zip(TENANTS, activity)
    ]
    ids = [t.workload.tenant_id for t in tenants]
    layout = None
    if policy.startswith("hybrid"):
        layout = RegionLayout(dc_sizes={t: 3 for t in ids}, sc_size=12)
    return Scenario(
        capacity=12 + 3 * len(ids) if layout else 16,
        policy=policy,
        tenants=tenants,
        layout=layout,
        total_txns=total_txns,
        window_length=17,
        seed=seed,
        sample_every=sample_every,
    )


def outcome(run, s, trace, sample_from):
    """run's records, or the type and message of what it raised."""
    try:
        return run(s, trace=trace, sample_from=sample_from)
    except Exception as exc:
        return type(exc), str(exc)


def sample_start(sample_from, sample_every, total_txns):
    if sample_from == "grid":
        return 5 * sample_every - 1
    if sample_from == "off":
        return 5 * sample_every + sample_every // 2
    if sample_from == "past":
        return total_txns + sample_every
    return sample_from


def skipped_changes(s, events) -> list:
    """The activation-change txns that the trace skips before its last event."""
    txns = {ev[0] for ev in events}
    last = max(txns, default=-1)
    timeline = activation_timeline([t.workload for t in s.tenants], s.total_txns)
    return [txn for txn, _, _ in timeline if txn < last and txn not in txns]


def check_skipped_changes_take_effect(s, events, sample_from):
    """Records on the trace's own sampled txns, each over the active set at its txn."""
    records = run_scenario(s, trace=iter(events), sample_from=sample_from)
    every = s.sample_every
    assert [r.txn for r in records] == [
        txn for txn, _, _ in events if (txn + 1) % every == 0 and txn >= sample_from
    ]
    timeline = activation_timeline([t.workload for t in s.tenants], s.total_txns)
    for r in records:
        active = [ids for txn, _, ids in timeline if txn <= r.txn][-1]
        assert sorted(r.tenants) == list(active)


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    activity=st.lists(spans, min_size=1, max_size=3),
    total_txns=st.integers(100, 700),
    sample_every=st.integers(1, 50),
    sample_from=st.sampled_from(("grid", "off", "past")) | st.integers(0, 300),
    gaps=st.none() | st.lists(st.booleans(), min_size=1, max_size=40),
    seed=st.integers(0, 3),
)
# an idle stretch: two timeline entries at one txn
@example("hybrid_selfish", [(0, 120), (300, None)], 500, 10, "grid", None, 0)
# a departure, a late arrival and an early end, sampled off the grid
@example("maxmin_selfish", [(0, 200), (50, 260), (100, 240)], 600, 7, "off", None, 1)
# an increasing trace with gaps, sampled from past its end
@example("global", [(0, None), (90, 300)], 400, 3, "past", [True, False, False], 2)
# odd txns dropped, so tenant 2's arrival at txn 7 is skipped (the reference
# leaves it without a gap and raises KeyError(2) at a donor choice)
@example("maxmin_fair", [(0, None), (7, None)], 300, 10, "grid", [True, False], 0)
def test_schedule_matches_the_per_event_loop(
    policy, activity, total_txns, sample_every, sample_from, gaps, seed
):
    s = scenario(policy, activity, total_txns, sample_every, seed)
    sample_from = sample_start(sample_from, sample_every, total_txns)
    workloads = [t.workload for t in s.tenants]
    events = [tuple(ev) for ev in generate_stream(workloads, total_txns, seed)]
    if gaps is not None:  # keep the events whose txn the pattern marks
        events = [ev for ev in events if gaps[ev[0] % len(gaps)]]
    if skipped_changes(s, events):
        check_skipped_changes_take_effect(s, events, sample_from)
        return
    expected = outcome(reference_run_scenario, s, iter(events), sample_from)
    assert outcome(run_scenario, s, iter(events), sample_from) == expected
    if gaps is None:
        assert outcome(run_scenario, s, None, sample_from) == expected


@settings(max_examples=100, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    activity=st.lists(spans, min_size=2, max_size=3),
    total_txns=st.integers(100, 700),
    sample_every=st.integers(1, 50),
    sample_from=st.sampled_from(("grid", "off")) | st.integers(0, 300),
    gaps=st.lists(st.booleans(), min_size=1, max_size=40),
    seed=st.integers(0, 3),
)
def test_skipped_activation_changes_take_effect(
    policy, activity, total_txns, sample_every, sample_from, gaps, seed
):
    """A trace without any change txn after 0: arrivals and departures still happen."""
    s = scenario(policy, activity, total_txns, sample_every, seed)
    sample_from = sample_start(sample_from, sample_every, total_txns)
    workloads = [t.workload for t in s.tenants]
    changes = {txn for txn, _, _ in activation_timeline(workloads, total_txns) if txn}
    events = [
        tuple(ev)
        for ev in generate_stream(workloads, total_txns, seed)
        if ev[0] not in changes and gaps[ev[0] % len(gaps)]
    ]
    check_skipped_changes_take_effect(s, events, sample_from)


# -- across chunks -------------------------------------------------------------

# the driver reads a trace _BATCH events at a time; these traces cross chunk
# boundaries, where the stops of one chunk must carry into the next
AFTER = [True] * _BATCH + [False] * 108 + [True] * _BATCH  # txns 8192-8299 dropped


@pytest.mark.parametrize("replacement", ["lru", "fcfs"])
@settings(phases=[Phase.explicit], deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    activity=st.lists(spans, min_size=1, max_size=3),
    total_txns=st.integers(100, 700),
    sample_every=st.integers(1, 50),
    sample_from=st.sampled_from(("grid", "off", "past")) | st.integers(0, 300),
    gaps=st.none() | st.lists(st.booleans(), min_size=1, max_size=40),
    seed=st.integers(0, 3),
)
# windows of 17 accesses straddle each boundary, and txn 8191, a chunk's
# last access, is sampled
@example("hybrid_selfish", [(0, None), (0, None), (0, None)], 20_000, 64, 0, None, 0)
# an arrival at a chunk's first txn, sampled from there on
@example("hybrid_fair", [(0, None), (_BATCH, None)], 20_000, 128, _BATCH, None, 1)
# an idle stretch (two timeline entries at txn 8000) just before a boundary,
# and a departure inside the third chunk
@example("maxmin_fair", [(0, 8_000), (8_500, None), (0, 17_500)], 20_000, 100, "grid", None, 2)
# a departure and an early end, sampled off the grid
@example("maxmin_selfish", [(0, 12_000), (3_000, 15_000)], 20_000, 333, "off", None, 3)
# a gapped trace: txns 8192-8299 are dropped, so the arrival at 8200 is
# skipped and applies before the next chunk's first access, at txn 8300
@example("global", [(0, None), (8_200, None)], 20_000, 50, 0, AFTER, 0)
@example("static", [(0, None), (8_200, None)], 20_000, 50, 0, AFTER, 1)
def test_schedule_matches_the_per_event_loop_across_chunks(
    replacement, policy, activity, total_txns, sample_every, sample_from, gaps, seed
):
    s = replace(scenario(policy, activity, total_txns, sample_every, seed), replacement=replacement)
    sample_from = sample_start(sample_from, sample_every, total_txns)
    workloads = [t.workload for t in s.tenants]
    events = [tuple(ev) for ev in generate_stream(workloads, total_txns, seed)]
    if gaps is not None:
        events = [ev for ev in events if gaps[ev[0] % len(gaps)]]
    if skipped_changes(s, events):
        check_skipped_changes_take_effect(s, events, sample_from)
        return
    expected = outcome(reference_run_scenario, s, iter(events), sample_from)
    assert outcome(run_scenario, s, iter(events), sample_from) == expected
    if gaps is None:
        assert outcome(run_scenario, s, None, sample_from) == expected


@pytest.mark.parametrize("replacement", ["lru", "fcfs"])
def test_items_past_int64_keep_keys_of_their_own(replacement):
    """Under global every key is a (tenant, item) pair in one shared cache,
    so an item that int64 cannot hold, one that wraps to another's value,
    and another tenant's same item are each a key of their own: in one
    slot, every access of this trace misses."""
    s = replace(scenario("global", [(0, None), (0, None)], 600, 10, 0),
                capacity=1, replacement=replacement)
    items = (1, 1 + 2**64)  # equal in 64 bits
    events = [(txn, 1 if txn % 3 else 2, items[txn % 2]) for txn in range(600)]
    expected = reference_run_scenario(s, iter(events))
    assert run_scenario(s, trace=iter(events)) == expected
    assert {t.ewma_hit_rate for r in expected for t in r.tenants.values()} == {0.0}
