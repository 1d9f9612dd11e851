"""run_scenario's reading of a given trace, and its memory.

The driver reads a trace _BATCH events at a time, its txns and tenant codes
as arrays, and serves the accesses between two stops in one engine call.
Reading it so keeps the errors of reading it event by event: an event of a
tenant the scenario does not list, or of one that has not arrived, raises
UnknownTenantError with the same message once the events before it are
served, whatever its tenant id's type; a txn that int64 cannot hold raises
rather than wraps.  And the driver holds one chunk at a time, so a run's
memory does not grow with its length.
"""
from __future__ import annotations

import tracemalloc

import pytest

from tenantcache.cache_core import UnknownTenantError
from tenantcache.harness import Scenario, TenantSpec, run_scenario
from tenantcache.sharing import FifoHeaps, RecencyLists
from tenantcache.workload import _BATCH, TenantWorkload, generate_stream


def scenario(**kw) -> Scenario:
    """Tenant 1 from txn 0, tenant 2 from txn 50, tenant 3 never: it
    arrives after the run ends."""
    tenants = [
        TenantSpec(TenantWorkload(tenant_id=1, universe_size=200)),
        TenantSpec(TenantWorkload(tenant_id=2, universe_size=200, active_from=50)),
        TenantSpec(TenantWorkload(tenant_id=3, universe_size=200, active_from=10**9)),
    ]
    return Scenario(**{"capacity": 64, "policy": "maxmin_fair", "tenants": tenants,
                       "total_txns": 2 * _BATCH + 500, "window_length": 10, **kw})


def served_counts(monkeypatch) -> dict:
    """The accesses each engine class serves from now on."""
    served: dict = {}
    for engine in (RecencyLists, FifoHeaps):
        def serving(store, events, *args, engine=engine, real=engine.serve):
            events = list(events)
            served[engine] = served.get(engine, 0) + len(events)
            return real(store, events, *args)

        monkeypatch.setattr(engine, "serve", serving)
    return served


@pytest.mark.parametrize("replacement,engine", [("lru", RecencyLists), ("fcfs", FifoHeaps)])
@pytest.mark.parametrize(
    "at,tenant,why",
    [
        (9_000, 99, "is not in the scenario"),
        (_BATCH, 99, "is not in the scenario"),  # a chunk's first event
        (_BATCH + 7, "x", "is not in the scenario"),  # no int for np.fromiter
        (3, 1.5, "is not in the scenario"),
        (10, 2, "has not arrived"),
        (_BATCH - 1, 3, "has not arrived"),  # a chunk's last event
    ],
)
def test_a_stranger_raises_once_the_events_before_it_are_served(
    monkeypatch, replacement, engine, at, tenant, why
):
    s = scenario(replacement=replacement)
    events = [tuple(ev) for ev in generate_stream([t.workload for t in s.tenants], s.total_txns)]
    events[at] = (at, tenant, 5)
    served = served_counts(monkeypatch)
    with pytest.raises(UnknownTenantError) as info:
        run_scenario(s, trace=iter(events))
    assert str(info.value) == f"tenant {tenant!r} at txn {at} {why}"
    assert served == {engine: at}


def test_an_earlier_error_of_another_class_wins():
    s = scenario()
    events = [tuple(ev) for ev in generate_stream([t.workload for t in s.tenants], 200)]
    events[100] = (*events[100], "a fourth field")
    events[150] = (150, 99, 5)
    with pytest.raises(ValueError, match="too many values to unpack"):
        run_scenario(s, trace=events)


@pytest.mark.parametrize("txn", [2**63, -(2**63) - 1, 2**64])
def test_a_txn_that_int64_cannot_hold_raises(txn):
    with pytest.raises(OverflowError):
        run_scenario(scenario(), trace=[(0, 1, 5), (txn, 1, 5)])


@pytest.mark.parametrize("txns", [(0, 0), (5, 3), (0, *range(2, _BATCH + 1), _BATCH)])
def test_txns_that_do_not_increase_raise(txns):
    with pytest.raises(ValueError, match="must increase"):
        run_scenario(scenario(), trace=[(txn, 1, 5) for txn in txns])


# -- memory ---------------------------------------------------------------------


def peak_bytes(run) -> int:
    """The peak of the memory that Python and numpy allocate during run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def flat_scenario(n: int, replacement: str) -> Scenario:
    tenants = [TenantSpec(TenantWorkload(tenant_id=k, universe_size=2_000, weight=k))
               for k in (1, 2)]
    return Scenario(capacity=300, policy="maxmin_fair", tenants=tenants, total_txns=n,
                    replacement=replacement, sample_every=n)


@pytest.mark.parametrize("replacement", ["lru", "fcfs"])
@pytest.mark.parametrize("given", [False, True])
def test_memory_is_flat_in_trace_length(replacement, given):
    """A generated run, or one on a generator trace, with one sample: its
    peak at 400k txns is within 1 MB of its peak at 100k."""

    def run(n):
        s = flat_scenario(n, replacement)
        trace = generate_stream([t.workload for t in s.tenants], n) if given else None
        return lambda: run_scenario(s, trace=trace)

    run(1_000)()  # first-use allocations (CDFs, caches) are not a run's growth
    short, long = peak_bytes(run(100_000)), peak_bytes(run(400_000))
    assert abs(long - short) < 2**20
