"""The SlotStore victim index against a brute-force oracle, and its memory bound."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenantcache.cache_core import (
    FCFS,
    LRU,
    SC,
    CacheError,
    NoCandidateError,
    RegionLayout,
    SlotStore,
    dc_region,
    global_insert,
)

TENANTS = (1, 2, 3)


def stamps(store, policy):
    return store.last_seq if policy == LRU else store.ins_seq


def oracle_victim(store, region, owner, policy):
    """argmin of (stamp, index) over the occupied candidate slots, or None."""
    seqs = stamps(store, policy)
    candidates = [
        (seqs[i], i)
        for i in range(store.capacity)
        if store.keys[i] is not None
        and store.regions[i] == region
        and (owner is None or store.owners[i] == owner)
    ]
    return min(candidates)[1] if candidates else None


def heap_entries(store):
    """Entries held per built policy index."""
    return {
        policy: sum(len(h) for by_owner in index.heaps.values() for h in by_owner.values())
        for policy, index in store._victims.items()
    }


layouts = st.builds(
    lambda dcs, sc: RegionLayout(dc_sizes=dict(zip(TENANTS, dcs)), sc_size=sc),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.integers(1, 4),
)
tenants = st.sampled_from(TENANTS)
owners = st.sampled_from((None,) + TENANTS)
policies = st.sampled_from((LRU, FCFS))
ops = st.one_of(
    st.tuples(st.just("insert"), tenants, st.integers(0, 9), st.booleans()),
    st.tuples(st.just("lookup"), tenants, st.integers(0, 9)),
    st.tuples(st.just("evict_victim"), st.booleans(), owners, policies),
    st.tuples(st.just("promote"), tenants, st.integers(0, 9), policies),
)


@settings(max_examples=150, deadline=None)
@given(layouts, st.lists(ops, max_size=400))
def test_victims_match_oracle_and_memory_is_bounded(layout, script):
    store = SlotStore(layout)
    bound = 2 * store.capacity + 64
    for op in script:
        kind = op[0]
        if kind == "insert":
            _, tenant, item, use_sc = op
            region = SC if use_sc else dc_region(tenant)
            key = (tenant, item)
            if store.peek(key) is None and store.free_count(region):
                store.insert_into_empty(key, region)
        elif kind == "lookup":
            _, tenant, item = op
            store.lookup((tenant, item))
        elif kind == "evict_victim":
            _, use_sc, owner, policy = op
            region = SC if use_sc else dc_region(owner or 1)
            expected = oracle_victim(store, region, owner, policy)
            if expected is None:
                with pytest.raises(NoCandidateError):
                    store.evict_victim(region, owner, policy)
            else:
                assert store.evict_victim(region, owner, policy) == expected
                assert store.keys[expected] is None
        else:  # the hybrid promotion: an SC slot swaps with its owner's DC victim
            _, tenant, item, policy = op
            idx = store.peek((tenant, item))
            dcr = dc_region(tenant)
            expected = oracle_victim(store, dcr, tenant, policy)
            if expected is None:
                with pytest.raises(NoCandidateError):
                    store.select_victim(dcr, tenant, policy)
            else:
                victim = store.select_victim(dcr, tenant, policy)
                assert victim == expected
                # a query consumes nothing: asking again gives the same slot
                assert store.select_victim(dcr, tenant, policy) == victim
                if idx is not None and store.regions[idx] == SC:
                    store.swap(idx, victim)
        for policy in store._victims:
            for region in [SC] + [dc_region(t) for t in TENANTS]:
                for owner in (None,) + TENANTS:
                    expected = oracle_victim(store, region, owner, policy)
                    if expected is not None:
                        assert store.select_victim(region, owner, policy) == expected
        assert all(n <= bound for n in heap_entries(store).values())


def test_filling_builds_no_index():
    store = SlotStore(RegionLayout.global_layout(4))
    for item in range(4):
        global_insert(store, (1, item))
        global_insert(store, (1, item))
    assert store.occupied_count() == 4
    assert store._victims == {}


def test_only_the_queried_policy_is_indexed():
    store = SlotStore(RegionLayout.global_layout(8))
    for item in range(100):
        global_insert(store, (item % 2, item % 13), LRU)
    assert set(store._victims) == {LRU}


def test_memory_bounded_when_a_heap_is_never_queried():
    # tenant 2 only hits, so nothing ever pops its heap: only compaction bounds it
    store = SlotStore(RegionLayout.global_layout(8))
    for item in range(4):
        store.insert_into_empty((2, item), SC)
    for n in range(20_000):
        key = (1, n % 9)
        if store.peek(key) is None:
            if not store.free_count(SC):
                store.evict_victim(SC, 1)
            store.insert_into_empty(key, SC)
        store.lookup((2, n % 4))
        assert heap_entries(store).get(LRU, 0) <= 2 * store.capacity + 64


@pytest.mark.parametrize("query", ["select_victim", "evict_victim"])
def test_unknown_policy_rejected(query):
    store = SlotStore(RegionLayout.global_layout(2))
    store.insert_into_empty((1, "a"), SC)
    with pytest.raises(CacheError, match="mru"):
        getattr(store, query)(SC, None, "mru")
    assert store.peek((1, "a")) is not None
