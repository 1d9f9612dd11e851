"""The SlotStore victim query against a brute-force oracle, and the memory of
the per-(region, owner) slot sets it scans."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenantcache.cache_core import (
    FCFS,
    LRU,
    SC,
    NoCandidateError,
    RegionLayout,
    SlotStore,
    dc_region,
)

TENANTS = (1, 2, 3)


def oracle_victim(store, region, owner):
    """argmin of (stamp, index) over the occupied candidate slots, or None."""
    candidates = [
        (store.stamps[i], i)
        for i in range(store.capacity)
        if store.keys[i] is not None
        and store.regions[i] == region
        and (owner is None or store.keys[i][0] == owner)
    ]
    return min(candidates)[1] if candidates else None


def assert_victims_match_oracle(store):
    """Every owner-filtered and owner-free query names the oracle's slot, or raises."""
    for region in [SC] + [dc_region(t) for t in TENANTS]:
        for owner in (None,) + TENANTS:
            expected = oracle_victim(store, region, owner)
            if expected is None:
                with pytest.raises(NoCandidateError):
                    store.select_victim(region, owner)
            else:
                assert store.select_victim(region, owner) == expected


def assert_slot_sets_exact(store):
    """The slot sets hold each occupied slot once, under its region and owner,
    and nothing else: their memory is bounded by the occupied slots."""
    entries = [
        (region, owner, i)
        for region, by_owner in store.occupied.items()
        for owner, slots in by_owner.items()
        for i in slots
    ]
    assert sorted(entries, key=lambda e: e[2]) == [
        (store.regions[i], store.keys[i][0], i)
        for i in range(store.capacity)
        if store.keys[i] is not None
    ]
    assert len(entries) == store.occupied_count() <= store.capacity


layouts = st.builds(
    lambda dcs, sc: RegionLayout(dc_sizes=dict(zip(TENANTS, dcs)), sc_size=sc),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.integers(1, 4),
)
tenants = st.sampled_from(TENANTS)
owners = st.sampled_from((None,) + TENANTS)
ops = st.one_of(
    st.tuples(st.just("insert"), tenants, st.integers(0, 9), st.booleans()),
    st.tuples(st.just("lookup"), tenants, st.integers(0, 9)),
    st.tuples(st.just("evict_victim"), st.booleans(), owners),
    st.tuples(st.just("evict"), st.integers(0, 15)),
    st.tuples(st.just("swap"), st.integers(0, 15), st.integers(0, 15)),
)


@settings(max_examples=150, deadline=None)
@given(layouts, st.sampled_from((LRU, FCFS)), st.lists(ops, min_size=20, max_size=200))
def test_victims_match_oracle_and_memory_is_bounded(layout, replacement, script):
    """After inserts, lookups, evictions and swaps of any two occupied slots,
    owners and regions mixed, every victim query names the oracle's slot,
    owned() recounts the slots, and the slot sets hold the occupied slots only."""
    store = SlotStore(layout, replacement)
    for op in script:
        occupied = [i for i, k in enumerate(store.keys) if k is not None]
        kind = op[0]
        if kind == "insert":
            _, tenant, item, use_sc = op
            region = SC if use_sc else dc_region(tenant)
            if store.peek((tenant, item)) is None and store.free_count(region):
                store.insert_into_empty((tenant, item), region)
        elif kind == "lookup":
            store.lookup(op[1:])
        elif kind == "evict_victim":
            _, use_sc, owner = op
            region = SC if use_sc else dc_region(owner or 1)
            expected = oracle_victim(store, region, owner)
            if expected is None:
                with pytest.raises(NoCandidateError):
                    store.evict_victim(region, owner)
            else:
                assert store.evict_victim(region, owner) == expected
                assert store.keys[expected] is None
        elif occupied and kind == "evict":
            store.evict(occupied[op[1] % len(occupied)])
        elif occupied:
            store.swap(occupied[op[1] % len(occupied)], occupied[op[2] % len(occupied)])
        assert_victims_match_oracle(store)
        assert_slot_sets_exact(store)
        for t in TENANTS:
            mine = [i for i, k in enumerate(store.keys) if k is not None and k[0] == t]
            sc = sum(store.regions[i] == SC for i in mine)
            assert store.owned(t) == (len(mine) - sc, sc)


# LRU hits outnumber everything else, and half of them hit the slot a victim
# query would name, so the next query must pass over the restamped slot
lru_ops = st.one_of(
    st.tuples(st.just("insert"), tenants, st.integers(0, 9), st.booleans()),
    *[st.tuples(st.just("hit"), tenants, st.integers(0, 9))] * 3,
    *[st.tuples(st.just("hit_victim"), st.booleans(), owners)] * 3,
    st.tuples(st.just("query"), st.booleans(), owners),
    st.tuples(st.just("evict_victim"), st.booleans(), owners),
)


@settings(max_examples=150, deadline=None)
@given(layouts, st.lists(lru_ops, min_size=50, max_size=400))
def test_lru_hits_are_rekeyed_to_exact_victims(layout, script):
    store = SlotStore(layout, LRU)
    for op in script:
        kind = op[0]
        if kind == "insert":
            _, tenant, item, use_sc = op
            region = SC if use_sc else dc_region(tenant)
            key = (tenant, item)
            if store.peek(key) is None and store.free_count(region):
                store.insert_into_empty(key, region)
        elif kind == "hit":
            _, tenant, item = op
            store.lookup((tenant, item))
        else:
            _, use_sc, owner = op
            region = SC if use_sc else dc_region(owner or 1)
            expected = oracle_victim(store, region, owner)
            if kind == "hit_victim":
                if expected is not None:
                    store.lookup(store.keys[expected])
            elif expected is None:
                with pytest.raises(NoCandidateError):
                    store.select_victim(region, owner)
            else:
                assert store.select_victim(region, owner) == expected
                if kind == "evict_victim":
                    store.evict(expected)
        assert_slot_sets_exact(store)
    assert_victims_match_oracle(store)
