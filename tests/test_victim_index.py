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
    _VictimIndex,
    dc_region,
)
from tenantcache.sharing import global_insert, hybrid_insert, rank_donors

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
    """Once the index is built, every query with a candidate names the oracle's victim."""
    if store._index is None:
        return
    for region in [SC] + [dc_region(t) for t in TENANTS]:
        for owner in (None,) + TENANTS:
            expected = oracle_victim(store, region, owner)
            if expected is not None:
                assert store.select_victim(region, owner) == expected


def heap_entries(store):
    """Entries held by the victim index, 0 while it is unbuilt."""
    index = store._index
    if index is None:
        return 0
    return sum(len(h) for by_owner in index.heaps.values() for h in by_owner.values())


layouts = st.builds(
    lambda dcs, sc: RegionLayout(dc_sizes=dict(zip(TENANTS, dcs)), sc_size=sc),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.integers(1, 4),
)
tenants = st.sampled_from(TENANTS)
owners = st.sampled_from((None,) + TENANTS)
replacements = st.sampled_from((LRU, FCFS))
ops = st.one_of(
    st.tuples(st.just("insert"), tenants, st.integers(0, 9), st.booleans()),
    st.tuples(st.just("lookup"), tenants, st.integers(0, 9)),
    st.tuples(st.just("evict_victim"), st.booleans(), owners),
    st.tuples(st.just("promote"), tenants, st.integers(0, 9)),
    st.tuples(st.just("promote_in_one_step"), tenants, st.integers(0, 9), st.booleans()),
    st.tuples(st.just("replace"), tenants, st.integers(0, 9), st.booleans(), owners),
)


@settings(max_examples=150, deadline=None)
@given(layouts, replacements, st.lists(ops, min_size=50, max_size=400))
def test_victims_match_oracle_and_memory_is_bounded(layout, replacement, script):
    store = SlotStore(layout, replacement)
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
            _, use_sc, owner = op
            region = SC if use_sc else dc_region(owner or 1)
            expected = oracle_victim(store, region, owner)
            if expected is None:
                with pytest.raises(NoCandidateError):
                    store.evict_victim(region, owner)
            else:
                assert store.evict_victim(region, owner) == expected
                assert store.keys[expected] is None
        elif kind == "replace":
            # a new key of tenant over a victim of its DC, or of any owner in SC
            _, tenant, item, use_sc, owner = op
            region = SC if use_sc else dc_region(tenant)
            owner = owner if use_sc else tenant
            key = (tenant, item)
            expected = oracle_victim(store, region, owner)
            if store.peek(key) is None and expected is not None:
                old = store.keys[expected]
                owned = {t: list(store.owned(t)) for t in TENANTS}
                owned[old[0]][use_sc] -= 1
                owned[tenant][use_sc] += 1
                assert store.select_victim(region, owner) == expected
                store.replace(expected, key)
                assert store.peek(key) == expected and store.peek(old) is None
                assert {t: list(store.owned(t)) for t in TENANTS} == owned
        elif kind == "promote_in_one_step":
            # one of the tenant's SC slots, or a new key into the next free SC slot
            _, tenant, item, hit = op
            dcr = dc_region(tenant)
            if hit:
                in_sc = [i for i, k in enumerate(store.keys)
                         if k is not None and k[0] == tenant and store.regions[i] == SC]
                idx = in_sc[item % len(in_sc)] if in_sc else None
                key = store.keys[idx] if in_sc else None
            else:
                idx = None
                key = (tenant, item) if store.peek((tenant, item)) is None else None
            if key is not None and (hit or store.free_count(SC)):
                expected = oracle_victim(store, dcr, tenant)
                if expected is None:
                    before = store.dump()
                    with pytest.raises(NoCandidateError):
                        store.promote(key, dcr, idx)
                    assert store.dump() == before
                else:
                    moved = store.keys[expected]
                    dc_slots, sc_slots = store.owned(tenant)
                    assert store.promote(key, dcr, idx) == expected
                    assert store.peek(key) == expected
                    assert store.regions[store.peek(moved)] == SC
                    assert store.owned(tenant) == (dc_slots, sc_slots + (idx is None))
        else:  # the hybrid promotion: an SC slot swaps with its owner's DC victim
            _, tenant, item = op
            idx = store.peek((tenant, item))
            dcr = dc_region(tenant)
            expected = oracle_victim(store, dcr, tenant)
            if expected is None:
                with pytest.raises(NoCandidateError):
                    store.select_victim(dcr, tenant)
            else:
                victim = store.select_victim(dcr, tenant)
                assert victim == expected
                # a query consumes nothing: asking again gives the same slot
                assert store.select_victim(dcr, tenant) == victim
                if idx is not None and store.regions[idx] == SC:
                    store.swap(idx, victim)
        assert_victims_match_oracle(store)
        assert heap_entries(store) <= bound


# LRU hits outnumber everything else, and half of them hit the slot a victim
# query would name, so the entry on its heap's top turns stale
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
    bound = 2 * store.capacity + 64
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
        assert heap_entries(store) <= bound
    assert_victims_match_oracle(store)


def test_lru_lookup_pushes_once_the_index_is_built():
    store = SlotStore(RegionLayout.global_layout(4))
    slots = [store.insert_into_empty((1, item), SC) for item in range(4)]
    assert store.lookup((1, 0)) == (SC, slots[0])
    assert heap_entries(store) == 0  # no index yet, so nothing to push
    assert store.select_victim(SC) == slots[1]  # build the index
    entries = heap_entries(store)
    for n in range(1, 4):
        stamp = store.stamps[slots[1]]
        assert store.lookup((1, 1)) == (SC, slots[1])
        assert store.stamps[slots[1]] > stamp
        assert heap_entries(store) == entries + n  # one entry per hit
    # the hit slot's old entry is dropped when it surfaces
    assert store.select_victim(SC) == slots[2]
    assert heap_entries(store) == entries + 2


def test_filling_builds_no_index():
    store = SlotStore(RegionLayout.global_layout(4))
    for item in range(4):
        global_insert(store, (1, item))
        global_insert(store, (1, item))
    assert store.occupied_count() == 4
    assert store._index is None


def test_fcfs_lookup_leaves_the_stamp():
    store = SlotStore(RegionLayout.global_layout(2), FCFS)
    idx = store.insert_into_empty((1, "a"), SC)
    store.insert_into_empty((1, "b"), SC)
    store.select_victim(SC)  # build the index, so a restamp would also be pushed
    stamp = store.stamps[idx]
    assert store.lookup((1, "a")) == (SC, idx)
    assert store.stamps[idx] == stamp
    assert store.select_victim(SC) == idx


@pytest.mark.parametrize("replacement", [LRU, FCFS])
def test_hybrid_promotion_indexes_one_entry(replacement):
    # the DC victim's entry is replaced in place; only the SC slot is pushed,
    # and under LRU the SC hit's restamp too
    store = SlotStore(RegionLayout(dc_sizes={1: 2}, sc_size=2), replacement)
    dcr = dc_region(1)
    hybrid_insert(store, (1, 0))
    hybrid_insert(store, (1, 1))
    store.select_victim(dcr, 1)  # build the index
    entries = heap_entries(store)
    assert hybrid_insert(store, (1, 2)).kind == "inserted"  # an SC miss
    assert heap_entries(store) == entries + 1
    assert store.regions[store.peek((1, 0))] == SC
    assert len(store._index.heaps[dcr][1]) == 2
    assert hybrid_insert(store, (1, 0)).kind == "hit"  # an SC hit
    assert store.regions[store.peek((1, 0))] == dcr
    assert len(store._index.heaps[dcr][1]) == 2
    if replacement == FCFS:
        assert heap_entries(store) == entries + 2
    assert_victims_match_oracle(store)
    assert heap_entries(store) <= 2 * store.capacity + 64


hybrid_layouts = st.builds(
    lambda dcs, sc: RegionLayout(dc_sizes=dict(zip(TENANTS, dcs)), sc_size=sc),
    st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any),
    st.integers(1, 4),
)
hybrid_ops = st.one_of(
    *[st.tuples(st.just("access"), tenants, st.integers(0, 7))] * 4,
    st.tuples(st.just("query"), st.booleans(), owners),
)


@settings(max_examples=150, deadline=None)
@given(
    hybrid_layouts,
    replacements,
    st.none() | st.fixed_dictionaries({t: st.floats(-1, 1) for t in TENANTS}),
    st.lists(hybrid_ops, min_size=20, max_size=300),
)
def test_hybrid_dc_heaps_hold_one_entry_per_slot(layout, replacement, gaps, script):
    # exactly one under FCFS; an LRU hit on a DC slot pushes it again
    store = SlotStore(layout, replacement)
    bound = 2 * store.capacity + 64
    ranking = None if gaps is None else rank_donors(gaps)
    dc_slots = {
        t: [i for i in range(store.capacity) if store.regions[i] == dc_region(t)]
        for t in TENANTS
    }
    for op in script:
        if op[0] == "access":
            hybrid_insert(store, op[1:], ranking)
        else:
            _, use_sc, owner = op
            region = SC if use_sc else dc_region(owner or 1)
            expected = oracle_victim(store, region, owner)
            if expected is None:
                with pytest.raises(NoCandidateError):
                    store.select_victim(region, owner)
            else:
                assert store.select_victim(region, owner) == expected
        if store._index is not None:
            for t, slots in dc_slots.items():
                occupied = sum(store.keys[i] is not None for i in slots)
                by_owner = store._index.heaps.get(dc_region(t), {})
                assert set(by_owner) <= {t}
                if replacement == FCFS:
                    assert len(by_owner.get(t, ())) == occupied
        assert heap_entries(store) <= bound
    assert_victims_match_oracle(store)


# -- a full region's replacement in one step, against the two steps it fuses --


def unfused_replace(store, idx, key):
    """replace as evict + insert_into_empty: the freed slot is the next one handed out."""
    region = store.regions[idx]
    store.evict(idx)
    assert store.insert_into_empty(key, region) == idx


def unfused_promote_over(store, key, dcr, idx):
    """promote(key, dcr, idx, evict=True) as evict + promote into the freed SC slot."""
    store.evict(idx)
    return store.promote(key, dcr)


def top_entry(store, idx):
    """The entry idx's content is indexed under, as a victim query has just left it on top."""
    return store.stamps[idx] << store._index.shift | idx


def assert_guards_hold(store, tenant, pick):
    """Each guard of replace and promote(evict=True) raises and leaves the store as it was."""
    before = store.dump()
    new = (tenant, 99)
    occupied = [i for i, k in enumerate(store.keys) if k is not None]
    empty = [i for i, k in enumerate(store.keys) if k is None]
    calls = []
    if empty:
        idx = empty[pick % len(empty)]
        calls.append((store.replace, (idx, new), "empty"))
        calls.append((store.promote, (new, dc_region(tenant), idx, True), "not an occupied SC"))
    if occupied:
        idx = occupied[pick % len(occupied)]
        present = store.keys[occupied[(pick + 1) % len(occupied)]]
        calls.append((store.replace, (idx, present), "already present"))
        if store.regions[idx] == SC:
            calls.append((store.promote, (present, dc_region(tenant), idx, True), "present"))
        else:
            calls.append((store.promote, (new, dc_region(tenant), idx, True), "not an occupied SC"))
        region, owner = store.regions[idx], store.keys[idx][0]
        if store._index is None or store.select_victim(region, owner) != idx:
            calls.append((store.replace, (idx, new), "not the victim"))
    for step, args, message in calls:
        with pytest.raises(CacheError, match=message):
            step(*args)
        assert store.dump() == before


store_layouts = st.one_of(
    st.lists(st.integers(1, 3), min_size=3, max_size=3).map(  # static
        lambda dcs: RegionLayout(dc_sizes=dict(zip(TENANTS, dcs)))
    ),
    st.integers(1, 6).map(RegionLayout.global_layout),  # SC only
    hybrid_layouts,
    hybrid_layouts,  # drawn twice: hybrid has both kinds of full-region step
)
fused_ops = st.one_of(
    st.tuples(st.just("insert"), tenants, st.integers(0, 9), st.booleans()),
    st.tuples(st.just("lookup"), tenants, st.integers(0, 9)),
    st.tuples(st.just("promote_hit"), tenants, st.integers(0, 9)),
    *[st.tuples(st.just("replace"), tenants, st.integers(0, 9), st.booleans(), owners)] * 3,
    *[st.tuples(st.just("promote_over"), tenants, st.integers(0, 9), owners)] * 3,
    st.tuples(st.just("guards"), tenants, st.integers(0, 11)),
)


@settings(max_examples=150, deadline=None)
@given(store_layouts, replacements, st.lists(fused_ops, min_size=30, max_size=300))
def test_one_step_replacement_matches_evict_then_insert(layout, replacement, script):
    fused, unfused = SlotStore(layout, replacement), SlotStore(layout, replacement)
    bound = 2 * fused.capacity + 64
    for op in script:
        kind, tenant, item = op[:3]
        key = (tenant, item)
        new = fused.peek(key) is None
        dcr = dc_region(tenant)
        if kind == "insert":
            region = SC if op[3] else dcr
            if new and fused.free_count(region):
                for store in (fused, unfused):
                    store.insert_into_empty(key, region)
        elif kind == "lookup":
            for store in (fused, unfused):
                store.lookup(key)
        elif kind == "promote_hit":
            idx = fused.peek(key)
            if (idx is not None and fused.regions[idx] == SC
                    and oracle_victim(fused, dcr, tenant) is not None):
                assert fused.promote(key, dcr, idx) == unfused.promote(key, dcr, idx)
        elif kind == "replace":
            # a new key of tenant over a victim of its DC, or of any owner in SC
            _, _, _, use_sc, owner = op
            region = SC if use_sc else dcr
            owner = owner if use_sc else tenant
            expected = oracle_victim(fused, region, owner)
            if new and expected is not None:
                assert [s.select_victim(region, owner) for s in (fused, unfused)] == [expected] * 2
                entries = heap_entries(fused)
                old_owner, old_entry = fused.keys[expected][0], top_entry(fused, expected)
                fused.replace(expected, key)
                unfused_replace(unfused, expected, key)
                assert heap_entries(fused) == entries
                assert old_entry not in fused._index.heaps[region][old_owner]
        elif kind == "promote_over":
            owner = op[3]
            expected = oracle_victim(fused, SC, owner)
            if new and expected is not None and oracle_victim(fused, dcr, tenant) is not None:
                assert [s.select_victim(SC, owner) for s in (fused, unfused)] == [expected] * 2
                entries = heap_entries(fused)
                old_owner, old_entry = fused.keys[expected][0], top_entry(fused, expected)
                victim = fused.promote(key, dcr, expected, evict=True)
                assert victim == unfused_promote_over(unfused, key, dcr, expected)
                assert heap_entries(fused) == entries
                assert old_entry not in fused._index.heaps[SC][old_owner]
        else:
            assert_guards_hold(fused, tenant, item)
        assert fused.dump() == unfused.dump()
        assert [fused.owned(t) for t in TENANTS] == [unfused.owned(t) for t in TENANTS]
        assert_victims_match_oracle(fused)
        assert heap_entries(fused) <= bound


def test_promotion_over_a_slot_a_query_did_not_name_changes_nothing():
    store = SlotStore(RegionLayout(dc_sizes={1: 1}, sc_size=2))
    for item in range(3):
        hybrid_insert(store, (1, item))
    victim = store.select_victim(SC, 1)
    other = next(i for i in range(store.capacity) if store.regions[i] == SC and i != victim)
    before = store.dump()
    with pytest.raises(CacheError, match="not the victim"):
        store.promote((1, 9), dc_region(1), other, evict=True)
    assert store.dump() == before
    assert store.select_victim(SC, 1) == victim


@pytest.mark.parametrize("replacement", [LRU, FCFS])
@pytest.mark.parametrize(
    "layout, keys, key",
    [
        (RegionLayout(dc_sizes={1: 2}), [(1, 0), (1, 1)], (1, 2)),  # static
        (RegionLayout.global_layout(2), [(1, 0), (1, 1)], (1, 2)),  # SC, donor is requester
        (RegionLayout.global_layout(2), [(1, 0), (2, 0)], (2, 1)),  # SC, another donor
        (RegionLayout(dc_sizes={1: 1}, sc_size=1), [(1, 0), (1, 1)], (1, 2)),  # hybrid
        (RegionLayout(dc_sizes={1: 0, 2: 1}, sc_size=1), [(2, 0), (1, 0)], (2, 1)),  # another
    ],
)
def test_full_region_replacement_indexes_no_entry(replacement, layout, keys, key):
    # the victim's entry is re-keyed in place, or moved to its new owner's heap
    store = SlotStore(layout, replacement)
    for k in keys:
        hybrid_insert(store, k)
    region = SC if layout.sc_size else dc_region(key[0])
    victim = store.select_victim(region)
    old_key, old_entry = store.keys[victim], top_entry(store, victim)
    entries = heap_entries(store)
    assert hybrid_insert(store, key).kind == "replaced"
    assert heap_entries(store) == entries
    assert old_entry not in store._index.heaps[region][old_key[0]]
    assert store.peek(old_key) is None


def test_fcfs_promotion_keeps_the_insertion_stamp():
    store = SlotStore(RegionLayout(dc_sizes={1: 1}, sc_size=1), FCFS)
    hybrid_insert(store, (1, "a"))
    hybrid_insert(store, (1, "b"))  # b is promoted, a moves out to SC
    idx = store.peek((1, "a"))
    assert store.regions[idx] == SC
    stamp = store.stamps[idx]
    assert hybrid_insert(store, (1, "a")).kind == "hit"
    idx = store.peek((1, "a"))
    assert store.regions[idx] == dc_region(1)
    assert store.stamps[idx] == stamp


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
        assert heap_entries(store) <= 2 * store.capacity + 64


@pytest.mark.parametrize("replacement", [LRU, FCFS])
def test_compaction_under_hybrid_promotions(monkeypatch, replacement):
    # SC hits are promoted while SC never fills, so nothing queries the SC heaps:
    # only compaction drops the stale entries each promotion leaves there
    rebuilds = []
    rebuild = _VictimIndex.rebuild
    monkeypatch.setattr(_VictimIndex, "rebuild", lambda self: rebuilds.append(1) or rebuild(self))
    store = SlotStore(RegionLayout(dc_sizes={1: 2, 2: 2}, sc_size=6), replacement)
    bound = 2 * store.capacity + 64
    for n in range(2_000):
        hybrid_insert(store, (1 + n % 2, n // 2 % 4))
        assert store.free_count(SC)
        assert heap_entries(store) <= bound
    assert len(rebuilds) > 1
    assert_victims_match_oracle(store)


@pytest.mark.parametrize("query", ["select_victim", "evict_victim"])
def test_unknown_policy_rejected(query):
    with pytest.raises(CacheError, match="mru"):
        SlotStore(RegionLayout.global_layout(2), "mru")
    store = SlotStore(RegionLayout.global_layout(2))
    store.insert_into_empty((1, "a"), SC)
    # The policy is the store's: a query cannot be handed one of its own.
    with pytest.raises(TypeError):
        getattr(store, query)(SC, None, "mru")
    assert store.peek((1, "a")) is not None
