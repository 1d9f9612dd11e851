import pytest

from tenantcache.cache_core import (
    FCFS,
    SC,
    CacheError,
    NoCandidateError,
    RegionFullError,
    RegionLayout,
    SlotStore,
    UnknownTenantError,
    dc_region,
)
from tenantcache.sharing import global_insert, hybrid_insert, static_insert


def global_store(capacity):
    return SlotStore(RegionLayout.global_layout(capacity))


def check_ownership(store):
    for idx in range(store.capacity):
        key = store.keys[idx]
        if key is not None:
            assert store.key_index[key] == idx
    assert len(store.key_index) <= store.capacity


class TestRegionLayout:
    def test_capacity_sums(self):
        layout = RegionLayout(dc_sizes={1: 3, 2: 2}, sc_size=5)
        assert layout.capacity == 10

    def test_global_layout(self):
        layout = RegionLayout.global_layout(8)
        assert layout.sc_size == 8 and not layout.dc_sizes

    def test_static_equal_split_with_remainder(self):
        layout = RegionLayout.static_layout(10, [3, 1, 2])
        assert layout.dc_sizes == {1: 4, 2: 3, 3: 3}
        assert layout.sc_size == 0

    def test_static_floor_split(self):
        layout = RegionLayout.static_layout(9, [1, 2, 3])
        assert layout.dc_sizes == {1: 3, 2: 3, 3: 3}


class TestLookupInsert:
    def test_empty_store_misses(self):
        assert global_store(4).lookup((1, "x")) is None

    def test_read_your_write(self):
        s = global_store(4)
        s.insert_into_empty((1, "x"), SC)
        region, idx = s.lookup((1, "x"))
        assert region == SC

    def test_lookup_refreshes_recency(self):
        s = global_store(2)
        for key in [(1, "a"), (1, "b")]:
            global_insert(s, key)
        s.lookup((1, "a"))
        global_insert(s, (1, "c"))  # b is now LRU
        assert s.peek((1, "b")) is None
        assert s.peek((1, "a")) is not None

    def test_insert_into_single_slot(self):
        s = global_store(1)
        assert s.insert_into_empty((1, "a"), SC) == 0

    def test_full_region_raises(self):
        s = global_store(1)
        s.insert_into_empty((1, "a"), SC)
        with pytest.raises(RegionFullError):
            s.insert_into_empty((1, "b"), SC)

    def test_falls_back_to_other_region_only_when_asked(self):
        layout = RegionLayout(dc_sizes={1: 1}, sc_size=1)
        s = SlotStore(layout)
        s.insert_into_empty((1, "a"), dc_region(1))
        with pytest.raises(RegionFullError):
            s.insert_into_empty((1, "b"), dc_region(1))
        s.insert_into_empty((1, "b"), SC)  # explicit SC constraint succeeds
        assert s.occupied_count() == 2

    def test_duplicate_key_rejected(self):
        s = global_store(2)
        s.insert_into_empty((1, "a"), SC)
        with pytest.raises(CacheError):
            s.insert_into_empty((1, "a"), SC)


class TestEvictVictim:
    def test_lru_picks_min_seq(self):
        s = global_store(3)
        for key in [(1, "a"), (1, "b"), (1, "c")]:
            s.insert_into_empty(key, SC)
        s.lookup((1, "a"))  # b has the oldest recency now
        idx = s.evict_victim(SC, owner=1)
        assert s.keys[idx] is None
        assert s.peek((1, "b")) is None

    def test_single_candidate(self):
        s = global_store(3)
        s.insert_into_empty((2, "only"), SC)
        s.evict_victim(SC, owner=2)
        assert s.peek((2, "only")) is None

    def test_owner_filter(self):
        s = global_store(4)
        s.insert_into_empty((1, "a"), SC)
        s.insert_into_empty((2, "b"), SC)
        s.insert_into_empty((1, "c"), SC)
        s.evict_victim(SC, owner=2)
        assert s.peek((2, "b")) is None
        assert s.peek((1, "a")) is not None

    def test_fcfs_ignores_later_lookups(self):
        s = SlotStore(RegionLayout.global_layout(2), FCFS)
        s.insert_into_empty((1, "a"), SC)
        s.insert_into_empty((1, "b"), SC)
        s.lookup((1, "a"))
        idx = s.evict_victim(SC)
        assert s.peek((1, "a")) is None

    def test_empty_candidate_set(self):
        with pytest.raises(NoCandidateError):
            global_store(2).evict_victim(SC)


class TestSwap:
    def test_swap_exchanges_contents_and_metadata(self):
        layout = RegionLayout(dc_sizes={1: 1}, sc_size=1)
        s = SlotStore(layout)
        i = s.insert_into_empty((1, "hot"), dc_region(1))
        j = s.insert_into_empty((1, "cold"), SC)
        seq_i, seq_j = s.stamps[i], s.stamps[j]
        s.swap(i, j)
        assert s.keys[i] == (1, "cold") and s.keys[j] == (1, "hot")
        assert s.stamps[i] == seq_j and s.stamps[j] == seq_i
        assert s.key_index[(1, "hot")] == j
        check_ownership(s)

    def test_swap_updates_region_counts(self):
        layout = RegionLayout(dc_sizes={1: 1, 2: 1}, sc_size=2)
        s = SlotStore(layout)
        i = s.insert_into_empty((1, "x"), dc_region(1))
        j = s.insert_into_empty((2, "y"), SC)
        assert s.owned(1) == (1, 0) and s.owned(2) == (0, 1)
        s.swap(i, j)
        assert s.owned(1) == (0, 1) and s.owned(2) == (1, 0)

    def test_swap_requires_occupied(self):
        s = global_store(2)
        s.insert_into_empty((1, "a"), SC)
        with pytest.raises(CacheError):
            s.swap(0, 1)


class TestGlobalInsert:
    def test_textbook_lru(self):
        s = global_store(2)
        kinds = [global_insert(s, (1, k)).kind for k in ["a", "b", "a", "c"]]
        assert kinds == ["inserted", "inserted", "hit", "replaced"]
        assert s.peek((1, "b")) is None

    def test_resident_hit_no_eviction(self):
        s = global_store(2)
        global_insert(s, (1, "a"))
        before = s.occupied_count()
        assert global_insert(s, (1, "a")).kind == "hit"
        assert s.occupied_count() == before

    def test_tenants_compete_freely(self):
        s = global_store(2)
        global_insert(s, (2, "a"))
        global_insert(s, (2, "b"))
        out = global_insert(s, (1, "c"))
        assert out.kind == "replaced" and out.victim_tenant == 2
        check_ownership(s)


class TestStaticInsert:
    def test_isolation(self):
        layout = RegionLayout.static_layout(4, [1, 2])
        s = SlotStore(layout)
        static_insert(s, (1, "a"))
        static_insert(s, (1, "b"))
        for item in range(10):
            static_insert(s, (2, item))
        assert s.peek((1, "a")) is not None
        assert s.peek((1, "b")) is not None

    def test_matches_single_tenant_lru(self):
        import random

        rng = random.Random(0)
        trace = [rng.randrange(30) for _ in range(500)]
        layout = RegionLayout.static_layout(16, [1, 2])
        s = SlotStore(layout)
        solo = SlotStore(RegionLayout.global_layout(8))
        seq_static, seq_solo = [], []
        for item in trace:
            seq_static.append(static_insert(s, (1, item)).kind == "hit")
            seq_solo.append(global_insert(solo, (1, item)).kind == "hit")
        assert seq_static == seq_solo

    def test_unknown_tenant(self):
        s = SlotStore(RegionLayout.static_layout(4, [1]))
        with pytest.raises(UnknownTenantError):
            static_insert(s, (9, "a"))


class TestInvariants:
    def test_slot_conservation_and_ownership(self):
        import random

        rng = random.Random(1)
        s = global_store(8)
        prev = 0
        for _ in range(300):
            global_insert(s, (rng.randrange(3), rng.randrange(30)))
            now = s.occupied_count()
            assert abs(now - prev) <= 1
            assert now <= s.capacity
            prev = now
        check_ownership(s)

    def test_counts_match_recount(self):
        import random

        rng = random.Random(2)
        layout = RegionLayout(dc_sizes={1: 2, 2: 2}, sc_size=4)
        s = SlotStore(layout)
        for _ in range(200):
            tenant = rng.choice([1, 2])
            key = (tenant, rng.randrange(20))
            if s.peek(key) is None:
                region = dc_region(tenant)
                try:
                    s.insert_into_empty(key, region)
                except RegionFullError:
                    try:
                        s.insert_into_empty(key, SC)
                    except RegionFullError:
                        s.evict_victim(SC)
                        s.insert_into_empty(key, SC)
            else:
                s.lookup(key)
            for t in (1, 2):
                dc_n = sum(
                    1
                    for i in range(s.capacity)
                    if s.keys[i] is not None and s.keys[i][0] == t
                    and s.regions[i] == dc_region(t)
                )
                sc_n = sum(
                    1
                    for i in range(s.capacity)
                    if s.keys[i] is not None and s.keys[i][0] == t and s.regions[i] == SC
                )
                assert s.owned(t) == (dc_n, sc_n)


class TestDump:
    def test_format(self):
        layout = RegionLayout(dc_sizes={1: 1}, sc_size=1)
        s = SlotStore(layout)
        s.insert_into_empty((1, 42), dc_region(1))
        lines = s.dump()
        assert lines[0] == f"0,DC:1,1,1:42,{s.stamps[0]}"
        assert lines[1] == "1,SC,,,0"


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


def test_fcfs_lookup_leaves_the_stamp():
    store = SlotStore(RegionLayout.global_layout(2), FCFS)
    idx = store.insert_into_empty((1, "a"), SC)
    store.insert_into_empty((1, "b"), SC)
    stamp = store.stamps[idx]
    assert store.lookup((1, "a")) == (SC, idx)
    assert store.stamps[idx] == stamp
    assert store.select_victim(SC) == idx


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

