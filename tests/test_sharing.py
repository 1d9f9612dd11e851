import random
from collections import deque

import pytest

from tenantcache.cache_core import (
    SC,
    NoCandidateError,
    RegionLayout,
    SlotStore,
    UnknownTenantError,
    dc_region,
)
from tenantcache.sharing import (
    INF,
    SharingStrategy,
    global_insert,
    hybrid_insert,
    maxmin_insert,
    predict_hit_rate,
    rank_donors,
    select_victim_tenant,
    selfish_eligible,
    selfish_select_victim,
    static_insert,
)


class TestSelectVictimTenant:
    def test_argmax(self):
        assert select_victim_tenant({1: 0.10, 2: -0.05}, [1, 2]) == 1

    def test_tie_breaks_to_smallest_id(self):
        assert select_victim_tenant({2: 0.0, 1: 0.0}, [2, 1]) == 1

    def test_single_candidate_is_self(self):
        assert select_victim_tenant({1: -0.4}, [1]) == 1

    def test_empty_candidates(self):
        with pytest.raises(NoCandidateError):
            select_victim_tenant({}, [])

    def test_uniform_soft_shift_leaves_choice_unchanged(self):
        gaps = {1: 0.12, 2: -0.31, 3: 0.02}
        for shift in (-0.2, 0.0, 0.15):
            shifted = {k: v + shift for k, v in gaps.items()}
            assert select_victim_tenant(shifted, [1, 2, 3]) == 1


class TestMaxMinInsert:
    def test_hit_path_no_ownership_change(self):
        store = SlotStore(RegionLayout.global_layout(2))
        maxmin_insert(store, (1, "a"), rank_donors({1: 0.0}))
        out = maxmin_insert(store, (1, "a"), rank_donors({1: 0.0}))
        assert out.kind == "hit"
        assert store.owned(1) == (0, 1)

    def test_empty_slot_insertion_without_eviction(self):
        store = SlotStore(RegionLayout.global_layout(2))
        out = maxmin_insert(store, (1, "a"), rank_donors({1: 0.0, 2: 0.0}))
        assert out.kind == "inserted"

    def test_max_gap_tenant_donates_lru_slot(self):
        store = SlotStore(RegionLayout.global_layout(4))
        for key in [(1, "a"), (1, "b"), (2, "x"), (2, "y")]:
            maxmin_insert(store, key, rank_donors({1: 0.0, 2: 0.0}))
        out = maxmin_insert(store, (2, "z"), rank_donors({1: 0.2, 2: -0.1}))
        assert out.kind == "replaced"
        assert out.victim_tenant == 1
        assert store.peek((1, "a")) is None  # t1's LRU slot went to t2
        assert store.peek((1, "b")) is not None
        assert store.owned(1) == (0, 1) and store.owned(2) == (0, 3)

    def test_single_tenant_equals_global_lru(self):
        rng = random.Random(3)
        trace = [(1, rng.randrange(40)) for _ in range(800)]
        mm = SlotStore(RegionLayout.global_layout(16))
        gl = SlotStore(RegionLayout.global_layout(16))
        gaps = {1: -0.5}
        seq_mm = [maxmin_insert(mm, k, rank_donors(gaps)).kind for k in trace]
        seq_gl = [global_insert(gl, k).kind for k in trace]
        assert seq_mm == seq_gl

    def test_departed_tenant_slots_reclaimed_first(self):
        store = SlotStore(RegionLayout.global_layout(4))
        for key in [(1, "a"), (1, "b"), (2, "x"), (2, "y")]:
            maxmin_insert(store, key, rank_donors({1: 0.0, 2: 0.0}))
        # tenant 1 departed: gap +inf beats any live gap
        out = maxmin_insert(store, (2, "z"), rank_donors({1: INF, 2: 0.9}))
        assert out.victim_tenant == 1

    def test_no_ranked_owner_raises(self):
        store = SlotStore(RegionLayout.global_layout(2))
        for key in [(1, "a"), (1, "b")]:
            maxmin_insert(store, key, rank_donors({1: 0.0}))
        with pytest.raises(NoCandidateError):
            maxmin_insert(store, (2, "z"), rank_donors({2: 0.0}))
        assert store.owned(1) == (0, 2)  # nothing was evicted


class TestPredictHitRate:
    def test_exact_line_through_two_points(self):
        assert predict_hit_rate([(1000, 0.50), (1100, 0.60)], 1000) == pytest.approx(0.50)
        assert predict_hit_rate([(1000, 0.50), (1100, 0.60)], 1200) == pytest.approx(0.70)

    def test_degenerate_history_falls_back_to_mean(self):
        assert predict_hit_rate([(100, 0.4), (100, 0.8)], 50) == pytest.approx(0.6)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            predict_hit_rate([], 10)

    def test_sums_are_added_left_to_right(self):
        # a compensated sum (builtin sum() from Python 3.12 on) gives 0.090909090909091
        history = [(0, 1.0)] + [(i, 1e-16) for i in range(1, 11)]
        assert predict_hit_rate(history, 5) == 0.09090909090909088


class TestSelfishEligible:
    def strategy(self):
        return SharingStrategy(loss_horizon=100)

    def test_flat_history_above_requirement(self):
        history = deque([(100, 0.9), (100, 0.9), (100, 0.9)])
        assert selfish_eligible(history, 0.9, soft=0.6, strategy=self.strategy())

    def test_two_point_regression_refuses(self):
        history = deque([(1000, 0.50), (1100, 0.60)])
        # predicted rate at 1100 - 100 = 1000 slots is 0.50 < 0.55
        assert not selfish_eligible(history, 0.60, soft=0.55, strategy=self.strategy())

    def test_two_point_regression_agrees_when_safe(self):
        history = deque([(1000, 0.70), (1100, 0.72)])
        assert selfish_eligible(history, 0.72, soft=0.55, strategy=self.strategy())

    def test_no_history_uses_current_rate(self):
        history = deque()
        assert not selfish_eligible(history, 0.59, soft=0.60, strategy=self.strategy())
        assert selfish_eligible(history, 0.61, soft=0.60, strategy=self.strategy())

    def test_no_history_no_rate_refuses(self):
        assert not selfish_eligible(deque(), 0.0, soft=0.5, strategy=self.strategy())


class TestSelfishSelectVictim:
    def test_positive_gap_eligible_tenant_chosen(self):
        victim = selfish_select_victim(
            {1: 0.1, 2: -0.2}, owners=[1, 2], requester=2, eligible={1: True}
        )
        assert victim == 1

    def test_self_eviction_when_everyone_refuses(self):
        victim = selfish_select_victim(
            {1: -0.1, 2: -0.3}, owners=[1, 2], requester=1, eligible={}
        )
        assert victim == 1

    def test_fallback_to_fair_when_pool_owns_nothing(self):
        victim = selfish_select_victim(
            {1: -0.3, 2: -0.1}, owners=[1, 2], requester=3, eligible={}
        )
        assert victim == 2  # plain argmax gap

    def test_ineligible_positive_gap_tenant_spared(self):
        victim = selfish_select_victim(
            {1: 0.3, 2: 0.1}, owners=[1, 2], requester=2, eligible={1: False, 2: True}
        )
        assert victim == 2

    def test_agrees_with_fair_when_all_eligible_and_positive(self):
        gaps = {1: 0.05, 2: 0.25, 3: 0.10}
        owners = [1, 2, 3]
        fair = select_victim_tenant(gaps, owners)
        selfish = selfish_select_victim(gaps, owners, requester=1, eligible={})
        assert fair == selfish == 2


def hybrid_store():
    return SlotStore(RegionLayout(dc_sizes={1: 1, 2: 1}, sc_size=4))


def warm_hybrid(store, gaps):
    # t1: a,b,c ; t2: x,y,z -> DC1=c, DC2=z, SC=[a,b,x,y]
    for key in [(1, "a"), (1, "b"), (1, "c")]:
        hybrid_insert(store, key, rank_donors(gaps))
    for key in [(2, "x"), (2, "y"), (2, "z")]:
        hybrid_insert(store, key, rank_donors(gaps))


class TestHybridInsert:
    def test_dc_not_full_lands_in_dc(self):
        store = hybrid_store()
        out = hybrid_insert(store, (1, "a"), rank_donors({1: 0.0, 2: 0.0}))
        assert out.kind == "inserted" and out.region == dc_region(1)
        assert store.owned(1) == (1, 0)
        assert store.free_count(SC) == 4

    def test_miss_with_dc_full_fills_sc_then_promotes(self):
        store = hybrid_store()
        gaps = {1: 0.0, 2: 0.0}
        hybrid_insert(store, (1, "a"), rank_donors(gaps))
        out = hybrid_insert(store, (1, "b"), rank_donors(gaps))
        assert out.kind == "inserted" and out.region == SC
        # the new item was promoted into DC1; the displaced item sits in SC
        assert store.regions[store.peek((1, "b"))] == dc_region(1)
        assert store.regions[store.peek((1, "a"))] == SC

    def test_sc_hit_swaps_into_dc(self):
        store = hybrid_store()
        gaps = {1: 0.0, 2: 0.0}
        warm_hybrid(store, gaps)
        out = hybrid_insert(store, (1, "b"), rank_donors(gaps))  # b resides in SC
        assert out.kind == "hit"
        assert store.regions[store.peek((1, "b"))] == dc_region(1)
        assert store.regions[store.peek((1, "c"))] == SC
        assert store.owned(1) == (1, 2)  # slot totals unchanged by the swap

    def test_sc_full_fair_victim_loses_lru_slot(self):
        store = hybrid_store()
        gaps = {1: 0.2, 2: -0.1}
        warm_hybrid(store, gaps)
        out = hybrid_insert(store, (2, "w"), rank_donors(gaps))
        assert out.kind == "replaced" and out.victim_tenant == 1
        assert store.peek((1, "a")) is None  # t1's oldest SC item evicted
        assert store.regions[store.peek((2, "w"))] == dc_region(2)
        assert store.regions[store.peek((2, "z"))] == SC
        assert store.owned(1) == (1, 1) and store.owned(2) == (1, 3)

    def test_dc_hit_returns_immediately(self):
        store = hybrid_store()
        gaps = {1: 0.0, 2: 0.0}
        hybrid_insert(store, (1, "a"), rank_donors(gaps))
        out = hybrid_insert(store, (1, "a"), rank_donors(gaps))
        assert out.kind == "hit" and out.region == dc_region(1)

    def test_unknown_tenant(self):
        with pytest.raises(UnknownTenantError):
            hybrid_insert(hybrid_store(), (7, "a"), rank_donors({}))

    def test_hot_item_always_ends_in_dc(self):
        rng = random.Random(5)
        store = SlotStore(RegionLayout(dc_sizes={1: 2, 2: 2}, sc_size=6))
        gaps = {1: 0.0, 2: 0.0}
        for _ in range(500):
            tenant = rng.choice([1, 2])
            key = (tenant, rng.randrange(12))
            hybrid_insert(store, key, rank_donors(gaps))
            assert store.regions[store.peek(key)] == dc_region(tenant)

    def test_dc_isolation_holds_under_pressure(self):
        rng = random.Random(6)
        store = SlotStore(RegionLayout(dc_sizes={1: 2, 2: 3}, sc_size=5))
        gaps = {1: -0.1, 2: 0.1}
        for _ in range(500):
            tenant = rng.choice([1, 2])
            hybrid_insert(store, (tenant, rng.randrange(15)), rank_donors(gaps))
            for idx in range(store.capacity):
                region = store.regions[idx]
                if region != SC and store.keys[idx] is not None:
                    assert store.keys[idx][0] == region[1]

    def test_zero_dc_degenerates_to_maxmin(self):
        rng = random.Random(7)
        trace = [(rng.choice([1, 2]), rng.randrange(25)) for _ in range(600)]
        gaps = {1: 0.1, 2: -0.2}
        hyb = SlotStore(RegionLayout(dc_sizes={1: 0, 2: 0}, sc_size=12))
        mm = SlotStore(RegionLayout.global_layout(12))
        seq_h = [hybrid_insert(hyb, k, rank_donors(gaps)).kind for k in trace]
        seq_m = [maxmin_insert(mm, k, rank_donors(gaps)).kind for k in trace]
        assert seq_h == seq_m

    def test_zero_sc_degenerates_to_static(self):
        rng = random.Random(8)
        trace = [(rng.choice([1, 2]), rng.randrange(25)) for _ in range(600)]
        gaps = {1: 0.1, 2: -0.2}
        hyb = SlotStore(RegionLayout(dc_sizes={1: 4, 2: 4}, sc_size=0))
        st = SlotStore(RegionLayout(dc_sizes={1: 4, 2: 4}, sc_size=0))
        seq_h = [hybrid_insert(hyb, k, rank_donors(gaps)).kind for k in trace]
        seq_s = [static_insert(st, k).kind for k in trace]
        assert seq_h == seq_s
