"""FCFS runs on insertion stamps (fifo_insert over FifoHeaps), held step by
step to hybrid_insert on an FCFS SlotStore, and their memory bound."""
from hypothesis import given, settings
from hypothesis import strategies as st

from tenantcache.cache_core import FCFS, SC, RegionLayout, SlotStore
from tenantcache.sharing import DonorRanking, FifoHeaps, fifo_insert, hybrid_insert, rank_donors


def heap_entries(heaps: FifoHeaps) -> int:
    """Entries held by the heaps, a shared SC heap counted once."""
    distinct = {id(h): h for h in (*heaps.dc_heaps.values(), *heaps.sc_heaps.values())}
    return sum(len(h) for h in distinct.values())


def engine_state(heaps: FifoHeaps) -> dict:
    """Resident key -> (stamp, in SC)."""
    return {key: (stamp, stamp in heaps.sc_keys) for key, stamp in heaps.stamps.items()}


def store_state(store: SlotStore) -> dict:
    """Resident key -> (stamp, in SC), as engine_state reads the engine."""
    return {
        key: (store.stamps[i], store.regions[i] == SC)
        for i, key in enumerate(store.keys)
        if key is not None
    }


def test_an_sc_hit_keeps_both_stamps():
    """The hit key and the tenant's oldest DC key trade places, and each keeps
    its insertion stamp, so FIFO order per tenant does not hold: after a, b
    and a hit on a, the next donation evicts b, although a is older."""
    layout = RegionLayout(dc_sizes={1: 1}, sc_size=1)
    heaps, store = FifoHeaps(layout, [1]), SlotStore(layout, FCFS)
    ranking = DonorRanking((1,))
    for item in ("a", "b", "a", "c"):
        kind = fifo_insert(heaps, (1, item), ranking).kind
        assert kind == hybrid_insert(store, (1, item), ranking).kind
        assert engine_state(heaps) == store_state(store)
        if item == "b":
            a_stamp = heaps.stamps[(1, "a")]
    assert kind == "replaced"
    assert heaps.stamps[(1, "a")] == a_stamp
    assert (1, "b") not in heaps.stamps
    assert engine_state(heaps) == {(1, "a"): (1, True), (1, "c"): (3, False)}


@st.composite
def cases(draw):
    """A policy's layout, whether its donors are ranked, and accesses, each
    with the gaps to rank donors by."""
    policy = draw(st.sampled_from(["global", "static", "maxmin", "hybrid"]))
    tenants = list(range(1, draw(st.integers(1, 6)) + 1))
    if policy in ("global", "maxmin"):
        layout = RegionLayout({t: 0 for t in tenants}, draw(st.integers(1, 8)))
    elif policy == "static":
        layout = RegionLayout({t: draw(st.integers(1, 4)) for t in tenants}, 0)
    else:
        layout = RegionLayout({t: draw(st.integers(0, 3)) for t in tenants}, draw(st.integers(1, 6)))
    gaps = st.fixed_dictionaries({t: st.sampled_from((-0.5, 0.0, 0.5)) for t in tenants})
    steps = draw(st.lists(st.tuples(st.sampled_from(tenants), st.integers(0, 9), gaps),
                          min_size=10, max_size=200))
    return policy, layout, tenants, steps


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_fifo_insert_keeps_the_store_state(case):
    """Each access gives hybrid_insert's kind and leaves every resident key
    with the store's stamp and region kind; the heaps stay under their bound."""
    policy, layout, tenants, steps = case
    heaps = FifoHeaps(layout, tenants, shared=policy == "global")
    store = SlotStore(layout, FCFS)
    bound = 2 * layout.capacity + 64
    for tenant, item, gaps in steps:
        ranking = rank_donors(gaps) if policy in ("maxmin", "hybrid") else None
        key = (tenant, item)
        assert fifo_insert(heaps, key, ranking).kind == hybrid_insert(store, key, ranking).kind
        assert engine_state(heaps) == store_state(store)
        assert [heaps.owned(t) for t in tenants] == [store.owned(t) for t in tenants]
        assert heap_entries(heaps) <= bound


def test_memory_bounded_when_a_heap_is_never_queried():
    # tenant 2 only hits, and each hit on one of its SC keys promotes it,
    # leaving a stale entry on its SC heap; tenant 1 ranks first and donates
    # to itself, so nothing ever pops tenant 2's heap: only a rebuild bounds it
    layout = RegionLayout(dc_sizes={1: 1, 2: 1}, sc_size=8)
    heaps = FifoHeaps(layout, [1, 2])
    ranking = DonorRanking((1, 2))
    for item in range(4):
        fifo_insert(heaps, (2, item), ranking)
    for n in range(20_000):
        fifo_insert(heaps, (1, n % 9), ranking)
        assert fifo_insert(heaps, (2, n % 4), ranking).kind == "hit"
        assert heap_entries(heaps) <= 2 * layout.capacity + 64


def test_compaction_under_hybrid_promotions(monkeypatch):
    # SC hits are promoted while SC never fills, so nothing pops the SC heaps:
    # only a rebuild drops the stale entries each promotion leaves there
    rebuilds = []
    rebuild = FifoHeaps.rebuild
    monkeypatch.setattr(FifoHeaps, "rebuild", lambda self: rebuilds.append(1) or rebuild(self))
    layout = RegionLayout(dc_sizes={1: 2, 2: 2}, sc_size=6)
    heaps, store = FifoHeaps(layout, [1, 2]), SlotStore(layout, FCFS)
    ranking = DonorRanking((1, 2))
    bound = 2 * layout.capacity + 64
    for n in range(2_000):
        key = (1 + n % 2, n // 2 % 4)
        assert fifo_insert(heaps, key, ranking).kind == hybrid_insert(store, key, ranking).kind
        assert heaps.sc_free
        assert heap_entries(heaps) <= bound
    assert len(rebuilds) > 1
    assert engine_state(heaps) == store_state(store)
