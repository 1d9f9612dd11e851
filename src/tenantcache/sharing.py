"""The one insertion algorithm of the dedicated/shared (DC/SC) cache model, and
the donor choices of max-min fair and selfish sharing.

hybrid_insert serves all six policies; the store's layout picks the case.
global and maxmin_* run it on an all-SC layout, static on an all-DC one, and
hybrid_* on per-tenant DC regions plus SC.  When SC is full, a tenant donates
its oldest SC slot: the owner of the oldest SC slot (global caching, no
gaps), or the tenant with the largest gap between its measured hit rate and
its soft requirement (max-min fair sharing).  Selfish sharing additionally
lets a tenant refuse to donate when a linear-regression forecast says losing
slots would push it below its requirement.

Gaps change only when a window closes or the active set changes, so the
donor rule is split in two: rank_donors orders the tenants when their gaps
change, and pick_donor, the rule's definition, walks that order for the
first tenant that owns an SC slot.  Donors is the one account of the first
half: gaps, selfish answers, (slots, EWMA) histories, the active set and
the ranking, told of those two events by both the run driver
(harness._drive) and the probe loop (harness._counted_rates).  The engines
make no walk per SC replacement: each takes SC slots through a
DonorCursor, which keeps pick_donor's answer for the current ranking,
placed by one walk per ranking and moved as SC counts step between 0 and 1.

No run keeps slots.  The run driver hands each engine the accesses
between two of its stops (window closes, samples, activation changes) in
one serve call, which adds each tenant's hits.  Under LRU a tenant's
resident items are always its most recent distinct ones (the stack
property), so RecencyLists.serve is hybrid_insert under LRU, its cases
inline, on per-tenant recency lists; an LRU capacity probe goes further
and decides each access from its stack distance alone, against the
capacity or its DC size under global and static and against its tenant's
slot counts otherwise, in one loop (harness._counted_rates).  FCFS is not a
stack algorithm, so FifoHeaps.serve calls fifo_insert, hybrid_insert under
FCFS on insertion stamps in per-tenant min-heaps by region, once per
access.  hybrid_insert on a SlotStore is the reference model all of them
are held to; it favours plain steps over speed and builds a plain
InsertOutcome for each access.
"""
from __future__ import annotations

import sys
from collections import OrderedDict, deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .cache_core import (
    SC,
    NoCandidateError,
    Region,
    RegionLayout,
    SlotStore,
    UnknownTenantError,
)

INF = float("inf")

DEFAULT_LOSS_HORIZON = 100
DEFAULT_HISTORY_LEN = 20


@dataclass(frozen=True)
class SharingStrategy:
    loss_horizon: int = DEFAULT_LOSS_HORIZON
    history_len: int = DEFAULT_HISTORY_LEN

    # both are bounded by sys.maxsize, far past any slot count: a history's
    # deque takes no larger maxlen, and a horizon past float range would
    # overflow the regression's forecast mid-run
    def __post_init__(self):
        if not 1 <= self.loss_horizon <= sys.maxsize:
            raise ValueError(f"loss_horizon must be in [1, {sys.maxsize}]")
        if not 2 <= self.history_len <= sys.maxsize:
            raise ValueError(f"history_len must be in [2, {sys.maxsize}]")


class DonorRanking(NamedTuple):
    """Tenants in donor order, and under selfish sharing the volunteers."""

    order: tuple  # by (-gap, tenant id): largest gap first, ties by smallest id
    volunteers: frozenset | None = None  # None under fair sharing


def rank_donors(gaps: Mapping, eligible: Mapping | None = None) -> DonorRanking:
    """Order the tenants of gaps by largest gap, ties by smallest id.

    With eligible (the selfish donors' answers) also name the volunteers:
    the departed tenants (gap +inf) and those with a positive gap that
    agreed to donate, eligible.get(k, True).  pick_donor walks the result.
    """
    order = tuple(sorted(gaps, key=lambda k: (-gaps[k], k)))
    if eligible is None:
        return DonorRanking(order)
    volunteers = frozenset(
        k for k, g in gaps.items() if g == INF or (g > 0 and eligible.get(k, True))
    )
    return DonorRanking(order, volunteers)


def pick_donor(ranking: DonorRanking, owns: Mapping, requester=None) -> object:
    """The donor among the ranked tenants k that own something: owns.get(k)
    is a nonzero count or a nonempty set of slots.

    Fair sharing takes the first such owner in rank order.  Selfish sharing
    takes the first that is the requester or a volunteer, and when there is
    none, the first owner, so that insertion always makes progress.  Builds
    no list and sorts nothing.  Raises NoCandidateError when no ranked
    tenant owns anything.
    """
    order, volunteers = ranking
    first = None
    for k in order:
        if owns.get(k):
            if volunteers is None or k == requester or k in volunteers:
                return k
            if first is None:
                first = k
    if first is None:
        raise NoCandidateError("no victim candidates")
    return first


def select_victim_tenant(gaps: Mapping, candidates: Iterable) -> object:
    """Candidate with the largest gap; ties broken by smallest tenant id."""
    ranked = {k: gaps[k] for k in sorted(candidates)}
    return pick_donor(rank_donors(ranked), dict.fromkeys(ranked, 1))


def predict_hit_rate(history: Iterable[tuple], slots: float) -> float:
    """Ordinary least squares of hit rate against owned slots, evaluated at slots.

    Degenerate histories (all slot counts equal) fall back to the mean rate.
    The sums are added left to right, so every Python gives the same bits;
    builtin sum() compensates float sums from Python 3.12 on.
    """
    points = list(history)
    n = len(points)
    if n == 0:
        raise ValueError("history is empty")
    sx = sy = sxx = sxy = 0
    for x, y in points:
        sx += x
        sy += y
        sxx += x * x
        sxy += x * y
    denom = n * sxx - sx * sx
    if denom == 0:
        return sy / n
    b = (n * sxy - sx * sy) / denom
    a = (sy - b * sx) / n
    return a + b * slots


def selfish_eligible(
    history: Sequence[tuple],
    hit_rate: float,
    soft: float,
    strategy: SharingStrategy,
) -> bool:
    """Would this tenant still meet its soft level after losing loss_horizon slots?

    history holds the tenant's (owned slots, smoothed hit rate) samples, one
    per closed window, newest last; the forecast starts from the newest slot
    count.  With fewer than two points there is no regression basis, so the
    tenant refuses only when its current smoothed rate is already below soft.
    """
    if len(history) < 2:
        return hit_rate >= soft
    return predict_hit_rate(history, history[-1][0] - strategy.loss_horizon) >= soft


def selfish_select_victim(
    gaps: Mapping,
    owners: Iterable,
    requester,
    eligible: Mapping,
) -> object:
    """Victim under selfish sharing, restricted to tenants owning contested slots.

    The candidate pool is every owner with a positive gap that agreed to
    donate (per its regression forecast), always including the requester and
    any departed owner (gap +inf).  If the pool is empty the selection falls
    back to plain max-gap over all owners so insertion always makes progress.
    """
    ranked = {k: gaps[k] for k in sorted(owners)}
    return pick_donor(rank_donors(ranked, eligible), dict.fromkeys(ranked, 1), requester)


class Donors:
    """The donor account of one run or probe: each tenant's gap, its (owned
    slots, smoothed hit rate) history and, under selfish sharing, its answer
    as a donor; the active set; and rank_donors' ranking of them, None when
    not ranked (global, static), where the gaps are still kept for the
    records.

    It changes only at two events, and each ranks the donors again and
    returns the ranking: a tenant's window closes (closed), or the active
    set changes (change).  A ranking equal to the last is the last object,
    so a DonorCursor over it is not placed again.  softs maps every tenant
    to its soft requirement.
    """

    __slots__ = ("softs", "strategy", "ranked", "gaps", "answers", "histories", "active",
                 "ranking")

    def __init__(self, softs: Mapping, strategy: SharingStrategy, selfish: bool, ranked: bool):
        self.softs, self.strategy, self.ranked = softs, strategy, ranked
        self.gaps: dict = {}
        self.answers: dict | None = {} if selfish else None
        self.histories = {k: deque(maxlen=strategy.history_len) for k in softs}
        self.active: set = set()
        self.ranking: DonorRanking | None = None
        self._rank()

    def _rank(self) -> DonorRanking | None:
        if self.ranked:
            ranking = rank_donors(self.gaps, self.answers)
            if ranking != self.ranking:
                self.ranking = ranking
        return self.ranking

    def _refresh(self, k, rate: float) -> None:
        """Set k's gap from its smoothed hit rate, and under selfish sharing its answer."""
        soft = self.softs[k]
        self.gaps[k] = rate - soft
        if self.answers is not None:
            self.answers[k] = selfish_eligible(self.histories[k], rate, soft, self.strategy)

    def closed(self, k, slots: int, rate: float) -> DonorRanking | None:
        """k's window closed with slots owned and smoothed hit rate rate."""
        self.histories[k].append((slots, rate))
        self._refresh(k, rate)
        return self._rank()

    def change(self, now: set, rate: Callable) -> DonorRanking | None:
        """The active set becomes now.  Departed tenants get gap +inf, so
        they volunteer and their slots are reclaimed first; each arrival is
        refreshed with rate(k), its smoothed hit rate."""
        for k in self.active - now:
            self.gaps[k] = INF
        for k in now - self.active:
            self._refresh(k, rate(k))
        self.active = now
        return self._rank()


class InsertOutcome(NamedTuple):
    """What the insertion algorithm did with one access."""

    kind: str  # "hit" | "inserted" | "replaced"
    region: Region | None = None
    victim_tenant: object = None


def hybrid_insert(
    store: SlotStore,
    key: tuple,
    ranking: DonorRanking | None = None,
) -> InsertOutcome:
    """Insert key's access into store; the store's layout picks the case.

    Hit: a hit in the tenant's DC returns; a hit in SC is promoted into the
    tenant's DC, swapping places with its DC victim.  Miss: an empty DC slot
    comes first.  Otherwise, with an SC, the item takes an SC slot (an empty
    one, else a donor's oldest) and is promoted; with no SC it replaces the
    tenant's own oldest DC slot, which is static caching.  The donor is the
    owner of the oldest SC slot when ranking is None (global caching), else
    pick_donor's walk of ranking (rank_donors' order of the gaps, and under
    selfish sharing the volunteers) over the store's SC owners.  A tenant
    with no DC slot is never promoted.  A layout with any DC slot serves only
    the tenants it lists; an all-SC layout serves any tenant.  The key is
    read once, by store.lookup, whose LRU restamp an SC hit's swap keeps.
    Every case is a sequence of the store's primitive steps: this is the
    reference model that RecencyLists.serve and fifo_insert are held to.
    """
    tenant = key[0]
    dcr = store.dc_regions.get(tenant)
    if dcr is None and not store.shared_only and tenant not in store.dc_regions:
        raise UnknownTenantError(f"tenant {tenant!r} has no entry in the layout")

    hit = store.lookup(key)  # restamps under LRU; an SC hit's swap keeps that stamp
    if hit is not None:
        region, idx = hit
        if region == SC and dcr is not None:
            store.swap(idx, store.select_victim(dcr, tenant))
        return InsertOutcome("hit", region)

    free = store.free_slots
    if dcr is not None and free[dcr]:
        store.insert_into_empty(key, dcr)
        return InsertOutcome("inserted", dcr)
    if not store.layout.sc_size:
        store.evict_victim(dcr, tenant)
        store.insert_into_empty(key, dcr)
        return InsertOutcome("replaced", dcr, tenant)
    outcome = InsertOutcome("inserted", SC)
    if not free[SC]:
        if ranking is None:
            victim = store.select_victim(SC)
            donor = store.keys[victim][0]
        else:
            donor = pick_donor(ranking, store.occupied[SC], tenant)
            victim = store.select_victim(SC, donor)
        store.evict(victim)
        outcome = InsertOutcome("replaced", SC, donor)
    idx = store.insert_into_empty(key, SC)
    if dcr is not None:
        store.swap(idx, store.select_victim(dcr, tenant))
    return outcome


class DonorCursor:
    """pick_donor's answer kept current over a mapping of SC slot counts,
    so that a donation makes no walk.

    For the ranking of the last donation it holds two positions in its
    order: first, that of the first tenant that owns an SC slot, and vol,
    that of the first such volunteer (every ranked tenant volunteers under
    fair sharing); each is len(order) when there is none.  A new ranking
    object places both by walking its order.  An engine fills SC before
    its first donation and never frees an SC slot, so the counts may be
    raised directly until then; after it every change is a take.  A take's
    0 -> 1 step moves a position back to its tenant, and its 1 -> 0 step of
    the tenant at a position walks that position on, so the walks of one
    ranking sum to its length.  A tenant the ranking does not list never
    donates.
    """

    __slots__ = ("counts", "ranking", "order", "rank", "volunteers", "first", "vol")

    def __init__(self, counts: dict):
        self.counts, self.ranking = counts, None  # the rest is placed at the first take

    def _next(self, i: int, among) -> int:
        """The first position from i whose tenant owns an SC slot and is among."""
        counts, order = self.counts, self.order
        while i < len(order) and not (counts.get(order[i]) and order[i] in among):
            i += 1
        return i

    def take(self, ranking: DonorRanking, requester) -> object:
        """The donor of requester's next SC slot, pick_donor(ranking, counts,
        requester); one of its SC slots passes to requester."""
        if ranking is not self.ranking:
            self.ranking, (self.order, volunteers) = ranking, ranking
            self.rank = {k: i for i, k in enumerate(self.order)}
            self.volunteers = self.rank if volunteers is None else volunteers
            self.first = self._next(0, self.rank)
            self.vol = self.first if volunteers is None else self._next(0, volunteers)
        counts, rank, order = self.counts, self.rank, self.order
        had = counts[requester]
        i = rank.get(requester)
        if had and i is not None and i <= self.vol:
            return requester
        if self.vol < len(order):
            donor = order[self.vol]
        elif self.first < len(order):
            donor = order[self.first]
        else:
            raise NoCandidateError("no victim candidates")
        left = counts[donor] - 1
        counts[donor] = left
        counts[requester] = had + 1
        if not left:
            j = rank[donor]
            if j == self.first:
                self.first = self._next(j + 1, rank)
            if j == self.vol:  # under fair sharing vol is first
                vols = self.volunteers
                self.vol = self.first if vols is rank else self._next(j + 1, vols)
        if not had and i is not None:
            self.first = min(self.first, i)
            if requester in self.volunteers:
                self.vol = min(self.vol, i)
        return donor


class SlotCounts:
    """Each tenant's DC and SC slot counts under a layout, the SC's free
    slots, and a DonorCursor over the SC counts: what RecencyLists and
    FifoHeaps keep of a store besides its keys.

    owned reads as SlotStore's does, and is what the run driver reads of an
    engine besides its serve.  It serves only the tenants it is built for.
    """

    __slots__ = ("dc_sizes", "dc_count", "sc_count", "sc_size", "sc_free", "cursor")

    def __init__(self, layout: RegionLayout, tenant_ids: Iterable):
        self.dc_sizes = {k: layout.dc_sizes.get(k, 0) for k in tenant_ids}
        self.dc_count = dict.fromkeys(self.dc_sizes, 0)
        self.sc_count = dict.fromkeys(self.dc_sizes, 0)
        self.sc_size = self.sc_free = layout.sc_size
        self.cursor = DonorCursor(self.sc_count)

    def owned(self, tenant) -> tuple[int, int]:
        """(dc_slots, sc_slots) currently occupied by tenant."""
        return self.dc_count[tenant], self.sc_count[tenant]


_COUNTED_HIT = InsertOutcome("hit")
_COUNTED_INSERTED = InsertOutcome("inserted")
_COUNTED_REPLACED = InsertOutcome("replaced")


class RecencyLists(SlotCounts):
    """SlotCounts plus the resident keys in recency order, least recent
    first: all that an LRU store's run keeps (see serve).

    lists maps each tenant to a collections.OrderedDict of its resident
    items; with shared (global caching) every tenant maps to one
    OrderedDict of all resident (tenant, item) keys.  Memory is
    O(capacity).
    """

    __slots__ = ("lists", "shared")

    def __init__(self, layout: RegionLayout, tenant_ids: Iterable, shared: bool = False):
        super().__init__(layout, tenant_ids)
        one = OrderedDict()
        self.lists = {k: one if shared else OrderedDict() for k in self.dc_sizes}
        self.shared = shared

    def serve(self, events: Iterable[tuple], ranking: DonorRanking | None, hits: dict) -> None:
        """hybrid_insert on an LRU store for each (txn, tenant, item) of
        events, in order, on recency lists in place of slots, adding one to
        hits[tenant] for each hit.  ranking holds for every access.

        Under LRU a hit or an insert puts its key on top of its own tenant's
        stack and every eviction takes its owner's least recent item, so a
        tenant's resident items are its dc_k + sc_k most recent distinct
        ones.  In a hybrid layout the DC fills first and is never freed, and
        a promotion moves the DC's oldest item out to SC, newer than every SC
        item of the tenant, so a donor's SC victim is its least recent item
        too.  Each case of hybrid_insert is then a list step, in its order:
        a hit iff the item is in its tenant's list (the key, in a shared
        list), moved to the newest end; else it is appended after taking a
        free DC slot, else a free SC slot; else, with no SC, the tenant's
        own least recent item goes; else a donor's least recent item goes
        and its SC slot passes to the tenant.  With a ranking the donor is
        pick_donor's, which the lists' DonorCursor keeps and takes the slot
        from; else (global caching) it is the owner of the shared list's
        least recent key.  The caller checks the tenants: one the lists are
        not built for raises KeyError.
        """
        lists, shared, dc_count, dc_sizes = self.lists, self.shared, self.dc_count, self.dc_sizes
        sc_count, sc_size, sc_free = self.sc_count, self.sc_size, self.sc_free
        for _, tenant, item in events:
            mine = lists[tenant]
            if shared:
                item = (tenant, item)
            if item in mine:
                mine.move_to_end(item)
                hits[tenant] += 1
                continue
            dc = dc_count[tenant]
            if dc < dc_sizes[tenant]:
                dc_count[tenant] = dc + 1
            elif sc_free:
                sc_free -= 1
                sc_count[tenant] += 1
            elif not sc_size:
                mine.popitem(last=False)
            elif ranking is None:
                donor = mine.popitem(last=False)[0][0]
                sc_count[donor] -= 1
                sc_count[tenant] += 1
            else:
                lists[self.cursor.take(ranking, tenant)].popitem(last=False)
            mine[item] = None
        self.sc_free = sc_free


class FifoHeaps(SlotCounts):
    """SlotCounts plus each resident key's insertion stamp and region, and
    min-heaps of the stamps: all that fifo_insert keeps of an FCFS store.

    stamps maps each resident key to its stamp, a tick of one counter that
    stays with the key, and dc_keys and sc_keys map each stamp in that
    region kind to its key.  dc_heaps and sc_heaps map each tenant to a min-heap of its
    stamps in its DC and in SC; with shared (global caching) every tenant
    maps to one SC heap.  An entry is live while its key is still in that
    region under that stamp.  A key leaves its DC only as its heap's top, so
    DC heaps hold live entries alone; an SC hit's promotion leaves its SC
    entry stale, and stale entries are dropped when they reach the top.
    Once pushes would take the heaps past 2 * capacity + 64 entries they are
    rebuilt from the resident keys, so memory is O(capacity) whatever the
    trace length.
    """

    __slots__ = ("stamps", "dc_keys", "sc_keys", "dc_heaps", "sc_heaps", "tick", "limit", "room")

    def __init__(self, layout: RegionLayout, tenant_ids: Iterable, shared: bool = False):
        super().__init__(layout, tenant_ids)
        self.stamps: dict = {}
        self.dc_keys: dict = {}
        self.sc_keys: dict = {}
        self.dc_heaps = {k: [] for k in self.dc_sizes}
        one: list = []
        self.sc_heaps = {k: one if shared else [] for k in self.dc_sizes}
        self.tick = 0
        self.limit = self.room = 2 * layout.capacity + 64  # room: pushes left before a rebuild

    def push(self, heap: list, stamp: int) -> None:
        """Push stamp, whose key the dicts already place, or rebuild the heaps."""
        if self.room:
            self.room -= 1
            heappush(heap, stamp)
        else:
            self.rebuild()

    def rebuild(self) -> None:
        """Refill every heap, in place, with the live entries alone."""
        heaps = {id(h): h for h in (*self.dc_heaps.values(), *self.sc_heaps.values())}
        for heap in heaps.values():
            heap.clear()
        for stamp, key in self.dc_keys.items():
            self.dc_heaps[key[0]].append(stamp)
        for stamp, key in self.sc_keys.items():
            self.sc_heaps[key[0]].append(stamp)
        for heap in heaps.values():
            heapify(heap)
        self.room = self.limit - len(self.dc_keys) - len(self.sc_keys)

    def pop_oldest_sc(self, heap: list) -> int:
        """Pop and return the least live stamp of an SC heap, dropping stale ones above it."""
        sc = self.sc_keys
        while heap[0] not in sc:
            heappop(heap)
            self.room += 1
        self.room += 1
        return heappop(heap)

    def serve(self, events: Iterable[tuple], ranking: DonorRanking | None, hits: dict) -> None:
        """fifo_insert for each (txn, tenant, item) of events, in order,
        adding one to hits[tenant] for each hit.  ranking holds for every
        access."""
        for _, tenant, item in events:
            if fifo_insert(self, (tenant, item), ranking) is _COUNTED_HIT:
                hits[tenant] += 1


def fifo_insert(heaps: FifoHeaps, key: tuple, ranking: DonorRanking | None = None) -> InsertOutcome:
    """hybrid_insert on an FCFS store, on insertion stamps in place of slots.

    FCFS is not a stack algorithm (Belady, Nelson & Shedler 1969), so a
    tenant's resident items are not its newest ones, and an SC hit's
    promotion breaks per-tenant FIFO order: the hit key and the tenant's
    oldest DC key trade places and both keep their stamps.  With a DC of
    size 1, insert a, insert b (a moves out to SC), then hit a (b moves
    out): the next donation evicts b, not a.  So each victim is the least
    stamp of its heap.  The cases, in hybrid_insert's order: a hit iff the
    key is resident, promoted on an SC hit when the tenant has a DC; else
    the key, with a new tick, takes a free DC slot; else, with no SC, it
    replaces the tenant's oldest DC key; else it takes a free SC slot or a
    donor's oldest SC key's, and with a DC it is promoted, the tenant's
    oldest DC key moving out to SC.  With a ranking the donor is
    pick_donor's, which the heaps' DonorCursor keeps and takes the slot
    from; else (global caching) it is the owner of the shared heap's oldest
    key.  The outcome's kind is hybrid_insert's; it names no
    region or victim.  The caller checks the tenant: one the heaps are not
    built for raises KeyError.
    """
    tenant = key[0]
    dc_heap = heaps.dc_heaps[tenant]
    has_dc = heaps.dc_sizes[tenant]
    dc, sc = heaps.dc_keys, heaps.sc_keys
    stamp = heaps.stamps.get(key)
    if stamp is not None:
        if has_dc and stamp in sc:  # trade places with the oldest DC key
            moved = heapreplace(dc_heap, stamp)
            dc[stamp] = sc.pop(stamp)
            sc[moved] = dc.pop(moved)
            heaps.push(heaps.sc_heaps[tenant], moved)
        return _COUNTED_HIT
    heaps.tick = stamp = heaps.tick + 1
    heaps.stamps[key] = stamp
    n = heaps.dc_count[tenant]
    if n < has_dc:
        heaps.dc_count[tenant] = n + 1
        dc[stamp] = key
        heaps.push(dc_heap, stamp)
        return _COUNTED_INSERTED
    if not heaps.sc_size:
        del heaps.stamps[dc.pop(heapreplace(dc_heap, stamp))]
        dc[stamp] = key
        return _COUNTED_REPLACED
    if heaps.sc_free:
        heaps.sc_free -= 1
        heaps.sc_count[tenant] += 1
        outcome = _COUNTED_INSERTED
    else:
        if ranking is None:
            oldest = heaps.pop_oldest_sc(heaps.sc_heaps[tenant])
            heaps.sc_count[sc[oldest][0]] -= 1
            heaps.sc_count[tenant] += 1
        else:
            donor = heaps.cursor.take(ranking, tenant)
            oldest = heaps.pop_oldest_sc(heaps.sc_heaps[donor])
        del heaps.stamps[sc.pop(oldest)]
        outcome = _COUNTED_REPLACED
    if has_dc:  # promoted: the oldest DC key moves out to SC
        moved = heapreplace(dc_heap, stamp)
        dc[stamp] = key
        sc[moved] = dc.pop(moved)
        stamp = moved
    else:
        sc[stamp] = key
    heaps.push(heaps.sc_heaps[tenant], stamp)
    return outcome


# the policy families' names for the one algorithm.  No run calls them, but
# the benchmark's tracer (perfbench/tracer.py) wraps each on harness by name,
# so they stay until the benchmark is refreshed (ROADMAP item 1).
global_insert = static_insert = maxmin_insert = hybrid_insert
