"""Slot-based cache substrate with tenant ownership and DC/SC regions.

A SlotStore is a fixed array of equally sized slots.  Each slot index belongs
permanently to one region: a tenant's dedicated partition ("DC", tenant_id) or
the shared region SC.  Every slot carries two stamps from one counter: its
last access (the LRU order) and its insertion (the FCFS order).

Victims come from a lazily validated index, one per replacement policy, built
by heapifying the occupied slots when a victim query first asks for that
policy; until then nothing is indexed, so filling an empty store and a run
that never evicts cost no heap work.  The index keeps one heap of (stamp,
index) per (region, owner); an owner-free query takes the least live top over
the region's owner heaps.  An update pushes the slot's new entry and leaves
the old one to be dropped when it surfaces.  Once pushes would take the index
past 2 * capacity + 64 entries it is rebuilt from the occupied slots, so
memory stays O(capacity) whatever the trace length, at amortised O(1) cost
per push.  A victim query does not consume its answer: the slot stays
indexed, and only when the caller re-stamps, moves or evicts it does the next
query see another slot.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

SC = "SC"

Key = tuple  # (tenant_id, item)
Region = object  # SC or ("DC", tenant_id)

LRU = "lru"
FCFS = "fcfs"
REPLACEMENTS = (LRU, FCFS)


def dc_region(tenant_id) -> tuple:
    return ("DC", tenant_id)


class CacheError(RuntimeError):
    pass


class RegionFullError(CacheError):
    """Insertion into a region with no empty slot."""


class NoCandidateError(CacheError):
    """Victim requested from an empty candidate set."""


class UnknownTenantError(CacheError):
    """Event from a tenant the layout knows nothing about."""


@dataclass(frozen=True)
class RegionLayout:
    """Partitioning of the slot array into per-tenant DC regions plus SC."""

    dc_sizes: Mapping[int, int]
    sc_size: int

    def __post_init__(self):
        if self.sc_size < 0 or any(v < 0 for v in self.dc_sizes.values()):
            raise CacheError("region sizes must be >= 0")

    @property
    def capacity(self) -> int:
        return self.sc_size + sum(self.dc_sizes.values())

    @classmethod
    def global_layout(cls, capacity: int) -> "RegionLayout":
        """All slots shared, no dedicated partitions."""
        return cls(dc_sizes={}, sc_size=capacity)

    @classmethod
    def static_layout(cls, capacity: int, tenant_ids: Iterable[int]) -> "RegionLayout":
        """Equal per-tenant split with no shared region.

        Remainder slots go to the lowest tenant ids, deterministically.
        """
        ids = sorted(tenant_ids)
        if not ids:
            raise CacheError("static layout needs at least one tenant")
        base, extra = divmod(capacity, len(ids))
        sizes = {tid: base + (1 if i < extra else 0) for i, tid in enumerate(ids)}
        return cls(dc_sizes=sizes, sc_size=0)


class _VictimIndex:
    """Min-heaps of (stamp, slot) for one replacement policy, by region then owner.

    An entry is live while its slot is occupied and still carries that stamp.
    Stamps are never reused and travel with their key on a swap, so a live
    entry also names the slot's current owner.  ``room`` counts the entries
    that still fit under ``limit`` before the next rebuild.
    """

    __slots__ = ("keys", "owners", "regions", "stamps", "limit", "heaps", "room")

    def __init__(self, store: "SlotStore", stamps: list):
        # the store's arrays, not the store: no reference cycle keeps it alive
        self.keys, self.owners, self.regions = store.keys, store.owners, store.regions
        self.stamps = stamps
        self.limit = 2 * store.capacity + 64
        self.rebuild()

    def rebuild(self) -> None:
        owners, regions, stamps = self.owners, self.regions, self.stamps
        heaps: dict = {}
        live = 0
        for idx, key in enumerate(self.keys):
            if key is not None:
                by_owner = heaps.setdefault(regions[idx], {})
                by_owner.setdefault(owners[idx], []).append((stamps[idx], idx))
                live += 1
        for by_owner in heaps.values():
            for heap in by_owner.values():
                heapq.heapify(heap)
        self.heaps = heaps
        self.room = self.limit - live

    def push(self, idx: int) -> None:
        """Index slot idx under its current stamp, owner and region."""
        if not self.room:
            self.rebuild()  # the rebuild indexes idx as it is now
            return
        self.room -= 1
        by_owner = self.heaps.setdefault(self.regions[idx], {})
        heapq.heappush(by_owner.setdefault(self.owners[idx], []), (self.stamps[idx], idx))

    def _top(self, heap):
        """The heap's least live entry, after dropping stale ones above it; or None."""
        stamps, keys = self.stamps, self.keys
        while heap:
            entry = heap[0]
            idx = entry[1]
            if stamps[idx] == entry[0] and keys[idx] is not None:
                return entry
            heapq.heappop(heap)
            self.room += 1
        return None

    def victim(self, region: Region, owner) -> int:
        """Slot with the least (stamp, index) in region, owned by owner unless None."""
        by_owner = self.heaps.get(region, {})
        if owner is not None:
            best = self._top(by_owner.get(owner))
        else:
            best = None
            for heap in by_owner.values():
                entry = self._top(heap)
                if entry is not None and (best is None or entry < best):
                    best = entry
        if best is None:
            raise NoCandidateError(f"no occupied slot in {region!r} for owner {owner!r}")
        return best[1]


class SlotStore:
    """The slot array, its free lists and per-owner counts, and the victim index."""

    def __init__(self, layout: RegionLayout):
        self.layout = layout
        self.capacity = layout.capacity
        self.keys: list = [None] * self.capacity
        self.owners: list = [None] * self.capacity
        self.last_seq = [0] * self.capacity
        self.ins_seq = [0] * self.capacity
        self.regions: list = [None] * self.capacity
        self.key_index: dict = {}
        self._free: dict = {}
        self._victims: dict = {}  # policy -> _VictimIndex, built on first query
        self._dc_count: dict = {}
        self._sc_count: dict = {}
        self._seq = 0

        idx = 0
        for tid in sorted(layout.dc_sizes):
            size = layout.dc_sizes[tid]
            region = dc_region(tid)
            for i in range(idx, idx + size):
                self.regions[i] = region
            # stack: pop() hands out the lowest index first
            self._free[region] = list(range(idx + size - 1, idx - 1, -1))
            idx += size
        for i in range(idx, self.capacity):
            self.regions[i] = SC
        self._free[SC] = list(range(self.capacity - 1, idx - 1, -1))

    # -- bookkeeping -------------------------------------------------------

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    def _count(self, owner, region, delta: int) -> None:
        counts = self._sc_count if region == SC else self._dc_count
        counts[owner] = counts.get(owner, 0) + delta

    def _victim_index(self, policy: str) -> _VictimIndex:
        index = self._victims.get(policy)
        if index is None:
            if policy == LRU:
                stamps = self.last_seq
            elif policy == FCFS:
                stamps = self.ins_seq
            else:
                raise CacheError(f"unknown replacement policy {policy!r}")
            index = self._victims[policy] = _VictimIndex(self, stamps)
        return index

    # -- core operations ---------------------------------------------------

    def lookup(self, key: Key):
        """Return (region, slot index) on hit and refresh recency; None on miss."""
        idx = self.key_index.get(key)
        if idx is None:
            return None
        self.last_seq[idx] = self._tick()
        lru = self._victims.get(LRU)
        if lru is not None:
            lru.push(idx)
        return self.regions[idx], idx

    def peek(self, key: Key):
        """Slot index for key without touching recency, or None."""
        return self.key_index.get(key)

    def free_count(self, region: Region) -> int:
        return len(self._free.get(region, ()))

    def insert_into_empty(self, key: Key, region: Region) -> int:
        """Place key in an empty slot of region; owner comes from the key."""
        free = self._free.get(region)
        if free is None:
            raise UnknownTenantError(f"no such region: {region!r}")
        if not free:
            raise RegionFullError(f"region {region!r} has no empty slot")
        if key in self.key_index:
            raise CacheError(f"key {key!r} already present")
        idx = free.pop()
        owner = key[0]
        seq = self._tick()
        self.keys[idx] = key
        self.owners[idx] = owner
        self.last_seq[idx] = seq
        self.ins_seq[idx] = seq
        self.key_index[key] = idx
        self._count(owner, region, +1)
        for index in self._victims.values():
            index.push(idx)
        return idx

    def select_victim(self, region: Region, owner=None, policy: str = LRU) -> int:
        """Slot the policy would evict from region, optionally owner-filtered; kept in place.

        The victim is the occupied candidate with the least (stamp, index),
        stamp being the last access (LRU) or the insertion (FCFS).  The query
        changes nothing observable, so asking twice gives the same slot until
        the caller re-stamps, moves or evicts it.  Raises CacheError for an
        unknown policy and NoCandidateError when no slot qualifies.
        """
        return self._victim_index(policy).victim(region, owner)

    def evict_victim(self, region: Region, owner=None, policy: str = LRU) -> int:
        """Evict the oldest candidate under the replacement policy; return its index."""
        idx = self._victim_index(policy).victim(region, owner)
        self.evict(idx)
        return idx

    def evict(self, idx: int) -> None:
        key = self.keys[idx]
        if key is None:
            raise CacheError(f"slot {idx} already empty")
        region = self.regions[idx]
        del self.key_index[key]
        self._count(self.owners[idx], region, -1)
        self.keys[idx] = None
        self.owners[idx] = None
        self._free[region].append(idx)

    def swap(self, i: int, j: int) -> None:
        """Exchange the contents of two occupied slots, metadata included."""
        if self.keys[i] is None or self.keys[j] is None:
            raise CacheError("swap requires two occupied slots")
        ri, rj = self.regions[i], self.regions[j]
        oi, oj = self.owners[i], self.owners[j]
        # counts are per owner and region kind, so a same-owner promotion keeps them
        if oi != oj and (ri == SC) != (rj == SC):
            self._count(oi, ri, -1)
            self._count(oj, rj, -1)
            self._count(oi, rj, +1)
            self._count(oj, ri, +1)
        self.keys[i], self.keys[j] = self.keys[j], self.keys[i]
        self.owners[i], self.owners[j] = oj, oi
        self.last_seq[i], self.last_seq[j] = self.last_seq[j], self.last_seq[i]
        self.ins_seq[i], self.ins_seq[j] = self.ins_seq[j], self.ins_seq[i]
        self.key_index[self.keys[i]] = i
        self.key_index[self.keys[j]] = j
        for index in self._victims.values():
            index.push(i)
            index.push(j)

    # -- queries -----------------------------------------------------------

    def owned(self, tenant) -> tuple[int, int]:
        """(dc_slots, sc_slots) currently occupied by tenant."""
        return self._dc_count.get(tenant, 0), self._sc_count.get(tenant, 0)

    def sc_owners(self) -> list:
        """Tenants currently owning at least one SC slot."""
        return [t for t, n in self._sc_count.items() if n > 0]

    def occupied_count(self) -> int:
        return len(self.key_index)

    def dump(self, out: IO[str] | None = None) -> list[str]:
        """One slot per line: index,region,owner,key,last_access_seq."""
        lines = []
        for idx in range(self.capacity):
            region = self.regions[idx]
            rname = SC if region == SC else f"DC:{region[1]}"
            key = self.keys[idx]
            kname = "" if key is None else f"{key[0]}:{key[1]}"
            owner = "" if self.owners[idx] is None else str(self.owners[idx])
            lines.append(f"{idx},{rname},{owner},{kname},{self.last_seq[idx]}")
        if out is not None:
            out.write("\n".join(lines) + "\n")
        return lines


@dataclass(frozen=True)
class InsertOutcome:
    """What a policy's insert operation did with one access."""

    kind: str  # "hit" | "inserted" | "replaced"
    region: Region | None = None
    victim_tenant: object = None

    @property
    def hit(self) -> bool:
        return self.kind == "hit"


SC_HIT = InsertOutcome("hit", SC)
SC_INSERTED = InsertOutcome("inserted", SC)


def global_insert(store: SlotStore, key: Key, policy: str = LRU) -> InsertOutcome:
    """Tenant-unaware LRU/FCFS over the whole (all-SC) store."""
    if store.lookup(key) is not None:
        return SC_HIT
    if store.free_count(SC):
        store.insert_into_empty(key, SC)
        return SC_INSERTED
    idx = store.select_victim(SC, None, policy)
    victim = store.owners[idx]
    store.evict(idx)
    store.insert_into_empty(key, SC)
    return InsertOutcome("replaced", SC, victim_tenant=victim)


def static_insert(store: SlotStore, key: Key, policy: str = LRU) -> InsertOutcome:
    """LRU/FCFS confined to the tenant's own partition."""
    tenant = key[0]
    region = dc_region(tenant)
    if tenant not in store.layout.dc_sizes:
        raise UnknownTenantError(f"tenant {tenant!r} has no partition")
    if store.lookup(key) is not None:
        return InsertOutcome("hit", region)
    if store.free_count(region):
        store.insert_into_empty(key, region)
        return InsertOutcome("inserted", region)
    store.evict_victim(region, tenant, policy)
    store.insert_into_empty(key, region)
    return InsertOutcome("replaced", region, victim_tenant=tenant)
