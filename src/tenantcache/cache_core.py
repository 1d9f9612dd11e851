"""Slot-based cache substrate with tenant ownership and DC/SC regions.

A SlotStore is a fixed array of equally sized slots.  Each slot index belongs
permanently to one region: a tenant's dedicated partition ("DC", tenant_id) or
the shared region SC.  The store's replacement policy is fixed when it is
built, and every slot carries one stamp from one counter: its last access
under LRU (a hit restamps it), its insertion under FCFS (only an insert does).
The store offers lookup, insertion into an empty slot, victim choice,
replacement of a full region's victim by a new key in one step (replace), and
promotion of a shared-region key into its owner's dedicated region in one step
(promote, which can also take a full SC's victim slot for a new key).
sharing.hybrid_insert is the insertion algorithm every policy runs over them.
FCFS runs use the store; LRU runs keep per-tenant recency lists in place of
slots (sharing.recency_insert), and an LRU store is the reference model they
are tested against.

Victims come from one lazily validated index, built by heapifying the occupied
slots when the first victim query arrives; until then nothing is indexed, so
filling an empty store and a run that never evicts cost no heap work.  The
index keeps one heap per (region, owner) whose entries are single ints,
stamp << shift | index, ordered as (stamp, index); an owner-free query takes
the least live top over the region's owner heaps.  A slot filled from empty,
or refilled by swap or by an SC hit's promotion, is pushed under its new
stamp, and so is a slot an LRU hit restamps; its old entry, if any, is
dropped when it surfaces.  A full region's replacement hands its victim's
entry, which the victim query has just put on top of its heap, to the new
content: re-keyed in place when the owner stays, else popped and pushed once
on the new owner's heap, so it adds no entry and leaves none stale.  A
promotion hands on its DC victim's entry the same way, and its SC victim's
when it evicts one.
Once pushes would take the index past 2 * capacity + 64 entries it is
rebuilt from the occupied slots, so memory stays O(capacity) whatever the
trace length, at amortised O(1) cost per push.  A victim query does not
consume its answer: the slot stays indexed, and only when the caller
re-stamps, moves, replaces or evicts it does the next query see another slot.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
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

    dc_sizes: Mapping[int, int] = field(default_factory=dict)
    sc_size: int = 0

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
    """Min-heaps of stamp << shift | slot over the store's stamps, by region then owner.

    shift is capacity.bit_length(), so an int entry orders as its (stamp,
    slot) pair would, and decodes as entry >> shift, entry & mask.
    An entry is live while its slot is occupied and still holds the entry's
    stamp; a new stamp for the slot makes it stale.  Stamps are never reused
    and move only with their key, so a live entry also names the slot's
    current owner.  Every new stamp is indexed: pushed, or, for a replacement
    or promotion, given to the victim's entry, which the query has just put on
    top (replace_top).
    ``room`` counts the entries that still fit under ``limit`` before the
    next rebuild.
    """

    __slots__ = ("keys", "regions", "stamps", "limit", "heaps", "room", "shift", "mask")

    def __init__(self, store: "SlotStore"):
        # the store's arrays, not the store: no reference cycle keeps it alive
        self.keys, self.regions = store.keys, store.regions
        self.stamps = store.stamps
        self.limit = 2 * store.capacity + 64
        self.shift = store.capacity.bit_length()
        self.mask = (1 << self.shift) - 1
        self.rebuild()

    def rebuild(self) -> None:
        regions, stamps, shift = self.regions, self.stamps, self.shift
        heaps: dict = {}
        live = 0
        for idx, key in enumerate(self.keys):
            if key is not None:
                by_owner = heaps.setdefault(regions[idx], {})
                by_owner.setdefault(key[0], []).append(stamps[idx] << shift | idx)
                live += 1
        for by_owner in heaps.values():
            for heap in by_owner.values():
                heapq.heapify(heap)
        self.heaps = heaps
        self.room = self.limit - live

    def push(self, idx: int) -> None:
        """Index slot idx's new content under its current stamp, owner and region."""
        if not self.room:
            self.rebuild()  # the rebuild indexes idx as it is now
            return
        self.room -= 1
        stamp = self.stamps[idx]
        by_owner = self.heaps.get(self.regions[idx])
        if by_owner is None:
            by_owner = self.heaps[self.regions[idx]] = {}
        owner = self.keys[idx][0]
        heap = by_owner.get(owner)
        if heap is None:
            by_owner[owner] = [stamp << self.shift | idx]
        else:
            heapq.heappush(heap, stamp << self.shift | idx)

    def replace_top(self, region: Region, owner, idx: int, stamp: int, new_owner) -> None:
        """Index slot idx's new content, of new_owner, under stamp in place of idx's
        old entry, which must top its (region, owner) heap.

        Content of the same owner re-keys the top (one heapreplace); another
        owner's pops it and pushes one entry on new_owner's heap.  Either way
        the index holds as many entries as before and none for the old
        content.  Raises CacheError, changing nothing, when the top is not
        idx's, as it is just after a victim query named idx.
        """
        by_owner = self.heaps[region]  # an occupied slot has a live entry here
        heap = by_owner[owner]
        if heap[0] & self.mask != idx:
            raise CacheError(f"slot {idx} is not the victim a query has just named")
        entry = stamp << self.shift | idx
        if new_owner == owner:
            heapq.heapreplace(heap, entry)
            return
        heapq.heappop(heap)
        heap = by_owner.get(new_owner)
        if heap is None:
            by_owner[new_owner] = [entry]
        else:
            heapq.heappush(heap, entry)

    def _top(self, heap):
        """The heap's least live entry, after dropping stale ones above it; or None."""
        stamps, keys, shift, mask = self.stamps, self.keys, self.shift, self.mask
        while heap:
            entry = heap[0]
            idx = entry & mask
            if keys[idx] is not None and stamps[idx] == entry >> shift:
                return entry
            heapq.heappop(heap)
            self.room += 1
        return None

    def victim(self, region: Region, owner) -> int:
        """Slot with the least (stamp, index) in region, owned by owner unless None."""
        by_owner = self.heaps.get(region, {})
        if owner is not None:
            heap = by_owner.get(owner)
            if heap:  # the top itself when it is live
                idx = heap[0] & self.mask
                if self.keys[idx] is not None and self.stamps[idx] == heap[0] >> self.shift:
                    return idx
            best = self._top(heap)
        else:
            best = None
            for heap in by_owner.values():
                entry = self._top(heap)
                if entry is not None and (best is None or entry < best):
                    best = entry
        if best is None:
            raise NoCandidateError(f"no occupied slot in {region!r} for owner {owner!r}")
        return best & self.mask


class SlotStore:
    """The slot array, its free lists and per-owner counts, and the victim index."""

    def __init__(self, layout: RegionLayout, replacement: str = LRU):
        if replacement not in REPLACEMENTS:
            raise CacheError(f"unknown replacement policy {replacement!r}")
        self.layout = layout
        self._restamp_on_hit = replacement == LRU
        self.capacity = layout.capacity
        self.keys: list = [None] * self.capacity  # a key's owner is its key[0]
        self.stamps = [0] * self.capacity
        self.regions: list = [None] * self.capacity
        self.key_index: dict = {}
        self.free_slots: dict = {}  # region -> stack of its empty slot indices
        self._index: _VictimIndex | None = None  # built on the first victim query
        self._dc_count: dict = {}
        self.sc_count: dict = {}  # owner -> its SC slots; read-only outside the store
        self._seq = 0
        # tenant -> its DC region, None for a listed tenant without DC slots;
        # a layout with no DC slot at all serves any tenant from SC alone
        self.dc_regions: dict = {}
        self.shared_only = not any(layout.dc_sizes.values())

        idx = 0
        for tid in sorted(layout.dc_sizes):
            size = layout.dc_sizes[tid]
            region = dc_region(tid)
            self.dc_regions[tid] = region if size else None
            for i in range(idx, idx + size):
                self.regions[i] = region
            # stack: pop() hands out the lowest index first
            self.free_slots[region] = list(range(idx + size - 1, idx - 1, -1))
            idx += size
        for i in range(idx, self.capacity):
            self.regions[i] = SC
        self.free_slots[SC] = list(range(self.capacity - 1, idx - 1, -1))

    # -- bookkeeping -------------------------------------------------------
    # the hot paths (lookup, insert_into_empty, evict, replace, promote) tick
    # the stamp counter and adjust the per-owner counts inline

    def _count(self, owner, region, delta: int) -> None:
        counts = self.sc_count if region == SC else self._dc_count
        counts[owner] = counts.get(owner, 0) + delta

    # -- core operations ---------------------------------------------------

    def lookup(self, key: Key):
        """Return (region, slot index) on hit, restamping under LRU; None on miss.

        A restamp pushes the slot under its new stamp once the victim index
        is built.
        """
        idx = self.key_index.get(key)
        if idx is None:
            return None
        if self._restamp_on_hit:
            self._seq += 1
            self.stamps[idx] = self._seq
            if self._index is not None:
                self._index.push(idx)
        return self.regions[idx], idx

    def peek(self, key: Key):
        """Slot index for key without touching recency, or None."""
        return self.key_index.get(key)

    def free_count(self, region: Region) -> int:
        return len(self.free_slots.get(region, ()))

    def insert_into_empty(self, key: Key, region: Region) -> int:
        """Place key in an empty slot of region; owner comes from the key."""
        free = self.free_slots.get(region)
        if free is None:
            raise UnknownTenantError(f"no such region: {region!r}")
        if not free:
            raise RegionFullError(f"region {region!r} has no empty slot")
        if key in self.key_index:
            raise CacheError(f"key {key!r} already present")
        idx = free.pop()
        self.keys[idx] = key
        self._seq += 1
        self.stamps[idx] = self._seq
        self.key_index[key] = idx
        owner = key[0]
        counts = self.sc_count if region == SC else self._dc_count
        counts[owner] = counts.get(owner, 0) + 1
        if self._index is not None:
            self._index.push(idx)
        return idx

    def select_victim(self, region: Region, owner=None) -> int:
        """Slot the store would evict from region, optionally owner-filtered; kept in place.

        The victim is the occupied candidate with the least (stamp, index),
        the stamp being the last access (LRU) or the insertion (FCFS), as
        fixed when the store was built.  The query changes nothing
        observable, so asking twice gives the same slot until the caller
        re-stamps, moves, replaces or evicts it.  Raises NoCandidateError when
        no slot qualifies.
        """
        if self._index is None:
            self._index = _VictimIndex(self)
        return self._index.victim(region, owner)

    def evict_victim(self, region: Region, owner=None) -> int:
        """Evict the oldest candidate under the store's policy; return its index."""
        idx = self.select_victim(region, owner)
        self.evict(idx)
        return idx

    def evict(self, idx: int) -> None:
        key = self.keys[idx]
        if key is None:
            raise CacheError(f"slot {idx} already empty")
        region = self.regions[idx]
        del self.key_index[key]
        counts = self.sc_count if region == SC else self._dc_count
        counts[key[0]] -= 1
        self.keys[idx] = None
        self.free_slots[region].append(idx)

    def swap(self, i: int, j: int) -> None:
        """Exchange the contents of two occupied slots, metadata included."""
        if self.keys[i] is None or self.keys[j] is None:
            raise CacheError("swap requires two occupied slots")
        ri, rj = self.regions[i], self.regions[j]
        oi, oj = self.keys[i][0], self.keys[j][0]
        # counts are per owner and region kind, so a same-owner promotion keeps them
        if oi != oj and (ri == SC) != (rj == SC):
            self._count(oi, ri, -1)
            self._count(oj, rj, -1)
            self._count(oi, rj, +1)
            self._count(oj, ri, +1)
        self.keys[i], self.keys[j] = self.keys[j], self.keys[i]
        self.stamps[i], self.stamps[j] = self.stamps[j], self.stamps[i]
        self.key_index[self.keys[i]] = i
        self.key_index[self.keys[j]] = j
        if self._index is not None:
            self._index.push(i)
            self._index.push(j)

    def replace(self, idx: int, key: Key) -> None:
        """Evict slot idx's content and put key, which must be new, in its place.

        One step for a full region's miss: idx is the victim a query has just
        named, whose entry tops its (region, owner) heap.  key is stamped with
        a new tick and takes over that entry (replace_top), so no free list is
        touched and no stale entry is left.  Raises CacheError, changing
        nothing, when the slot is empty, key is present already, or idx's
        entry is not on top.
        """
        keys, key_index = self.keys, self.key_index
        old = keys[idx]
        if old is None:
            raise CacheError(f"slot {idx} already empty")
        if key in key_index:
            raise CacheError(f"key {key!r} already present")
        if self._index is None:
            raise CacheError(f"slot {idx} is not the victim a query has just named")
        region, owner, old_owner = self.regions[idx], key[0], old[0]
        stamp = self._seq + 1
        self._index.replace_top(region, old_owner, idx, stamp, owner)
        self._seq = stamp
        self.stamps[idx] = stamp
        keys[idx] = key
        del key_index[old]
        key_index[key] = idx
        if owner != old_owner:
            counts = self.sc_count if region == SC else self._dc_count
            counts[old_owner] -= 1
            counts[owner] = counts.get(owner, 0) + 1

    def promote(self, key: Key, dcr: Region, idx: int | None = None, evict: bool = False) -> int:
        """Move key into its owner's DC region dcr and the owner's DC victim out to SC.

        idx is the SC slot key occupies on an SC hit; None places key, which
        must be new, in the next free SC slot; with evict, idx is the SC slot
        a victim query has just named, and key, which must be new, takes it
        after its content is evicted.  The two slots then exchange contents,
        so both keep their stamps: on an SC hit the key keeps the stamp it
        holds, which the caller's lookup has just renewed (and pushed) under
        LRU and which is its insertion stamp under FCFS; a new key is stamped with a new
        tick.  The DC slot's entry is re-keyed in place.  A free SC slot is
        pushed, so that promotion adds one index entry; an evicted one takes
        over its old content's entry, so that one adds none.  Returns the DC
        slot key now holds.  Raises, changing nothing, when dcr holds no slot
        of key's owner, when a new key is present already, when SC is full
        (no evict) or when slot idx is not an occupied SC slot whose entry
        tops its heap (evict).
        """
        owner = key[0]
        keys, stamps, key_index = self.keys, self.stamps, self.key_index
        hit = idx is not None and not evict
        if not hit:
            if idx is None and not self.free_slots[SC]:
                raise RegionFullError(f"region {SC!r} has no empty slot")
            if key in key_index:
                raise CacheError(f"key {key!r} already present")
            if evict and (keys[idx] is None or self.regions[idx] != SC):
                raise CacheError(f"slot {idx} is not an occupied {SC} slot")
        victim = self.select_victim(dcr, owner)
        index = self._index
        if hit:
            stamp = stamps[idx]
        else:
            counts = self.sc_count
            if evict:
                old = keys[idx]
                # the DC victim's content takes over the SC slot's entry
                index.replace_top(SC, old[0], idx, stamps[victim], owner)
                del key_index[old]
                counts[old[0]] -= 1
            else:
                idx = self.free_slots[SC].pop()
            counts[owner] = counts.get(owner, 0) + 1
            self._seq += 1
            stamp = self._seq
        # the victim has key's owner, so the per-owner DC counts stay as they are
        moved = keys[victim]
        keys[idx], stamps[idx], key_index[moved] = moved, stamps[victim], idx
        keys[victim], stamps[victim], key_index[key] = key, stamp, victim
        # the victim's entry tops its heap, and the slot stays in that heap
        index.replace_top(dcr, owner, victim, stamp, owner)
        if not evict:
            index.push(idx)
        return victim

    # -- queries -----------------------------------------------------------

    def owned(self, tenant) -> tuple[int, int]:
        """(dc_slots, sc_slots) currently occupied by tenant."""
        return self._dc_count.get(tenant, 0), self.sc_count.get(tenant, 0)

    def sc_owners(self) -> list:
        """Tenants currently owning at least one SC slot."""
        return [t for t, n in self.sc_count.items() if n > 0]

    def occupied_count(self) -> int:
        return len(self.key_index)

    def dump(self, out: IO[str] | None = None) -> list[str]:
        """One slot per line: index,region,owner,key,stamp (last access or insertion)."""
        lines = []
        for idx in range(self.capacity):
            region = self.regions[idx]
            rname = SC if region == SC else f"DC:{region[1]}"
            key = self.keys[idx]
            kname = "" if key is None else f"{key[0]}:{key[1]}"
            owner = "" if key is None else str(key[0])
            lines.append(f"{idx},{rname},{owner},{kname},{self.stamps[idx]}")
        if out is not None:
            out.write("\n".join(lines) + "\n")
        return lines
