"""Slot-based cache substrate with tenant ownership and DC/SC regions.

A SlotStore is a fixed array of equally sized slots.  Each slot index belongs
permanently to one region: a tenant's dedicated partition ("DC", tenant_id) or
the shared region SC.  The store's replacement policy is fixed when it is
built, and every slot carries one stamp from one counter: its last access
under LRU (a hit restamps it), its insertion under FCFS (only an insert does).
The store offers lookup, insertion into an empty slot, victim choice,
eviction and the swap of two slots' contents; sharing.hybrid_insert is the
insertion algorithm every policy runs over them.

No run keeps slots.  LRU runs keep per-tenant recency lists
(sharing.RecencyLists) and FCFS runs keep insertion stamps in per-tenant
heaps (sharing.FifoHeaps, through sharing.fifo_insert); the store is the
reference model both are tested against, under either policy.  So it
favours plain steps over speed: it keeps the occupied slots of each region
by owner, and a victim query scans the candidates for the least stamp.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
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


class SlotStore:
    """The slot array, its free lists, and each region's occupied slots by owner."""

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
        # region -> owner -> the region's slots that hold the owner's keys;
        # read-only outside the store
        self.occupied: dict = {region: {} for region in self.free_slots}

    def _slots(self, region: Region, owner) -> set:
        return self.occupied[region].setdefault(owner, set())

    # -- core operations ---------------------------------------------------

    def lookup(self, key: Key):
        """Return (region, slot index) on hit, restamping under LRU; None on miss."""
        idx = self.key_index.get(key)
        if idx is None:
            return None
        if self._restamp_on_hit:
            self._seq += 1
            self.stamps[idx] = self._seq
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
        self._slots(region, key[0]).add(idx)
        return idx

    def select_victim(self, region: Region, owner=None) -> int:
        """Slot the store would evict from region, optionally owner-filtered; kept in place.

        The victim is the occupied candidate with the least stamp, the stamp
        being the last access (LRU) or the insertion (FCFS), as fixed when
        the store was built.  Stamps come from one counter and move only with
        their key, so no two occupied slots share one.  The query scans the
        candidates and changes nothing, so asking twice gives the same slot
        until the caller re-stamps, moves or evicts it.  Raises
        NoCandidateError when no slot qualifies.
        """
        by_owner = self.occupied.get(region, {})
        if owner is None:
            slots = chain.from_iterable(by_owner.values())
        else:
            slots = by_owner.get(owner, ())
        victim = min(slots, key=self.stamps.__getitem__, default=None)
        if victim is None:
            raise NoCandidateError(f"no occupied slot in {region!r} for owner {owner!r}")
        return victim

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
        self.occupied[region][key[0]].remove(idx)
        self.keys[idx] = None
        self.free_slots[region].append(idx)

    def swap(self, i: int, j: int) -> None:
        """Exchange the contents of two occupied slots, metadata included."""
        if self.keys[i] is None or self.keys[j] is None:
            raise CacheError("swap requires two occupied slots")
        ri, rj = self.regions[i], self.regions[j]
        oi, oj = self.keys[i][0], self.keys[j][0]
        if oi != oj:
            self.occupied[ri][oi].remove(i)
            self.occupied[rj][oj].remove(j)
            self._slots(ri, oj).add(i)
            self._slots(rj, oi).add(j)
        self.keys[i], self.keys[j] = self.keys[j], self.keys[i]
        self.stamps[i], self.stamps[j] = self.stamps[j], self.stamps[i]
        self.key_index[self.keys[i]] = i
        self.key_index[self.keys[j]] = j

    # -- queries -----------------------------------------------------------

    def owned(self, tenant) -> tuple[int, int]:
        """(dc_slots, sc_slots) currently occupied by tenant, in any DC region and in SC."""
        dc = sum(len(by_owner.get(tenant, ())) for r, by_owner in self.occupied.items() if r != SC)
        return dc, len(self.occupied[SC].get(tenant, ()))

    def sc_owners(self) -> list:
        """Tenants currently owning at least one SC slot."""
        return [t for t, slots in self.occupied[SC].items() if slots]

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
