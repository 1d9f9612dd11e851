"""Tenant-aware insertion policies: max-min fair sharing, selfish sharing, and
the hybrid dedicated/shared (DC/SC) insertion flow.

Victim selection always targets the tenant with the largest gap between its
measured hit rate and its soft requirement.  Selfish mode additionally lets a
tenant refuse to donate when a linear-regression forecast says losing slots
would push it below its requirement.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .cache_core import (
    LRU,
    SC,
    SC_HIT,
    SC_INSERTED,
    InsertOutcome,
    NoCandidateError,
    SlotStore,
    UnknownTenantError,
    dc_region,
    static_insert,
)

INF = float("inf")

FAIR = "fair"
SELFISH = "selfish"

DEFAULT_LOSS_HORIZON = 100
DEFAULT_HISTORY_LEN = 20


@dataclass(frozen=True)
class SharingStrategy:
    mode: str = FAIR
    loss_horizon: int = DEFAULT_LOSS_HORIZON
    history_len: int = DEFAULT_HISTORY_LEN

    def __post_init__(self):
        if self.mode not in (FAIR, SELFISH):
            raise ValueError(f"unknown sharing mode {self.mode!r}")
        if self.loss_horizon < 1:
            raise ValueError("loss_horizon must be >= 1")
        if self.history_len < 2:
            raise ValueError("history_len must be >= 2")


@dataclass
class TenantShareState:
    """Slot-usage history a tenant consults before agreeing to donate space."""

    owned_dc_slots: int = 0
    owned_sc_slots: int = 0
    history: deque = field(default_factory=lambda: deque(maxlen=DEFAULT_HISTORY_LEN))

    @property
    def owned_total(self) -> int:
        return self.owned_dc_slots + self.owned_sc_slots

    def observe(self, dc_slots: int, sc_slots: int, hit_rate: float) -> None:
        """Record one (total slots, smoothed hit rate) sample at a window boundary."""
        self.owned_dc_slots = dc_slots
        self.owned_sc_slots = sc_slots
        self.history.append((dc_slots + sc_slots, hit_rate))


def select_victim_tenant(gaps: Mapping, candidates: Iterable) -> object:
    """Candidate with the largest gap; ties broken by smallest tenant id."""
    best = None
    best_gap = None
    for k in sorted(candidates):
        g = gaps[k]
        if best_gap is None or g > best_gap:
            best, best_gap = k, g
    if best is None:
        raise NoCandidateError("no victim candidates")
    return best


def predict_hit_rate(history: Iterable[tuple], slots: float) -> float:
    """Ordinary least squares of hit rate against owned slots, evaluated at slots.

    Degenerate histories (all slot counts equal) fall back to the mean rate.
    """
    points = list(history)
    n = len(points)
    if n == 0:
        raise ValueError("history is empty")
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    sxx = sum(p[0] * p[0] for p in points)
    sxy = sum(p[0] * p[1] for p in points)
    denom = n * sxx - sx * sx
    if denom == 0:
        return sy / n
    b = (n * sxy - sx * sy) / denom
    a = (sy - b * sx) / n
    return a + b * slots


def selfish_eligible(
    state: TenantShareState,
    ewma: float | None,
    soft: float,
    strategy: SharingStrategy,
) -> bool:
    """Would this tenant still meet its soft level after losing loss_horizon slots?

    With fewer than two history points there is no regression basis, so the
    tenant refuses only when its current smoothed rate is already below soft.
    """
    if len(state.history) < 2:
        return (ewma if ewma is not None else 0.0) >= soft
    predicted = predict_hit_rate(state.history, state.owned_total - strategy.loss_horizon)
    return predicted >= soft


def selfish_select_victim(
    gaps: Mapping,
    owners: Iterable,
    requester,
    eligible: Mapping | Callable = (),
) -> object:
    """Victim under selfish sharing, restricted to tenants owning contested slots.

    The candidate pool is every owner with a positive gap that agreed to
    donate (per its regression forecast), always including the requester and
    any departed owner (gap +inf).  If the pool is empty the selection falls
    back to plain max-gap over all owners so insertion always makes progress.
    """
    owners = list(owners)
    if callable(eligible):
        is_ok = eligible
    else:
        table = dict(eligible)
        is_ok = lambda k: table.get(k, True)
    pool = [
        k
        for k in owners
        if k == requester or gaps[k] == INF or (gaps[k] > 0 and is_ok(k))
    ]
    if pool:
        return select_victim_tenant(gaps, pool)
    return select_victim_tenant(gaps, owners)


def _pick_sc_victim(
    store: SlotStore,
    gaps: Mapping,
    requester,
    strategy: SharingStrategy | None,
    eligible,
) -> object:
    owners = store.sc_owners()
    if strategy is not None and strategy.mode == SELFISH:
        return selfish_select_victim(gaps, owners, requester, eligible)
    return select_victim_tenant(gaps, owners)


def maxmin_insert(
    store: SlotStore,
    key: tuple,
    gaps: Mapping,
    strategy: SharingStrategy | None = None,
    eligible: Mapping | Callable = (),
    policy: str = LRU,
) -> InsertOutcome:
    """Max-min insertion over a fully shared store.

    Hit: return.  Empty slot: plain insert.  Otherwise the tenant with the
    largest gap donates its oldest slot to the requester.
    """
    if store.lookup(key) is not None:
        return SC_HIT
    if store.free_count(SC):
        store.insert_into_empty(key, SC)
        return SC_INSERTED
    j = _pick_sc_victim(store, gaps, key[0], strategy, eligible)
    store.evict_victim(SC, j, policy)
    store.insert_into_empty(key, SC)
    return InsertOutcome("replaced", SC, victim_tenant=j)


def hybrid_insert(
    store: SlotStore,
    key: tuple,
    gaps: Mapping,
    strategy: SharingStrategy | None = None,
    eligible: Mapping | Callable = (),
    policy: str = LRU,
) -> InsertOutcome:
    """Insertion for the dedicated/shared layout.

    Case order: hit in the tenant's DC; insert into an empty DC slot; hit in
    SC (promote by swapping with the DC victim); insert into empty SC then
    promote; finally evict the max-gap owner's oldest SC slot, insert, and
    promote.  Promotion degrades to nothing when the tenant has no DC slots;
    with no SC at all the flow is exactly static caching.
    """
    tenant = key[0]
    layout = store.layout
    if tenant not in layout.dc_sizes:
        raise UnknownTenantError(f"tenant {tenant!r} has no DC entry in the layout")
    if layout.sc_size == 0:
        return static_insert(store, key, policy)
    dcr = dc_region(tenant)
    has_dc = layout.dc_sizes[tenant] > 0

    found = store.lookup(key)
    if found is not None:
        region, idx = found
        if region == dcr:
            return InsertOutcome("hit", dcr)
        if has_dc:
            victim_idx = store.select_victim(dcr, tenant, policy)
            store.swap(idx, victim_idx)
        return SC_HIT

    if store.free_count(dcr) > 0:
        store.insert_into_empty(key, dcr)
        return InsertOutcome("inserted", dcr)

    victim_tenant = None
    if not store.free_count(SC):
        victim_tenant = _pick_sc_victim(store, gaps, tenant, strategy, eligible)
        store.evict_victim(SC, victim_tenant, policy)
    idx = store.insert_into_empty(key, SC)
    if has_dc:
        victim_idx = store.select_victim(dcr, tenant, policy)
        store.swap(idx, victim_idx)
    if victim_tenant is None:
        return SC_INSERTED
    return InsertOutcome("replaced", SC, victim_tenant=victim_tenant)
