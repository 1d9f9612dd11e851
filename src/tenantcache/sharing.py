"""Tenant-aware insertion policies: max-min fair sharing, selfish sharing, and
the hybrid dedicated/shared (DC/SC) insertion flow.

Victim selection always targets the tenant with the largest gap between its
measured hit rate and its soft requirement.  Selfish sharing additionally lets a
tenant refuse to donate when a linear-regression forecast says losing slots
would push it below its requirement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cache_core import (
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

DEFAULT_LOSS_HORIZON = 100
DEFAULT_HISTORY_LEN = 20


@dataclass(frozen=True)
class SharingStrategy:
    loss_horizon: int = DEFAULT_LOSS_HORIZON
    history_len: int = DEFAULT_HISTORY_LEN

    def __post_init__(self):
        if self.loss_horizon < 1:
            raise ValueError("loss_horizon must be >= 1")
        if self.history_len < 2:
            raise ValueError("history_len must be >= 2")


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
    owners = list(owners)
    pool = [
        k
        for k in owners
        if k == requester or gaps[k] == INF or (gaps[k] > 0 and eligible.get(k, True))
    ]
    if pool:
        return select_victim_tenant(gaps, pool)
    return select_victim_tenant(gaps, owners)


def _pick_sc_victim(store: SlotStore, gaps: Mapping, requester, eligible: Mapping | None) -> object:
    owners = store.sc_owners()
    if eligible is None:
        return select_victim_tenant(gaps, owners)
    return selfish_select_victim(gaps, owners, requester, eligible)


def maxmin_insert(
    store: SlotStore,
    key: tuple,
    gaps: Mapping,
    eligible: Mapping | None = None,
) -> InsertOutcome:
    """Max-min insertion over a fully shared store.

    Hit: return.  Empty slot: plain insert.  Otherwise the tenant with the
    largest gap donates its oldest slot to the requester; with eligible (the
    selfish donors' answers) the choice is selfish_select_victim's instead.
    """
    if store.lookup(key) is not None:
        return SC_HIT
    if store.free_count(SC):
        store.insert_into_empty(key, SC)
        return SC_INSERTED
    j = _pick_sc_victim(store, gaps, key[0], eligible)
    store.evict_victim(SC, j)
    store.insert_into_empty(key, SC)
    return InsertOutcome("replaced", SC, victim_tenant=j)


def hybrid_insert(
    store: SlotStore,
    key: tuple,
    gaps: Mapping,
    eligible: Mapping | None = None,
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
        return static_insert(store, key)
    dcr = dc_region(tenant)
    has_dc = layout.dc_sizes[tenant] > 0

    found = store.lookup(key)
    if found is not None:
        region, idx = found
        if region == dcr:
            return InsertOutcome("hit", dcr)
        if has_dc:
            victim_idx = store.select_victim(dcr, tenant)
            store.swap(idx, victim_idx)
        return SC_HIT

    if store.free_count(dcr) > 0:
        store.insert_into_empty(key, dcr)
        return InsertOutcome("inserted", dcr)

    victim_tenant = None
    if not store.free_count(SC):
        victim_tenant = _pick_sc_victim(store, gaps, tenant, eligible)
        store.evict_victim(SC, victim_tenant)
    idx = store.insert_into_empty(key, SC)
    if has_dc:
        victim_idx = store.select_victim(dcr, tenant)
        store.swap(idx, victim_idx)
    if victim_tenant is None:
        return SC_INSERTED
    return InsertOutcome("replaced", SC, victim_tenant=victim_tenant)
