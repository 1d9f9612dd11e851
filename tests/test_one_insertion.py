"""The one insertion algorithm against the four insert functions it replaced.

Below are global_insert, static_insert, maxmin_insert and hybrid_insert as
they stood when each policy had its own function, copied verbatim.  For each
policy, on the layouts that policy accepts, sharing's single hybrid_insert
must give the same outcome and leave the same store after every access.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from tenantcache import sharing
from tenantcache.cache_core import (
    FCFS,
    LRU,
    SC,
    Key,
    Region,
    RegionLayout,
    SlotStore,
    UnknownTenantError,
    dc_region,
)
from tenantcache.sharing import INF, rank_donors, select_victim_tenant, selfish_select_victim

# -- the reference: the four insert functions, verbatim ----------------------


@dataclass(frozen=True)
class InsertOutcome:
    """What a policy's insert operation did with one access."""

    kind: str  # "hit" | "inserted" | "replaced"
    region: Region | None = None
    victim_tenant: object = None


SC_HIT = InsertOutcome("hit", SC)
SC_INSERTED = InsertOutcome("inserted", SC)


def global_insert(store: SlotStore, key: Key) -> InsertOutcome:
    """Tenant-unaware replacement over the whole (all-SC) store."""
    if store.lookup(key) is not None:
        return SC_HIT
    if store.free_count(SC):
        store.insert_into_empty(key, SC)
        return SC_INSERTED
    idx = store.select_victim(SC)
    victim = store.keys[idx][0]
    store.evict(idx)
    store.insert_into_empty(key, SC)
    return InsertOutcome("replaced", SC, victim_tenant=victim)


def static_insert(store: SlotStore, key: Key) -> InsertOutcome:
    """Replacement confined to the tenant's own partition."""
    tenant = key[0]
    region = dc_region(tenant)
    if tenant not in store.layout.dc_sizes:
        raise UnknownTenantError(f"tenant {tenant!r} has no partition")
    if store.lookup(key) is not None:
        return InsertOutcome("hit", region)
    if store.free_count(region):
        store.insert_into_empty(key, region)
        return InsertOutcome("inserted", region)
    store.evict_victim(region, tenant)
    store.insert_into_empty(key, region)
    return InsertOutcome("replaced", region, victim_tenant=tenant)


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


# -- the comparison ------------------------------------------------------------

GAP_VALUES = [-0.5, -0.1, 0.0, 0.1, 0.5, INF]


@st.composite
def layouts(draw, policy, tenants):
    """A layout the policy accepts: all-SC, all-DC with every tenant >= 1, or DC + SC."""
    if policy in ("global", "maxmin"):
        listed = draw(st.lists(st.sampled_from(tenants), unique=True))
        return RegionLayout({t: 0 for t in listed}, draw(st.integers(1, 10)))
    if policy == "static":
        return RegionLayout({t: draw(st.integers(1, 4)) for t in tenants}, 0)
    return RegionLayout({t: draw(st.integers(0, 3)) for t in tenants}, draw(st.integers(1, 8)))


@st.composite
def cases(draw):
    policy = draw(st.sampled_from(["global", "static", "maxmin", "hybrid"]))
    tenants = list(range(1, draw(st.integers(1, 4)) + 1))
    layout = draw(layouts(policy, tenants))
    replacement = draw(st.sampled_from([LRU, FCFS]))
    selfish = draw(st.booleans())
    # each access: tenant, item, and optionally a new (gap, donor answer) for one tenant
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(tenants),
                st.integers(0, 9),
                st.none()
                | st.tuples(st.sampled_from(tenants), st.sampled_from(GAP_VALUES), st.booleans()),
            ),
            min_size=10,
            max_size=120,
        )
    )
    gaps = {t: draw(st.sampled_from(GAP_VALUES)) for t in tenants}
    eligible = {t: draw(st.booleans()) for t in tenants} if selfish else None
    return policy, layout, replacement, gaps, eligible, steps


REFERENCE = {
    "global": global_insert,
    "static": static_insert,
    "maxmin": maxmin_insert,
    "hybrid": hybrid_insert,
}
UNIFIED = {
    "global": sharing.global_insert,
    "static": sharing.static_insert,
    "maxmin": sharing.maxmin_insert,
    "hybrid": sharing.hybrid_insert,
}


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_one_algorithm_matches_the_four_it_replaced(case):
    policy, layout, replacement, gaps, eligible, steps = case
    old_store = SlotStore(layout, replacement)
    new_store = SlotStore(layout, replacement)
    old, new = REFERENCE[policy], UNIFIED[policy]
    ranked = policy not in ("global", "static")
    for tenant, item, regap in steps:
        if regap is not None:
            k, gap, answer = regap
            gaps[k] = gap
            if eligible is not None:
                eligible[k] = answer
        key = (tenant, item)
        if ranked:
            want = old(old_store, key, gaps, eligible)
            got = new(new_store, key, rank_donors(gaps, eligible))
        else:
            want, got = old(old_store, key), new(new_store, key)
        assert (got.kind, got.region, got.victim_tenant) == (
            want.kind,
            want.region,
            want.victim_tenant,
        )
        assert new_store.dump() == old_store.dump()


def test_the_four_names_are_one_function():
    assert (
        sharing.global_insert
        is sharing.static_insert
        is sharing.maxmin_insert
        is sharing.hybrid_insert
    )
