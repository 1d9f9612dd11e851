"""The donor rule, ranked once per gap change, against the per-miss scans it replaced.

oracle_select_victim_tenant and oracle_selfish_select_victim below are
select_victim_tenant and selfish_select_victim as they stood when every SC
replacement listed the SC owners and scanned them, copied verbatim.  A walk
of rank_donors' order (pick_donor) must choose the same donor, and the two
public selectors, now written over rank_donors, must keep their results.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenantcache.cache_core import NoCandidateError
from tenantcache.sharing import (
    INF,
    pick_donor,
    rank_donors,
    select_victim_tenant,
    selfish_select_victim,
)

# -- the oracle: the per-miss scans, verbatim ---------------------------------


def oracle_select_victim_tenant(gaps: Mapping, candidates: Iterable) -> object:
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


def oracle_selfish_select_victim(
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
        return oracle_select_victim_tenant(gaps, pool)
    return oracle_select_victim_tenant(gaps, owners)


# -- the comparison ----------------------------------------------------------

IDS = tuple(range(1, 9))
# ties, zeros of both signs and departed tenants (+inf) come up often
gap_values = st.sampled_from((-0.5, -0.1, -0.0, 0.0, 0.1, 0.3, INF)) | st.floats(
    -1, 1, allow_nan=False
)
gap_maps = st.dictionaries(st.sampled_from(IDS), gap_values, max_size=len(IDS))
# answers for some tenants only: a missing one counts as agreeing
answers = st.dictionaries(st.sampled_from(IDS), st.booleans())
# the requester may own no SC slot, or be no ranked tenant at all
requesters = st.sampled_from(IDS + (99,))


def result(choose, *args):
    """The chosen donor, or the type of what the choice raised."""
    try:
        return choose(*args)
    except (KeyError, NoCandidateError) as exc:
        return type(exc)


@st.composite
def holdings(draw):
    """Gaps, and SC slot counts for some of the gapped tenants (zeros kept)."""
    gaps = draw(gap_maps)
    counts = {k: draw(st.none() | st.integers(0, 2)) for k in sorted(gaps)}
    return gaps, {k: n for k, n in counts.items() if n is not None}


@settings(max_examples=500, deadline=None)
@given(holdings(), requesters, st.none() | answers)
# two departed tenants and a tie at zero, fair and selfish
@example(({1: INF, 2: INF, 3: 0.0, 4: 0.0}, {2: 1, 3: 1, 4: 2}), 4, None)
@example(({1: INF, 2: INF, 3: 0.0, 4: 0.0}, {2: 1, 3: 1, 4: 2}), 4, {})
# an empty selfish pool: everyone refuses or has no positive gap, and the
# requester owns nothing, so the plain max-gap owner donates
@example(({1: -0.2, 2: 0.3, 3: -0.1}, {1: 1, 2: 2, 3: 1}), 5, {2: False})
# nobody owns anything
@example(({1: 0.1}, {1: 0}), 1, {})
def test_ranking_pick_matches_the_per_miss_scans(holding, requester, eligible):
    gaps, owns = holding
    owners = [k for k, n in owns.items() if n > 0]
    if eligible is None:
        expected = result(oracle_select_victim_tenant, gaps, owners)
    else:
        expected = result(oracle_selfish_select_victim, gaps, owners, requester, eligible)
    assert result(pick_donor, rank_donors(gaps, eligible), owns, requester) == expected


@settings(max_examples=500, deadline=None)
@given(gap_maps, st.lists(st.sampled_from(IDS), max_size=10), requesters, answers)
# a candidate with no gap
@example({1: 0.1}, [1, 2], 1, {})
@example({1: 0.1}, [2, 1], 3, {1: True})
# the requester owns a slot but has no gap
@example({1: -0.1}, [1, 2], 2, {})
def test_selectors_keep_their_results(gaps, candidates, requester, eligible):
    assert result(select_victim_tenant, gaps, candidates) == result(
        oracle_select_victim_tenant, gaps, candidates
    )
    assert result(selfish_select_victim, gaps, candidates, requester, eligible) == result(
        oracle_selfish_select_victim, gaps, candidates, requester, eligible
    )


def test_candidate_without_a_gap_raises_key_error():
    with pytest.raises(KeyError):
        select_victim_tenant({1: 0.1}, [1, 2])
    with pytest.raises(KeyError):
        selfish_select_victim({1: 0.1}, [1, 2], requester=1, eligible={})


def test_ranking_order_and_volunteers():
    ranking = rank_donors({3: 0.2, 1: -0.1, 2: 0.2, 4: INF, 5: 0.5}, {5: False, 2: True})
    assert ranking.order == (4, 5, 2, 3, 1)
    assert ranking.volunteers == {4, 2, 3}
    assert rank_donors({1: 0.0}).volunteers is None
