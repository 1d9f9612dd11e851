"""The donor cursor against the walk it replaces.

Every run engine takes SC slots from donors through a DonorCursor, which
keeps pick_donor's answer current as donations step SC counts between 0
and 1, and places it again when the ranking changes.  pick_donor stays the
rule's definition: at every take the cursor's donor must be pick_donor's
over the same counts, or the same error raised.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenantcache.cache_core import NoCandidateError
from tenantcache.sharing import INF, DonorCursor, DonorRanking, pick_donor, rank_donors

IDS = tuple(range(1, 9))
gap_values = st.sampled_from((-0.5, -0.1, 0.0, 0.1, 0.3, INF))


def result(choose, *args):
    """The chosen donor, or NoCandidateError when the choice raised it."""
    try:
        return choose(*args)
    except NoCandidateError as exc:
        return type(exc)


@st.composite
def rankings(draw, selfish: bool) -> DonorRanking:
    """rank_donors over some of the tenants, so that an owner may be unranked."""
    gaps = draw(st.dictionaries(st.sampled_from(IDS), gap_values, max_size=len(IDS)))
    eligible = draw(st.dictionaries(st.sampled_from(IDS), st.booleans())) if selfish else None
    return rank_donors(gaps, eligible)


# SC as filled before the first donation: a few slots each for some tenants
fills = st.dictionaries(st.sampled_from(IDS), st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), selfish=st.booleans(), filled=fills)
def test_cursor_takes_from_pick_donors_donor(data, selfish, filled):
    """Random rankings and requesters, ranked or not, owning SC or not: each
    take's donor is pick_donor's over the counts before it, and one SC slot
    passes from the donor to the requester, stepping counts between 0 and 1."""
    counts = {k: filled.get(k, 0) for k in IDS}
    cursor = DonorCursor(counts)
    ranking = data.draw(rankings(selfish))
    for _ in range(data.draw(st.integers(1, 60))):
        if data.draw(st.integers(0, 3)) == 0:
            ranking = data.draw(rankings(selfish))
        requester = data.draw(st.sampled_from(IDS))
        before = dict(counts)
        expected = result(pick_donor, ranking, before, requester)
        assert result(cursor.take, ranking, requester) == expected
        if expected is not NoCandidateError and expected != requester:
            before[expected] -= 1
            before[requester] += 1
        assert counts == before


def test_the_last_slot_of_the_first_owner_moves_the_cursor_on():
    counts = {1: 1, 2: 1, 3: 1, 4: 0}
    cursor = DonorCursor(counts)
    ranking = DonorRanking((1, 2, 3), frozenset({1, 3}))
    assert cursor.take(ranking, 4) == 1  # tenant 1 owns nothing now; 4 is not ranked
    assert cursor.take(ranking, 2) == 2  # the requester ranks ahead of volunteer 3
    assert cursor.take(ranking, 1) == 3  # volunteer 3 gives its last slot; 1 owns again
    assert cursor.take(ranking, 4) == 1
    assert counts == {1: 0, 2: 1, 3: 0, 4: 2}
    assert cursor.take(ranking, 4) == 2  # no volunteer owns: the first owner
    with pytest.raises(NoCandidateError):  # no ranked tenant owns anything
        cursor.take(ranking, 4)
