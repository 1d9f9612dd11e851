"""sharing.Donors: the one donor account of run_scenario's driver and the
LRU probe loop.  Its rule is held to the drivers bit for bit by the golden
and counted-probe tests; these pin each event on its own."""
from __future__ import annotations

from tenantcache.sharing import INF, Donors, SharingStrategy, rank_donors, selfish_eligible

SOFTS = {1: 0.5, 2: 0.4, 3: 0.3}


def donors(selfish=True, ranked=True, **strategy):
    return Donors(SOFTS, SharingStrategy(**strategy), selfish, ranked)


def test_a_departed_tenant_gets_gap_inf_and_volunteers():
    d = donors()
    d.change({1, 2}, lambda k: 0.1)  # both below soft: neither volunteers
    assert d.ranking.volunteers == frozenset()
    ranking = d.change({2}, lambda k: 0.1)
    assert d.gaps[1] == INF
    assert ranking.order[0] == 1 and 1 in ranking.volunteers
    assert d.active == {2}


def test_an_arrival_is_refreshed_with_its_own_rate_and_no_other_tenant_is():
    d = donors()
    d.change({1}, {1: 0.9}.__getitem__)
    asked = []

    def rate(k):
        asked.append(k)
        return {2: 0.7, 3: 0.2}[k]

    d.change({1, 2, 3}, rate)
    assert sorted(asked) == [2, 3]
    assert d.gaps == {1: 0.9 - 0.5, 2: 0.7 - 0.4, 3: 0.2 - 0.3}
    assert d.answers == {1: True, 2: True, 3: False}  # no history: rate >= soft


def test_unranked_the_ranking_is_none_but_gaps_are_kept():
    d = donors(selfish=False, ranked=False)
    assert d.ranking is None and d.answers is None
    assert d.change({1, 2}, lambda k: 0.6) is None
    assert d.closed(2, 10, 0.8) is None
    assert d.change({2}, lambda k: 0.0) is None
    assert d.gaps == {1: INF, 2: 0.8 - 0.4}
    assert list(d.histories[2]) == [(10, 0.8)]


def test_selfish_answers_come_from_a_history_capped_at_history_len():
    d = donors(history_len=3, loss_horizon=30)
    d.change({1}, lambda k: 0.0)
    points = [(10, 1.0), (20, 0.2), (30, 0.4), (40, 0.6)]
    for slots, rate in points:
        d.closed(1, slots, rate)
    strategy = SharingStrategy(history_len=3, loss_horizon=30)
    assert list(d.histories[1]) == points[1:]
    # at 40 - 30 slots the last three points forecast 0.0, below soft 0.5; all four, 0.7
    assert d.answers[1] is selfish_eligible(points[1:], 0.6, 0.5, strategy) is False
    assert selfish_eligible(points, 0.6, 0.5, strategy) is True
    assert 1 not in d.ranking.volunteers


def test_fair_sharing_keeps_no_answers():
    d = donors(selfish=False)
    d.change({1, 2}, lambda k: 0.9)
    d.closed(1, 5, 0.7)
    assert d.answers is None and d.ranking.volunteers is None


def test_the_ranking_is_rebuilt_after_every_event():
    d = donors()
    assert d.ranking == rank_donors({}, {})
    events = [
        lambda: d.change({1, 2}, {1: 0.9, 2: 0.5}.__getitem__),
        lambda: d.closed(2, 8, 0.95),  # tenant 2's gap passes tenant 1's
        lambda: d.closed(1, 12, 0.2),
        lambda: d.change({1, 2, 3}, lambda k: 0.6),
        lambda: d.change({3}, lambda k: 0.0),
    ]
    orders = []
    for event in events:
        ranking = event()
        assert ranking is d.ranking
        assert ranking == rank_donors(d.gaps, d.answers)
        orders.append(ranking.order)
    assert orders == [(1, 2), (2, 1), (2, 1), (2, 3, 1), (1, 2, 3)]
