import collections
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenantcache.workload import (
    MAX_UNIVERSE,
    MAX_WEIGHT_SUM,
    AccessEvent,
    TenantWorkload,
    WorkloadError,
    WorkloadPhase,
    activation_timeline,
    generate_stream,
    read_trace,
    write_trace,
    zipf_pmf,
)


class TestZipfPmf:
    def test_alpha_zero_is_uniform(self):
        assert np.allclose(zipf_pmf(4, 0.0), [0.25, 0.25, 0.25, 0.25])

    def test_two_ranks_alpha_one(self):
        # harmonic normalization: 1/(1+1/2), 0.5/(1+1/2)
        assert np.allclose(zipf_pmf(2, 1.0), [2 / 3, 1 / 3])

    def test_three_ranks_alpha_one(self):
        # H = 1 + 1/2 + 1/3 = 11/6
        assert np.allclose(zipf_pmf(3, 1.0), [6 / 11, 3 / 11, 2 / 11])

    def test_empty_universe_rejected(self):
        with pytest.raises(WorkloadError):
            zipf_pmf(0, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(WorkloadError):
            zipf_pmf(10, -0.1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(WorkloadError):
            zipf_pmf(10, alpha)
        with pytest.raises(WorkloadError):
            WorkloadPhase(alpha=alpha)

    @given(
        n=st.integers(min_value=1, max_value=2000),
        alpha=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_and_nonincreasing(self, n, alpha):
        pmf = zipf_pmf(n, alpha)
        assert abs(pmf.sum() - 1.0) < 1e-9
        assert np.all(np.diff(pmf) <= 1e-15)


def two_tenants(**kw2):
    return [
        TenantWorkload(tenant_id=1, universe_size=100),
        TenantWorkload(tenant_id=2, universe_size=100, **kw2),
    ]


class TestGenerateStream:
    def test_equal_weights_alternate(self):
        order = [e.tenant_id for e in generate_stream(two_tenants(), 6, seed=0)]
        assert order == [1, 2, 1, 2, 1, 2]

    def test_five_to_one_weighting(self):
        ws = [
            TenantWorkload(tenant_id=1, universe_size=100, weight=5),
            TenantWorkload(tenant_id=2, universe_size=100, weight=1),
        ]
        order = [e.tenant_id for e in generate_stream(ws, 12, seed=0)]
        assert order == [1, 1, 1, 1, 1, 2] * 2

    def test_arrival_mid_stream(self):
        order = [e.tenant_id for e in generate_stream(two_tenants(active_from=4), 8, seed=0)]
        assert order == [1, 1, 1, 1, 2, 1, 2, 1]

    def test_departure_removes_tenant(self):
        ws = [
            TenantWorkload(tenant_id=1, universe_size=100),
            TenantWorkload(tenant_id=2, universe_size=100, active_until=4),
        ]
        order = [e.tenant_id for e in generate_stream(ws, 8, seed=0)]
        assert order[:4] == [1, 2, 1, 2]
        assert order[4:] == [1, 1, 1, 1]

    def test_determinism(self):
        a = list(generate_stream(two_tenants(), 5_000, seed=9))
        b = list(generate_stream(two_tenants(), 5_000, seed=9))
        assert a == b

    def test_txn_strictly_increasing(self):
        txns = [e.txn for e in generate_stream(two_tenants(), 100, seed=1)]
        assert txns == list(range(100))

    def test_adding_tenant_preserves_item_sequences(self):
        solo = [e.item for e in generate_stream(
            [TenantWorkload(tenant_id=1, universe_size=1000)], 200, seed=5)]
        both = [
            e.item
            for e in generate_stream(
                [
                    TenantWorkload(tenant_id=1, universe_size=1000),
                    TenantWorkload(tenant_id=2, universe_size=1000),
                ],
                400,
                seed=5,
            )
            if e.tenant_id == 1
        ]
        assert solo == both

    def test_weighted_fairness_over_window(self):
        ws = [
            TenantWorkload(tenant_id=1, universe_size=10, weight=3),
            TenantWorkload(tenant_id=2, universe_size=10, weight=2),
        ]
        order = [e.tenant_id for e in generate_stream(ws, 500, seed=0)]
        counts = collections.Counter(order)
        assert abs(counts[1] - 300) <= 5  # one cycle's worth
        assert abs(counts[2] - 200) <= 5

    def test_marginal_distribution_matches_pmf(self):
        n = 500
        w = TenantWorkload(tenant_id=1, universe_size=n, phases=(WorkloadPhase(0.9),))
        items = [e.item for e in generate_stream([w], 100_000, seed=3)]
        counts = collections.Counter(items)
        pmf = zipf_pmf(n, 0.9)
        for rank in range(10):
            assert abs(counts[rank] / len(items) - pmf[rank]) < 0.01

    def test_phase_switch_changes_distribution(self):
        w = TenantWorkload(
            tenant_id=1,
            universe_size=1000,
            phases=(WorkloadPhase(alpha=2.0, start_txn=0), WorkloadPhase(alpha=0.0, start_txn=5000)),
        )
        events = list(generate_stream([w], 10_000, seed=11))
        first = [e.item for e in events[:5000]]
        second = [e.item for e in events[5000:]]
        # skewed phase concentrates on low ranks; uniform phase does not
        assert sum(1 for i in first if i < 10) / len(first) > 0.8
        assert sum(1 for i in second if i < 10) / len(second) < 0.1

    def test_item_range(self):
        w = TenantWorkload(tenant_id=1, universe_size=7)
        items = {e.item for e in generate_stream([w], 2000, seed=0)}
        assert items <= set(range(7))

    def test_no_workloads_rejected(self):
        with pytest.raises(WorkloadError):
            list(generate_stream([], 10, seed=0))


def active_at(timeline, txn):
    """The timeline's active set at txn: its last entry at or before txn."""
    return [ids for t, _, ids in timeline if t <= txn][-1]


class TestActivationTimeline:
    def test_always_active(self):
        assert activation_timeline(two_tenants(), 10) == [(0, 0, (1, 2))]

    def test_arrival_and_departure(self):
        timeline = activation_timeline(two_tenants(active_from=4, active_until=6), 10)
        assert timeline == [(0, 0, (1,)), (4, 0, (1, 2)), (6, 0, (1,))]

    def test_idle_stretch_moves_skew(self):
        ws = [
            TenantWorkload(tenant_id=1, universe_size=10, active_until=100),
            TenantWorkload(tenant_id=2, universe_size=10, active_from=500),
        ]
        assert activation_timeline(ws, 300) == [(0, 0, (1,)), (100, 0, ()), (100, 400, (2,))]

    def test_late_first_arrival(self):
        ws = [TenantWorkload(tenant_id=1, universe_size=10, active_from=100)]
        assert activation_timeline(ws, 50) == [(0, 0, ()), (0, 100, (1,))]

    def test_early_end(self):
        ws = [TenantWorkload(tenant_id=1, universe_size=10, active_until=100)]
        assert activation_timeline(ws, 300) == [(0, 0, (1,)), (100, 0, ())]

    def test_changes_past_the_stream_dropped(self):
        assert activation_timeline(two_tenants(active_from=50), 10) == [(0, 0, (1,))]
        assert activation_timeline(two_tenants(), 0) == []

    @settings(max_examples=60, deadline=None)
    @given(
        windows=st.lists(
            st.tuples(st.integers(0, 120), st.none() | st.integers(1, 80), st.integers(1, 3)),
            min_size=1,
            max_size=4,
        ),
        total=st.integers(0, 200),
    )
    def test_stream_follows_timeline(self, windows, total):
        ws = [
            TenantWorkload(
                tenant_id=i,
                universe_size=5,
                active_from=start,
                active_until=None if span is None else start + span,
                weight=weight,
            )
            for i, (start, span, weight) in enumerate(windows)
        ]
        timeline = activation_timeline(ws, total)
        events = list(generate_stream(ws, total, seed=0))
        ends_early = bool(timeline) and not timeline[-1][2]
        assert len(events) == (timeline[-1][0] if ends_early else total)
        for ev in events:
            assert ev.tenant_id in active_at(timeline, ev.txn)


class TestPrefixConsistency:
    """The first T events of a seed's stream are the same for any length >= T;
    capacity searches replay one stored stream per seed on this fact."""

    @settings(max_examples=80, deadline=None)
    @given(
        windows=st.lists(
            st.tuples(
                st.integers(0, 150),  # arrival
                st.none() | st.integers(1, 100),  # time until departure
                st.integers(1, 3),  # weight
                st.none() | st.integers(1, 200),  # start of a second phase
            ),
            min_size=1,
            max_size=4,
        ),
        lengths=st.tuples(st.integers(0, 400), st.integers(0, 400)),
        seed=st.integers(0, 2**32),
    )
    # an idle stretch between the two tenants, and an early end after the second
    @example(windows=[(0, 100, 1, None), (150, 50, 2, 160)], lengths=(120, 300), seed=0)
    # a late first arrival; the stream ends before the shorter length
    @example(windows=[(40, 30, 1, 50)], lengths=(50, 400), seed=3)
    def test_shorter_stream_is_a_prefix(self, windows, lengths, seed):
        ws = [
            TenantWorkload(
                tenant_id=i,
                universe_size=50,
                phases=(WorkloadPhase(1.0),)
                if switch is None
                else (WorkloadPhase(1.0), WorkloadPhase(0.3, start_txn=switch)),
                active_from=start,
                active_until=None if span is None else start + span,
                weight=weight,
            )
            for i, (start, span, weight, switch) in enumerate(windows)
        ]
        short, long = sorted(lengths)
        prefix = list(generate_stream(ws, short, seed))
        assert prefix == list(generate_stream(ws, long, seed))[:short]

    def test_prefix_across_sampler_batches(self):
        # each tenant draws its uniforms in batches of 8192; cut inside the second
        ws = [
            TenantWorkload(tenant_id=1, universe_size=500,
                           phases=(WorkloadPhase(1.0), WorkloadPhase(0.5, start_txn=12_000))),
            TenantWorkload(tenant_id=2, universe_size=500, active_until=15_000),
        ]
        prefix = list(generate_stream(ws, 19_000, seed=5))
        assert prefix == list(generate_stream(ws, 30_000, seed=5))[:19_000]


class TestValidation:
    def test_bad_universe(self):
        with pytest.raises(WorkloadError):
            TenantWorkload(tenant_id=1, universe_size=0)

    def test_universe_bound(self):
        # the bound caps the dense CDF a stream builds; building a workload allocates none
        assert TenantWorkload(tenant_id=1, universe_size=MAX_UNIVERSE).universe_size == MAX_UNIVERSE
        with pytest.raises(WorkloadError, match="universe_size"):
            TenantWorkload(tenant_id=1, universe_size=MAX_UNIVERSE + 1)

    def test_weight_sum_bound(self):
        # the round-robin numbers its turns in unsigned 64-bit arrays
        ws = [TenantWorkload(tenant_id=1, weight=MAX_WEIGHT_SUM - 2), TenantWorkload(tenant_id=2)]
        assert len(list(generate_stream(ws, 10))) == 10
        for weights in ((2**70,), (2**62, 2**62)):
            ws = [TenantWorkload(tenant_id=i + 1, weight=w) for i, w in enumerate(weights)]
            with pytest.raises(WorkloadError, match="weights"):
                next(generate_stream(ws, 10))

    def test_bad_weight(self):
        with pytest.raises(WorkloadError):
            TenantWorkload(tenant_id=1, weight=0)

    def test_bad_activity_window(self):
        with pytest.raises(WorkloadError):
            TenantWorkload(tenant_id=1, active_from=5, active_until=5)

    def test_phases_must_start_at_zero(self):
        with pytest.raises(WorkloadError):
            TenantWorkload(tenant_id=1, phases=(WorkloadPhase(1.0, start_txn=10),))

    def test_phase_starts_strictly_increasing(self):
        with pytest.raises(WorkloadError):
            TenantWorkload(
                tenant_id=1,
                phases=(WorkloadPhase(1.0, 0), WorkloadPhase(0.8, 100), WorkloadPhase(0.9, 100)),
            )


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        events = list(generate_stream(two_tenants(), 50, seed=2))
        path = str(tmp_path / "trace.txt")
        write_trace(events, path)
        assert read_trace(path) == events

    def test_format(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace([AccessEvent(0, 3, 17)], str(path))
        assert path.read_text() == "0,3,17\n"

    def test_open_handle_used_and_left_open(self):
        events = list(generate_stream(two_tenants(), 20, seed=2))
        buf = io.StringIO()
        write_trace(events, buf)
        assert not buf.closed
        buf.seek(0)
        assert read_trace(buf) == events
        assert not buf.closed
