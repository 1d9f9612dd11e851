import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenantcache.metrics import (
    HitRateTracker,
    MetricsError,
    Requirement,
    check_objectives,
    ewma_update,
    gap_report,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestEwmaUpdate:
    def test_direct_formula(self):
        assert ewma_update(0.5, 0.6, 0.125) == pytest.approx(0.5125)

    def test_initialization_adopts_first_observation(self):
        assert ewma_update(None, 0.42) == 0.42

    @given(x=unit)
    def test_fixed_point(self, x):
        assert ewma_update(x, x, 0.125) == pytest.approx(x)

    @given(prev=unit, obs=unit, weight=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100)
    def test_bounded_between_inputs(self, prev, obs, weight):
        out = ewma_update(prev, obs, weight)
        assert min(prev, obs) - 1e-12 <= out <= max(prev, obs) + 1e-12

    @pytest.mark.parametrize("weight", [0.0, -0.1, 1.5])
    def test_bad_weight(self, weight):
        with pytest.raises(MetricsError):
            ewma_update(0.5, 0.5, weight)

    def test_convergence_rate(self):
        # |ewma - c| <= (1-w)^k |initial - c| on a constant stream
        w, c, initial = 0.125, 0.9, 0.1
        ewma = initial
        for k in range(1, 30):
            ewma = ewma_update(ewma, c, w)
            assert abs(ewma - c) <= (1 - w) ** k * abs(initial - c) + 1e-12


class TestHitRateTracker:
    def test_window_completion_rate(self):
        t = HitRateTracker(window_length=4)
        assert t.record_access(True) is None
        assert t.record_access(True) is None
        assert t.record_access(False) is None
        assert t.record_access(False) == pytest.approx(0.5)
        assert t.ewma == pytest.approx(0.5)

    def test_incomplete_window_gives_no_signal(self):
        t = HitRateTracker(window_length=4)
        for _ in range(3):
            assert t.record_access(True) is None
        assert t.ewma is None

    def test_two_all_hit_windows_converge_to_one(self):
        t = HitRateTracker(window_length=4)
        for _ in range(8):
            t.record_access(True)
        assert t.ewma == 1.0

    def test_window_resets(self):
        t = HitRateTracker(window_length=2)
        t.record_access(True)
        t.record_access(True)
        assert t.window_accesses == 0
        assert t.window_hits == 0

    def test_hit_rate_defaults_to_zero(self):
        assert HitRateTracker().hit_rate == 0.0

    @given(hits=st.lists(st.booleans(), min_size=1, max_size=400))
    @settings(max_examples=50)
    def test_rate_always_in_unit_interval(self, hits):
        t = HitRateTracker(window_length=7)
        for h in hits:
            t.record_access(h)
            assert 0.0 <= t.hit_rate <= 1.0
            assert t.window_hits <= t.window_accesses <= t.window_length

    def test_equal_window_rates_are_one_object(self):
        # sample records keep the window rates, so equal rates share one float
        a, b = HitRateTracker(window_length=4), HitRateTracker(window_length=4)
        rates = [t.record_access(h) for t in (a, b) for h in (True, False, True, False)]
        assert rates[3] == rates[7] == 0.5
        assert rates[3] is rates[7]


class TestRequirement:
    def test_hard_must_not_exceed_soft(self):
        with pytest.raises(MetricsError):
            Requirement(hard=0.8, soft=0.5)

    def test_single_level_defaults(self):
        r = Requirement(soft=0.6)
        assert r.hard == 0.0


class TestGapReport:
    def test_minus_five_percent_case(self):
        rep = gap_report({1: 0.80, 2: 0.65}, {1: 0.70, 2: 0.70}, [1, 2])
        assert rep.per_tenant_gap[1] == pytest.approx(0.10)
        assert rep.per_tenant_gap[2] == pytest.approx(-0.05)
        assert rep.min_gap == pytest.approx(-0.05)

    def test_zero_gap_case(self):
        rep = gap_report({1: 0.72, 2: 0.70}, {1: 0.70, 2: 0.70}, [1, 2])
        assert rep.min_gap == pytest.approx(0.0)

    def test_single_tenant(self):
        assert gap_report({1: 0.5}, {1: 0.5}, [1]).min_gap == 0.0

    def test_empty_active_set(self):
        with pytest.raises(MetricsError):
            gap_report({}, {}, [])

    @given(
        h1=unit, h2=unit, bump=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=100)
    def test_raising_one_rate_never_decreases_min_gap(self, h1, h2, bump):
        softs = {1: 0.6, 2: 0.6}
        before = gap_report({1: h1, 2: h2}, softs, [1, 2]).min_gap
        after = gap_report({1: min(1.0, h1 + bump), 2: h2}, softs, [1, 2]).min_gap
        assert after >= before - 1e-12


class TestCheckObjectives:
    def test_below_hard_flagged(self):
        flags, _ = check_objectives({1: 0.39}, {1: Requirement(0.40, 0.40)}, [1])
        assert flags[1] is True

    def test_boundary_satisfies(self):
        flags, _ = check_objectives({1: 0.40}, {1: Requirement(0.40, 0.40)}, [1])
        assert flags[1] is False

    def test_combined_example(self):
        reqs = {1: Requirement(0.3, 0.6), 2: Requirement(0.3, 0.6)}
        flags, g = check_objectives({1: 0.5, 2: 0.9}, reqs, [1, 2])
        assert flags == {1: False, 2: False}
        assert g == pytest.approx(-0.1)
