"""Per-job utility function tests (paper §3.1, Fig. 4a)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.utility import SLO, inverse_utility, step_utility, utility_from_slo


class TestStepUtility:
    def test_met(self):
        assert step_utility(0.5, 0.72) == 1.0

    def test_met_exactly(self):
        assert step_utility(0.72, 0.72) == 1.0

    def test_violated(self):
        assert step_utility(0.73, 0.72) == 0.0

    def test_infinite_latency(self):
        assert step_utility(math.inf, 0.72) == 0.0

    def test_invalid_slo(self):
        with pytest.raises(ValueError):
            step_utility(0.1, 0.0)

    def test_negative_latency(self):
        with pytest.raises(ValueError):
            step_utility(-0.1, 1.0)


class TestInverseUtility:
    def test_met_is_one(self):
        assert inverse_utility(0.3, 0.72) == 1.0

    def test_zero_latency(self):
        assert inverse_utility(0.0, 0.72) == 1.0

    def test_violated_is_ratio(self):
        assert inverse_utility(1.44, 0.72) == pytest.approx(0.5)

    def test_alpha_sharpens(self):
        # Larger alpha pushes the relaxed utility toward the step function.
        soft = inverse_utility(1.0, 0.72, alpha=1.0)
        sharp = inverse_utility(1.0, 0.72, alpha=100.0)
        assert sharp < soft
        assert sharp == pytest.approx(step_utility(1.0, 0.72), abs=1e-10)

    def test_infinite_latency_zero(self):
        assert inverse_utility(math.inf, 0.72) == 0.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            inverse_utility(0.5, 0.72, alpha=0.0)

    @given(
        latency=st.floats(min_value=0.0, max_value=1e6),
        slo=st.floats(min_value=1e-6, max_value=1e3),
        alpha=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_bounded_in_unit_interval(self, latency, slo, alpha):
        value = inverse_utility(latency, slo, alpha=alpha)
        assert 0.0 <= value <= 1.0

    @given(
        slo=st.floats(min_value=0.01, max_value=10.0),
        alpha=st.floats(min_value=0.5, max_value=10.0),
    )
    def test_monotone_nonincreasing_in_latency(self, slo, alpha):
        latencies = [slo * f for f in (0.5, 1.0, 1.5, 2.0, 4.0)]
        values = [inverse_utility(l, slo, alpha=alpha) for l in latencies]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(
        latency=st.floats(min_value=0.0, max_value=100.0),
        slo=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_relaxed_upper_bounds_step(self, latency, slo):
        # The relaxation never reports lower utility than the step function.
        assert inverse_utility(latency, slo) >= step_utility(latency, slo)


class TestSLO:
    def test_quantile(self):
        assert SLO(0.72, 99).quantile == pytest.approx(0.99)

    def test_default_percentile(self):
        assert SLO(0.5).percentile == 99.0

    @pytest.mark.parametrize(
        "target,percentile", [(0, 99), (-1, 99), (1, 0), (1, 100), (1, 101)]
    )
    def test_validation(self, target, percentile):
        with pytest.raises(ValueError):
            SLO(target, percentile)


class TestUtilityFromSLO:
    def test_step_mode(self):
        assert utility_from_slo(1.0, SLO(0.72), alpha=None) == 0.0

    def test_inverse_mode(self):
        assert utility_from_slo(1.44, SLO(0.72), alpha=1.0) == pytest.approx(0.5)
