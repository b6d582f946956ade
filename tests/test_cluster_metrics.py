"""Metrics collector tests (per-minute aggregation, histories, percentiles)."""

import math

import numpy as np
import pytest

from repro.cluster.metrics import MetricsCollector
from repro.core.utility import SLO
from repro.sim import SimulationConfig


def make_collector(slo=0.72, bin_seconds=15.0, prefix=None):
    return MetricsCollector(
        job_name="j",
        slo=SLO(slo),
        proc_time=0.18,
        bin_seconds=bin_seconds,
        history_prefix=prefix,
    )


class TestRecordAndMinuteStats:
    def test_empty_minute_full_utility(self):
        stats = make_collector().minute_stats(0)
        assert stats.arrivals == 0
        assert stats.utility == 1.0
        assert stats.violation_rate == 0.0

    def test_counts(self):
        collector = make_collector()
        collector.record(1.0, 0.2)
        collector.record(2.0, 0.9)   # violation
        collector.record(3.0, math.inf)  # drop (counts as violation)
        stats = collector.minute_stats(0)
        assert stats.arrivals == 3
        assert stats.drops == 1
        assert stats.violations == 2
        assert stats.violation_rate == pytest.approx(2 / 3)

    def test_minutes_are_isolated(self):
        collector = make_collector()
        collector.record(30.0, 0.2)
        collector.record(90.0, 0.9)
        assert collector.minute_stats(0).arrivals == 1
        assert collector.minute_stats(1).violations == 1

    def test_utility_uses_percentile_latency(self):
        collector = make_collector(slo=0.5)
        for _ in range(100):
            collector.record(5.0, 1.0)  # all at 2x SLO
        stats = collector.minute_stats(0)
        assert stats.utility == pytest.approx(0.5)

    def test_effective_utility_penalizes_drops(self):
        # p50 SLO so the latency percentile stays finite despite drops.
        collector = MetricsCollector("j", SLO(10.0, percentile=50), proc_time=0.18)
        for _ in range(90):
            collector.record(5.0, 0.1)
        for _ in range(10):
            collector.record(5.0, math.inf)
        stats = collector.minute_stats(0)
        # 10% drops -> availability 0.90 -> 50% credit.
        assert stats.utility == 1.0
        assert stats.effective_utility == pytest.approx(0.5)


class TestPercentiles:
    def test_p99_with_drops_is_inf(self):
        collector = make_collector()
        for _ in range(50):
            collector.record(1.0, 0.1)
        for _ in range(50):
            collector.record(1.0, math.inf)
        assert math.isinf(collector.window_latency_percentile(0.0, 60.0))

    def test_median_collector(self):
        collector = MetricsCollector("j", SLO(1.0, percentile=50), proc_time=0.1)
        for latency in (0.1, 0.2, 0.3, 0.4, 0.5):
            collector.record(1.0, latency)
        assert collector.window_latency_percentile(0.0, 60.0) == pytest.approx(0.3)

    def test_no_requests_zero(self):
        assert make_collector().window_latency_percentile(0.0, 60.0) == 0.0


class TestObservationFields:
    def test_bin_aligned_window_on_a_10s_tick(self):
        """The window [now - 60, now) is widened outward to whole 15 s bins,
        but arrival_rate divides by 60 s: on the 10 s control tick a steady
        10 req/s reads 10.0, 11.667 and 10.833 in rotation, and latency and
        violations cover the same 60-70 s (only the first 10 s violate)."""
        collector = make_collector()
        arrivals = ((np.arange(1200) + 0.5) / 10.0).tolist()  # 10 req/s
        readings, recorded = [], 0
        for now in (60.0, 70.0, 80.0, 90.0, 100.0, 110.0):
            while arrivals[recorded] < now:
                t = arrivals[recorded]
                collector.record(t, 1.0 if t < 10.0 else 0.2)
                recorded += 1
            readings.append(collector.observation_fields(now - 60.0, now))
        assert [r["arrival_rate"] for r in readings] == [600 / 60, 700 / 60, 650 / 60] * 2
        assert [r["slo_violation_rate"] for r in readings[:3]] == [100 / 600, 100 / 700, 0.0]
        assert [r["latency"] for r in readings[:3]] == [1.0, 1.0, 0.2]

    def test_rates_and_proc(self):
        collector = make_collector()
        for t in range(60):
            collector.record(float(t), 0.2, proc_time=0.18)
        fields = collector.observation_fields(0.0, 60.0)
        assert fields["arrival_rate"] == pytest.approx(1.0)
        assert fields["mean_proc_time"] == pytest.approx(0.18)
        assert fields["drop_rate"] == 0.0

    def test_defaults_when_idle(self):
        fields = make_collector().observation_fields(0.0, 60.0)
        assert fields["arrival_rate"] == 0.0
        assert fields["mean_proc_time"] == pytest.approx(0.18)


class TestRateHistory:
    def test_per_minute_rates(self):
        collector = make_collector()
        for t in np.linspace(0, 59.9, 120):  # 2 req/s in minute 0
            collector.record(float(t), 0.1)
        for t in np.linspace(60, 119.9, 60):  # 1 req/s in minute 1
            collector.record(float(t), 0.1)
        history = collector.rate_history(120.0, 2)
        assert history[0] == pytest.approx(2.0)
        assert history[1] == pytest.approx(1.0)

    def test_prefix_fills_negative_minutes(self):
        prefix = np.array([3.0, 4.0, 5.0])
        collector = make_collector(prefix=prefix)
        history = collector.rate_history(60.0, 4)
        # Minutes -3, -2, -1 come from the prefix; minute 0 has no data.
        assert history[0] == pytest.approx(3.0)
        assert history[1] == pytest.approx(4.0)
        assert history[2] == pytest.approx(5.0)
        assert history[3] == 0.0

    def test_invalid_minutes(self):
        with pytest.raises(ValueError):
            make_collector().rate_history(0.0, 0)


class TestBinSeconds:
    """A minute must hold a whole number of bins: per-minute rates sum whole
    bins, so 25 s bins would read 0.833 req/s from a steady 1 req/s."""

    @pytest.mark.parametrize("bin_seconds", [25.0, 40.0, 120.0, 0.0, -15.0])
    def test_rejected(self, bin_seconds):
        with pytest.raises(ValueError, match="bin_seconds"):
            make_collector(bin_seconds=bin_seconds)
        with pytest.raises(ValueError, match="metrics_bin_seconds"):
            SimulationConfig(metrics_bin_seconds=bin_seconds)

    @pytest.mark.parametrize("bin_seconds", [7.5, 15.0, 60.0])
    def test_accepted(self, bin_seconds):
        collector = make_collector(bin_seconds=bin_seconds)
        assert collector.bins_per_minute * bin_seconds == 60.0
        assert SimulationConfig(metrics_bin_seconds=bin_seconds).metrics_bin_seconds == bin_seconds
        for t in range(180):  # a steady 1 req/s for three minutes
            collector.record(float(t), 0.1)
        assert collector.rate_history(180.0, 3).tolist() == [1.0, 1.0, 1.0]
        assert [collector.minute_stats(m).arrivals for m in range(3)] == [60, 60, 60]


class TestRecordOrder:
    def test_a_bin_before_the_latest_is_refused(self):
        collector = make_collector()
        collector.record(40.0, 0.1)
        collector.record(30.0, 0.1)  # the same 15 s bin
        with pytest.raises(ValueError, match="time order"):
            collector.record(10.0, 0.1)
        assert collector.minute_stats(0).arrivals == 2
