"""Empirical validation of the analytic queueing approximations.

Each analytic formula used by Faro's latency estimation is checked against
an exact discrete-event simulation of the same queue.  Tolerances are
deliberately generous where the formula is an engineering approximation
(half-wait rule, Allen-Cunneen tail scaling) and tight where it is exact
(M/M/c).  These tests are the reproduction's answer to "why should the
optimizer trust latency_{M/D/c}?".
"""

import numpy as np
import pytest

from repro.queueing.ggc import ggc_mean_wait
from repro.queueing.mdc import mdc_mean_wait, mdc_wait_percentile
from repro.queueing.mmc import mmc_mean_wait, mmc_wait_percentile
from tests.queue_oracle import (
    QueueSample,
    sample_ggc_queue,
    sample_mdc_queue,
    sample_mmc_queue,
    simulate_queue_waits,
)

N = 150_000


class TestSimulator:
    def test_single_customer_no_wait(self):
        waits = simulate_queue_waits(np.array([1.0]), np.array([5.0]), servers=1)
        assert waits[0] == 0.0

    def test_back_to_back_on_one_server(self):
        # Arrivals at t=0,0,0 with unit service on one server: waits 0,1,2.
        waits = simulate_queue_waits(np.zeros(3), np.ones(3), servers=1)
        np.testing.assert_allclose(waits, [0.0, 1.0, 2.0])

    def test_enough_servers_no_wait(self):
        waits = simulate_queue_waits(np.zeros(3), np.ones(3), servers=3)
        np.testing.assert_allclose(waits, 0.0)

    def test_fcfs_order(self):
        # Second arrival waits for the earliest-free server, not a specific one.
        inter = np.array([0.0, 0.0, 0.5])
        serv = np.array([1.0, 2.0, 1.0])
        waits = simulate_queue_waits(inter, serv, servers=2)
        assert waits[2] == pytest.approx(0.5)  # server 1 frees at t=1

    @pytest.mark.parametrize("inter,serv,servers", [
        (np.array([-1.0]), np.array([1.0]), 1),
        (np.array([1.0]), np.array([-1.0]), 1),
        (np.array([1.0]), np.array([1.0]), 0),
        (np.ones(2), np.ones(3), 1),
    ])
    def test_invalid(self, inter, serv, servers):
        with pytest.raises(ValueError):
            simulate_queue_waits(inter, serv, servers)

    def test_empty(self):
        assert simulate_queue_waits(np.array([]), np.array([]), 1).size == 0


class TestQueueSample:
    def test_percentile_bounds(self):
        sample = QueueSample(np.arange(100.0))
        assert sample.wait_percentile(0.5) == pytest.approx(49.5)
        with pytest.raises(ValueError):
            sample.wait_percentile(1.0)

    def test_warmup_drop(self):
        sample = QueueSample(np.arange(10.0))
        assert sample.drop_warmup(0.5).waits.size == 5
        with pytest.raises(ValueError):
            sample.drop_warmup(1.0)


class TestMMCExact:
    """M/M/c formulas are exact: empirical values must match closely."""

    @pytest.mark.parametrize("lam,mu,c", [(0.7, 1.0, 1), (3.0, 1.0, 4), (7.2, 1.0, 8)])
    def test_mean_wait(self, lam, mu, c):
        sample = sample_mmc_queue(lam, mu, c, n=N, seed=11)
        assert sample.mean_wait == pytest.approx(mmc_mean_wait(lam, mu, c), rel=0.08)

    def test_p99_wait(self):
        lam, mu, c = 3.4, 1.0, 4
        sample = sample_mmc_queue(lam, mu, c, n=N, seed=12)
        assert sample.wait_percentile(0.99) == pytest.approx(
            mmc_wait_percentile(0.99, lam, mu, c), rel=0.10
        )


class TestMDCHalfWaitRule:
    """The paper's M/D/c ~= 0.5 x M/M/c rule: good at mid/high load."""

    @pytest.mark.parametrize("rho,c", [(0.6, 2), (0.7, 4), (0.85, 8)])
    def test_mean_wait_within_20pct(self, rho, c):
        proc = 0.18
        lam = rho * c / proc
        sample = sample_mdc_queue(lam, proc, c, n=N, seed=21)
        approx = mdc_mean_wait(lam, proc, c)
        assert sample.mean_wait == pytest.approx(approx, rel=0.20)

    def test_refined_beats_plain_on_many_servers(self):
        # The Cosmetatos correction should reduce error at moderate rho
        # with several servers (where the plain rule underestimates).
        proc, c, rho = 0.18, 8, 0.7
        lam = rho * c / proc
        truth = sample_mdc_queue(lam, proc, c, n=N, seed=22).mean_wait
        plain = mdc_mean_wait(lam, proc, c, refined=False)
        refined = mdc_mean_wait(lam, proc, c, refined=True)
        assert abs(refined - truth) <= abs(plain - truth) + 1e-4

    def test_p99_conservative_or_close(self):
        # Tail scaling keeps the exponential shape; accept 25% relative
        # error at p99 -- the estimator feeds a *relative* optimizer.
        proc, c, rho = 0.18, 4, 0.8
        lam = rho * c / proc
        sample = sample_mdc_queue(lam, proc, c, n=N, seed=23)
        approx = mdc_wait_percentile(0.99, lam, proc, c)
        assert approx == pytest.approx(sample.wait_percentile(0.99), rel=0.25)

    def test_paper_worked_example_replicas(self):
        # §3.3: p=150 ms, lam=40/s, SLO 600 ms -> 8 replicas suffice at
        # p99.99 per the M/D/c model; the exact simulation must agree that
        # 8 replicas keep (virtually) all requests under 600 ms.
        proc, lam, replicas, slo = 0.150, 40.0, 8, 0.600
        sample = sample_mdc_queue(lam, proc, replicas, n=N, seed=24)
        latency_p9999 = sample.wait_percentile(0.9999) + proc
        assert latency_p9999 < slo


class TestAllenCunneen:
    """G/G/c mean-wait scaling across service variability."""

    @pytest.mark.parametrize("cs2", [0.25, 0.5, 2.0])
    def test_mgc_mean_wait_within_20pct(self, cs2):
        mean_service, c, rho = 0.2, 4, 0.75
        lam = rho * c / mean_service
        sample = sample_ggc_queue(lam, mean_service, cs2, c, n=N, seed=31)
        approx = ggc_mean_wait(lam, 1.0 / mean_service, c, ca2=1.0, cs2=cs2)
        assert sample.mean_wait == pytest.approx(approx, rel=0.20)

    def test_monotone_in_cs2_empirically(self):
        mean_service, c, rho = 0.2, 4, 0.75
        lam = rho * c / mean_service
        waits = [
            sample_ggc_queue(lam, mean_service, cs2, c, n=N, seed=32).mean_wait
            for cs2 in (0.25, 1.0, 2.0)
        ]
        assert waits[0] < waits[1] < waits[2]
