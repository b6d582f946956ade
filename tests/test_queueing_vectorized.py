"""Vectorized queueing kernels must agree with the scalar formulas.

The compiled table kernel (``queueing/erlang.c``) is checked byte for byte
against the numpy loops it replaces, and its loader is tested the way
``tests/test_dispatch_differential.py`` tests the dispatch kernel's.
"""

import functools
import importlib.util
import math
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, native
from repro.core.optimizer import DEFAULT_TABLE_CACHE, OptimizationJob
from repro.core.utility import SLO
from repro.queueing import vectorized
from repro.queueing.mdc import mdc_latency_percentile
from repro.queueing.mmc import erlang_c
from repro.queueing.vectorized import (
    erlang_c_at_rho,
    erlang_c_table,
    mdc_latency_table,
)
from tests.test_backend_differential import PRE_REFACTOR_DIGESTS, digest, tiny_spec


class TestErlangCTable:
    def test_matches_scalar(self):
        loads = np.array([0.5, 1.7, 3.2, 6.9])
        table = erlang_c_table(loads, 10)
        for k in range(1, 11):
            for j, a in enumerate(loads):
                expected = erlang_c(k, float(a)) if a < k else 1.0
                assert table[k - 1, j] == pytest.approx(expected, abs=1e-12)

    def test_unstable_entries_are_one(self):
        table = erlang_c_table(np.array([5.0]), 4)
        assert np.all(table[:4] == 1.0)

    def test_shape(self):
        assert erlang_c_table(np.zeros(3), 7).shape == (7, 3)

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            erlang_c_table(np.array([-1.0]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            erlang_c_table(np.zeros((2, 2)), 3)


class TestErlangCAtRho:
    def test_matches_scalar_diagonal(self):
        values = erlang_c_at_rho(0.95, 12)
        for k in range(1, 13):
            assert values[k - 1] == pytest.approx(erlang_c(k, 0.95 * k), abs=1e-12)

    def test_cached_identical(self):
        a = erlang_c_at_rho(0.9, 8)
        b = erlang_c_at_rho(0.9, 8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_invalid_rho(self, rho):
        with pytest.raises(ValueError):
            erlang_c_at_rho(rho, 4)


class TestLatencyTable:
    def test_matches_scalar_mdc(self):
        rates = np.array([1.0, 5.0, 12.0, 20.0])
        p = 0.18
        table = mdc_latency_table(0.99, rates, p, 8, relaxed=False)
        for k in range(1, 9):
            for j, lam in enumerate(rates):
                expected = mdc_latency_percentile(0.99, float(lam), p, k)
                if math.isinf(expected):
                    assert math.isinf(table[k - 1, j])
                else:
                    assert table[k - 1, j] == pytest.approx(expected, abs=1e-9)

    def test_zero_rate_gives_service_time(self):
        table = mdc_latency_table(0.99, np.array([0.0]), 0.2, 4)
        assert np.allclose(table[:, 0], 0.2)

    def test_precise_has_inf_plateau(self):
        table = mdc_latency_table(0.99, np.array([100.0]), 0.2, 5, relaxed=False)
        assert np.all(np.isinf(table[:, 0]))

    def test_relaxed_removes_inf(self):
        table = mdc_latency_table(0.99, np.array([100.0]), 0.2, 5, relaxed=True)
        assert np.all(np.isfinite(table[:, 0]))

    def test_relaxed_monotone_in_overload(self):
        # With one server, latencies should grow with the arrival rate in
        # the overloaded (relaxed) regime -- no plateau.
        rates = np.array([10.0, 20.0, 40.0, 80.0])
        table = mdc_latency_table(0.99, rates, 0.2, 1, relaxed=True)
        row = table[0]
        assert np.all(np.diff(row) > 0)

    def test_relaxed_agrees_with_precise_when_stable(self):
        rates = np.array([2.0, 6.0])
        precise = mdc_latency_table(0.99, rates, 0.2, 6, relaxed=False)
        relaxed = mdc_latency_table(0.99, rates, 0.2, 6, relaxed=True)
        stable = np.isfinite(precise) & (rates[None, :] * 0.2 <= 0.95 * np.arange(1, 7)[:, None])
        assert np.allclose(precise[stable], relaxed[stable])

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_invalid_quantile(self, q):
        with pytest.raises(ValueError):
            mdc_latency_table(q, np.array([1.0]), 0.2, 3)


# --------------------------------------------- the compiled table kernel


def oracle_latency(quantile, rates, proc_time, max_servers, relaxed, rho_max):
    """``mdc_latency_table`` computed by the numpy loops alone."""
    latency_at_rho = None
    if relaxed:
        pinned = rho_max * np.arange(1, max_servers + 1, dtype=float)
        c_at_rho = np.diagonal(vectorized._erlang_c_table_numpy(pinned, max_servers)).copy()
        latency_at_rho = vectorized._latency_at_rho(quantile, proc_time, rho_max, c_at_rho)
    return vectorized._mdc_latency_table_numpy(
        quantile, np.asarray(rates, dtype=float), proc_time, max_servers,
        latency_at_rho, rho_max,
    )


@pytest.fixture
def compiled():
    """Skip where the kernel cannot be built; fail where it can but did not load."""
    if shutil.which("cc") is None or importlib.util.find_spec("cffi") is None:
        pytest.skip("needs a C compiler (cc) and cffi")
    assert vectorized.kernel() is not None


@st.composite
def load_vectors(draw, rho_max=0.95):
    """``(loads, max_servers)``: loads at, between and far past the server
    counts and the ``rho_max`` cuts."""
    max_servers = draw(st.integers(1, 400))
    servers = st.integers(0, max_servers + 1).map(float)
    load = st.one_of(
        servers,  # a == k exactly
        servers.map(lambda k: rho_max * k),  # a == rho_max * k exactly
        st.floats(0.0, 1.5 * max_servers),  # on both sides of k
        st.floats(float(max_servers), 1e6),  # far above max_servers
        st.sampled_from([0.0, -0.0]),
    )
    loads = draw(st.lists(load, max_size=200))
    return np.array(loads, dtype=float), max_servers


@st.composite
def latency_cases(draw):
    """Arguments of ``mdc_latency_table`` and the load vector behind them."""
    rho_max = draw(st.sampled_from([0.5, 0.8, 0.95, 0.99]))
    loads, max_servers = draw(load_vectors(rho_max))
    # Binary-exact service times give the exact loads back as
    # rates * proc_time; the others do not.
    proc_time = draw(st.sampled_from([0.125, 0.18, 0.25, 1.0 / 3.0, 1.0, 2.0]))
    quantile = draw(st.floats(0.5, 0.999))
    return quantile, loads / proc_time, proc_time, max_servers, rho_max


@pytest.mark.usefixtures("compiled")
class TestCompiledKernelMatchesNumpy:
    """The kernel's tables are the numpy loops', byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(case=load_vectors())
    def test_erlang_c_table(self, case):
        loads, max_servers = case
        expected = vectorized._erlang_c_table_numpy(loads, max_servers)
        assert erlang_c_table(loads, max_servers).tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(case=latency_cases(), relaxed=st.booleans())
    def test_mdc_latency_table(self, case, relaxed):
        quantile, rates, proc_time, max_servers, rho_max = case
        got = mdc_latency_table(quantile, rates, proc_time, max_servers, relaxed, rho_max)
        expected = oracle_latency(quantile, rates, proc_time, max_servers, relaxed, rho_max)
        assert got.tobytes() == expected.tobytes()

    def test_strided_and_list_loads(self):
        # The kernel reads contiguous buffers; other inputs are copied first.
        loads = np.arange(0.0, 12.0, 0.5)[::3]
        expected = vectorized._erlang_c_table_numpy(np.ascontiguousarray(loads), 9)
        for given_loads in (loads, list(loads)):
            assert erlang_c_table(given_loads, 9).tobytes() == expected.tobytes()

    def test_empty_load_vector(self):
        assert erlang_c_table(np.array([]), 5).shape == (5, 0)
        for relaxed in (False, True):
            assert mdc_latency_table(0.99, np.array([]), 0.2, 5, relaxed).shape == (5, 0)

    def test_erlang_c_at_rho_matches_numpy_diagonal(self):
        pinned = 0.9 * np.arange(1, 41, dtype=float)
        expected = np.diagonal(vectorized._erlang_c_table_numpy(pinned, 40))
        assert erlang_c_at_rho(0.9, 40).tobytes() == expected.tobytes()


class TestNonFiniteInputs:
    """NaN and inf used to read as an unstable queue; they are errors."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_erlang_c_table_rejects(self, bad):
        with pytest.raises(ValueError, match="offered loads must be finite"):
            erlang_c_table(np.array([1.0, bad]), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mdc_latency_table_rejects(self, bad):
        with pytest.raises(ValueError, match="arrival rates must be finite"):
            mdc_latency_table(0.99, np.array([bad, 2.0]), 0.2, 3, relaxed=True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_optimization_job_rejects_and_names_the_job(self, bad):
        with pytest.raises(ValueError, match="job 'diverged': rates must be finite"):
            OptimizationJob(
                name="diverged", proc_time=0.2, slo=SLO(target=1.0),
                rates=(3.0, bad),
            )


class TestKernelLoading:
    """The table kernel loads where it can; where it cannot, the numpy loops
    take over with one warning and identical results."""

    def test_kernel_loads_where_it_can_be_built(self, compiled):
        assert native.kernels()["erlang"] == "c"

    @pytest.mark.usefixtures("compiled")
    def test_broken_source_falls_back_to_numpy(self, tmp_path, monkeypatch):
        spec = tiny_spec("tiny-flow", "flow")

        def run_uncached():
            # Every table is built by the path under test.
            DEFAULT_TABLE_CACHE.clear()
            return api.run(spec)

        compiled = run_uncached()
        broken = tmp_path / "erlang.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(vectorized, "SOURCE", broken)
        vectorized.kernel.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fallback = run_uncached()
        finally:
            vectorized.kernel.cache_clear()
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1
        assert "cc failed to compile erlang.c" in messages[0]
        # The baselines build no tables; Faro's runs report the kernel that
        # built theirs.
        for report, kernel in ((compiled, "c"), (fallback, "python")):
            for per_policy in report.stats.values():
                for result in per_policy["faro-fairsum"].results:
                    assert result.metadata["kernels"]["erlang"] == kernel
        assert digest(fallback) == digest(compiled) == PRE_REFACTOR_DIGESTS["tiny-flow"]

    def test_kernel_failing_its_self_check_is_refused(self, compiled, tmp_path, monkeypatch):
        # A fused multiply-add, lane by lane, rounds once where numpy
        # rounds twice.
        fused = "(pair){fma(a[0], blocking[0], kd[0]), fma(a[1], blocking[1], kd[1])}"
        source = vectorized.SOURCE.read_text()
        assert source.count("kd + a * blocking") == 1
        mutant = tmp_path / "erlang.c"
        mutant.write_text(source.replace("kd + a * blocking", fused))
        monkeypatch.setattr(vectorized, "SOURCE", mutant)
        vectorized.kernel.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="disagrees with the numpy loops"):
                assert vectorized.kernel() is None
            assert native.kernels()["erlang"] == "python"
            loads = np.array([0.3, 2.5, 7.0])
            expected = vectorized._erlang_c_table_numpy(loads, 9)
            assert erlang_c_table(loads, 9).tobytes() == expected.tobytes()
        finally:
            vectorized.kernel.cache_clear()

    def test_reading_the_metadata_never_loads(self, monkeypatch):
        fresh = functools.cache(vectorized.kernel.__wrapped__)
        monkeypatch.setattr(vectorized, "kernel", fresh)
        assert native.kernels()["erlang"] is None
        assert fresh.cache_info().currsize == 0
