"""The compiled N-HiTS training step must be the autodiff tape's, bit for bit.

The kernel (``forecast/nhits.c``, :func:`repro.forecast.nhits.kernel`) is
checked against :class:`~repro.forecast.nhits._TapeStep` step by step on
drawn architectures (parameters, gradients, Adam's moments and losses
after every step) and on whole fits against ``oracle_fit``, the per-job
loop of ``tests/test_forecast.py``; its forward pass is checked against
the tape's on the same architectures and on fitted forecasters.  The
stacked-training tests and the trained-forecaster pins of that file run on
the kernel there (wherever it loads) and on the tape here.  Its loader is
tested the way ``tests/test_trstlp_kernel.py`` tests COBYLA's.
"""

import functools
import importlib.util
import os
import platform
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.forecast import nhits
from repro.forecast.nhits import NHiTSConfig, NHiTSForecaster, _stacked_network, _TapeStep
from tests import test_forecast
from tests.test_forecast import assert_fit_many_matches_oracle, sine_series


@pytest.fixture(scope="module")
def compiled():
    """The loaded kernel; skip where it cannot be built, fail where it can but did not load."""
    if shutil.which("cc") is None or importlib.util.find_spec("cffi") is None:
        pytest.skip("needs a C compiler (cc) and cffi")
    loaded = nhits.kernel()
    assert loaded is not None
    return loaded


def step_state(step) -> list[tuple[str, int, bytes]]:
    """Each parameter's, gradient's and moment's bytes, named for a diff."""
    params = step.network.parameters()
    arrays = [("param", p.data) for p in params] + [("grad", p.grad) for p in params]
    arrays += [("m", m) for m in step.optimizer._m] + [("v", v) for v in step.optimizer._v]
    return [(kind, k % len(params), np.ascontiguousarray(a).tobytes())
            for k, (kind, a) in enumerate(arrays)]


def clip_fired(step, clip_norm=nhits._CLIP_NORM) -> list[bool]:
    """Whether each job's last gradient was clipped to ``clip_norm`` (its
    clipped norm then rounds to the bound)."""
    totals = np.zeros(step.network.parameters()[0].shape[0])
    for param in step.network.parameters():
        totals += (param.grad**2).sum(axis=tuple(range(1, param.grad.ndim)))
    return [abs(total**0.5 - clip_norm) < 1e-9 for total in totals.tolist()]


@st.composite
def architectures(draw):
    """An ``NHiTSConfig``: pooled widths down to 1, horizons of one knot,
    hidden 1-64, depth 1-3, every loss, with and without sigma heads."""
    input_size = draw(st.sampled_from([1, 2, 4, 6, 8, 12, 16]))
    divisors = [k for k in range(1, input_size + 1) if input_size % k == 0]
    kernels = tuple(draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3)))
    if draw(st.booleans()):
        # kernel == input_size: a pooled width of 1
        kernels = (input_size,) + kernels[1:]
    biggest = max(kernels)
    horizon = draw(st.one_of(
        st.integers(1, max(1, 2 * biggest - 1)),  # one forecast knot for the coarsest stack
        st.integers(1, 24),
    ))
    loss = draw(st.sampled_from(["nll", "mse", "mae"]))
    probabilistic = loss == "nll" or draw(st.booleans())
    return NHiTSConfig(
        input_size=input_size, horizon=horizon, kernels=kernels,
        hidden=draw(st.integers(1, 64)), depth=draw(st.integers(1, 3)),
        loss=loss, probabilistic=probabilistic, lr=draw(st.sampled_from([1e-3, 5e-2])),
    )


def run_both(compiled, cfg, jobs, batches, seed, spread=1.0):
    """Step the tape and the kernel side by side, each batch's rows taken
    by a shuffled order from one set of windows; the steps on which some
    but not every job clipped."""
    rng = np.random.default_rng(seed)
    forecasters = [NHiTSForecaster(replace(cfg, seed=s)) for s in range(jobs)]
    windows = sum(batches)
    inputs = rng.standard_normal((jobs, windows, cfg.input_size))
    # The last job's targets sit far off, so its gradient is the one to clip.
    targets = rng.standard_normal((jobs, windows, cfg.horizon))
    targets[-1] *= spread
    order = np.stack([rng.permutation(windows) for _ in range(jobs)])
    tape = _TapeStep(_stacked_network(forecasters), inputs, targets)
    kernel = compiled.step(_stacked_network(forecasters), inputs, targets)
    mixed = 0
    start = 0
    for rows in batches:
        expected = tape(order, start, rows)
        got = kernel(order, start, rows)
        start += rows
        assert got.tobytes() == expected.tobytes(), rows
        state, want = step_state(kernel), step_state(tape)
        bad = [(kind, k) for (kind, k, a), (_, _, b) in zip(state, want) if a != b]
        assert not bad, (rows, bad[:5])
        fired = clip_fired(tape)
        mixed += 0 < sum(fired) < jobs
    return mixed


class TestStepMatchesTape:
    @settings(max_examples=150, deadline=None)
    @given(
        cfg=architectures(),
        jobs=st.integers(1, 4),
        rows=st.integers(2, 64),
        seed=st.integers(0, 2**16),
    )
    def test_every_step_of_drawn_architectures(self, compiled, cfg, jobs, rows, seed):
        # A full batch, a partial one and a one-row one, as an epoch ends.
        run_both(compiled, cfg, jobs, [rows, max(1, rows // 3), 1], seed)

    @pytest.mark.parametrize("loss", ["nll", "mse"])
    def test_clip_fires_for_some_jobs_only(self, compiled, loss):
        cfg = NHiTSConfig(input_size=8, horizon=4, hidden=24, loss=loss,
                          probabilistic=loss == "nll")
        assert run_both(compiled, cfg, 3, [16, 16, 1, 16], seed=4, spread=60.0) > 0

    def test_fast_profile_stack_of_four(self, compiled):
        from repro.experiments.policies import PredictorProfile

        cfg = PredictorProfile.fast().config(0)
        run_both(compiled, cfg, 4, [64, 64, 17, 2, 1], seed=1)

    def test_update_clips_like_adam_where_sqrt_would_not(self, compiled):
        # The clip's root is Python's float ** 0.5, which rounds some norms
        # differently from np.sqrt; the tape's test picks such rows.
        rng = np.random.default_rng(0)
        cfg = NHiTSConfig(input_size=1, horizon=1, kernels=(1,), hidden=1, depth=1,
                          probabilistic=False, loss="mse")
        jobs = 500
        forecasters = [NHiTSForecaster(replace(cfg, seed=s)) for s in range(jobs)]
        windows = np.zeros((jobs, 1, 1))
        tape = _TapeStep(_stacked_network(forecasters), windows, windows)
        kernel = compiled.step(_stacked_network(forecasters), windows, windows)
        picked = 0
        for _ in range(40):
            grads = [rng.uniform(-4.0, 4.0, p.shape) for p in tape.network.parameters()]
            totals = sum((g**2).reshape(jobs, -1).sum(axis=1) for g in grads)
            picked += sum(t**0.5 > 5.0 and t**0.5 != float(np.sqrt(t)) for t in totals)
            for param, grad in zip(tape.network.parameters(), grads):
                param.grad = grad.copy()
            for param, grad in zip(kernel.network.parameters(), grads):
                param.grad[...] = grad  # a view of the kernel's gradient buffer
            nhits._clip_each_job(tape.optimizer.params, nhits._CLIP_NORM)
            tape.optimizer.step()
            kernel.update()
            assert step_state(kernel) == step_state(tape)
        assert picked > 0


    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86-64 cores",
    )
    def test_one_row_batches_under_openblas_prescott(self, compiled):
        # OpenBLAS's Prescott ddot sums in an order set by its operands'
        # alignment, so a one-row batch (whose products are dot products)
        # matches the tape only if every buffer is aligned as numpy's are.
        recipe = (
            "from repro import native\n"
            "from repro.forecast.nhits import NHiTSConfig\n"
            "from repro.forecast import nhits\n"
            "from tests.test_nhits_kernel import run_both\n"
            "cfg = NHiTSConfig(input_size=1, horizon=1, kernels=(1, 1), hidden=14, depth=1)\n"
            "for seed in range(6):\n"
            "    run_both(nhits.kernel(), cfg, 1, [1, 1, 1], seed)\n"
            "print(native.host()['openblas_core'])\n"
        )
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(root / "src"), str(root), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": path}
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", recipe],
            cwd=root, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() != native.host()["openblas_core"]


class TestForwardMatchesTape:
    """Inference: the compiled forward pass on one window, against the tape's."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=architectures(), seed=st.integers(0, 2**16))
    def test_drawn_architectures(self, compiled, cfg, seed):
        rng = np.random.default_rng(seed)
        network = NHiTSForecaster(replace(cfg, seed=seed)).network
        for window in rng.standard_normal((3, cfg.input_size)) * [[1.0], [5.0], [0.01]]:
            assert_same_forward(compiled, network, window)

    def test_fitted_fast_profile_forecasters(self, compiled):
        from repro.experiments.policies import PredictorProfile

        profile = PredictorProfile.fast()
        forecasters = [NHiTSForecaster(replace(profile.config(j), epochs=2)) for j in range(3)]
        series = [sine_series(400, period=30 + 7 * j, seed=j) for j in range(3)]
        NHiTSForecaster.fit_many(forecasters, series)
        for forecaster, values in zip(forecasters, series):
            for end in (16, 100, 400):
                window = forecaster._prepare_history(values[:end])
                assert_same_forward(compiled, forecaster.network, window)

    def test_forecasts_are_the_tapes(self, compiled, monkeypatch):
        forecaster = NHiTSForecaster(test_forecast.small_config("mse"))
        forecaster.fit(sine_series(200, seed=3))
        history = sine_series(60, seed=4)

        def outputs():
            return [
                forecaster.predict(history, 12).tobytes(),
                b"".join(a.tobytes() for a in forecaster.predict_distribution(history, 5)),
                forecaster.sample_paths(history, 6, 8, rng=np.random.default_rng(1)).tobytes(),
            ]

        compiled_outputs = outputs()
        monkeypatch.setattr(nhits, "kernel", lambda: None)
        assert outputs() == compiled_outputs


def assert_same_forward(compiled, network, window):
    got = compiled.forward(network, window)
    expected = nhits._tape_forward(network, window)
    assert got[0].tobytes() == expected[0].tobytes()
    if expected[1] is None:
        assert got[1] is None
    else:
        assert got[1].tobytes() == expected[1].tobytes()


class TestWholeFits:
    @settings(max_examples=12, deadline=None)
    @given(
        loss=st.sampled_from(["nll", "mse", "mae"]),
        jobs=st.integers(1, 4),
        length=st.sampled_from([76, 200]),
        hidden=st.integers(1, 64),
        depth=st.integers(1, 3),
    )
    def test_fit_many_matches_the_per_job_oracle(self, compiled, loss, jobs, length, hidden, depth):
        # 200 caps at 90 windows (5 x 16 + 10); 76 leaves 65 (4 x 16 + 1).
        configs = [
            test_forecast.small_config(loss, seed=3 * j + 1, hidden=hidden, depth=depth)
            for j in range(jobs)
        ]
        series = [sine_series(length, period=30 + j, seed=j) for j in range(jobs)]
        assert_fit_many_matches_oracle(configs, series)

    def test_pooled_width_one_and_one_knot(self, compiled):
        configs = [
            test_forecast.small_config("nll", seed=j, kernels=(8, 4, 1), horizon=3)
            for j in range(3)
        ]
        series = [sine_series(120, period=20, seed=j) for j in range(3)]
        assert_fit_many_matches_oracle(configs, series)


@pytest.fixture
def on_the_tape(monkeypatch):
    """Train every stack on the tape, as a host without the kernel does."""
    monkeypatch.setattr(nhits, "kernel", lambda: None)


# tests/test_forecast.py runs these on the kernel wherever it loads.
@pytest.mark.usefixtures("on_the_tape")
class TestStackedTrainingOnTheTape(test_forecast.TestStackedTraining):
    """``tests/test_forecast.py``'s stacked-training tests, on the tape."""


@pytest.mark.usefixtures("on_the_tape")
class TestTrainedForecasterPinsOnTheTape(test_forecast.TestTrainedForecasterPins):
    """The per-job training digests, on the tape."""


class TestKernelLoading:
    """The kernel loads where it can; where it cannot, the tape trains with
    one warning and identical forecasters."""

    def test_kernel_loads_where_it_can_be_built(self, compiled):
        assert native.kernels()["nhits"] == "c"

    def test_load_time_check_is_quick(self, compiled):
        import time

        # CPU time, not the wall clock: other processes on a busy host
        # stretch the wall time of the same work.
        def seconds():
            started = time.process_time()
            nhits._self_check(compiled)
            return time.process_time() - started

        assert min(seconds() for _ in range(3)) < 0.05

    def test_broken_source_falls_back_to_the_tape(self, compiled, tmp_path, monkeypatch):
        broken = tmp_path / "nhits.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(nhits, "SOURCE", broken)
        monkeypatch.setattr(test_forecast.policies, "_PREDICTOR_CACHE", {})
        sizes = test_forecast.spy_stacks(monkeypatch)
        nhits.kernel.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                test_forecast.TestTrainedForecasterPins.test_paper_scenario_fast_profile(None)
            assert native.kernels()["nhits"] == "python"
        finally:
            nhits.kernel.cache_clear()
        assert sorted(sizes) == [2, 4, 4]  # three stacks, trained on the pool
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1
        assert "cc failed to compile nhits.c" in messages[0]
        assert "N-HiTS trains on the autodiff tape" in messages[0]

    def test_kernel_with_a_fused_moment_update_is_refused(self, compiled, tmp_path, monkeypatch):
        # A fused multiply-add rounds once where numpy's m += (1 - b1) * g
        # rounds twice.
        source = nhits.SOURCE.read_text()
        plain = "m_c += one_minus_beta1 * g;"
        assert source.count(plain) == 1
        mutant = tmp_path / "nhits.c"
        mutant.write_text(source.replace(
            plain, "m_c = (pair){fma(one_minus_beta1, g[0], m_c[0]), "
                   "fma(one_minus_beta1, g[1], m_c[1])};"
        ))
        monkeypatch.setattr(nhits, "SOURCE", mutant)
        nhits.kernel.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="disagrees with the autodiff tape"):
                assert nhits.kernel() is None
            assert native.kernels()["nhits"] == "python"
        finally:
            nhits.kernel.cache_clear()

    @pytest.mark.parametrize(
        "plain, mutant",
        [
            # each job's mean summed left to right, not in numpy's pairwise order
            ("(0.0 + pairwise(w->terms + j * cells, cells, 0))",
             "(0.0 + left_to_right(w->terms + j * cells, cells))"),
            # the division's gradient -g * a / b**2 reassociated
            ("-scale * square / (twice * twice)", "-scale * (square / (twice * twice))"),
        ],
    )
    def test_kernel_with_a_reordered_loss_head_is_refused(
        self, compiled, tmp_path, monkeypatch, plain, mutant
    ):
        source = nhits.SOURCE.read_text()
        assert source.count(plain) == 1
        helper = (
            "static double left_to_right(const double *a, int64_t n)\n"
            "{\n    double sum = 0.0;\n    for (int64_t i = 0; i < n; i++)\n"
            "        sum += a[i];\n    return sum;\n}\n\n"
        )
        anchor = "/* The loss head of nhits.py's _loss"
        mutated = tmp_path / "nhits.c"
        mutated.write_text(source.replace(plain, mutant).replace(anchor, helper + anchor))
        monkeypatch.setattr(nhits, "SOURCE", mutated)
        nhits.kernel.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="disagrees with the autodiff tape"):
                assert nhits.kernel() is None
        finally:
            nhits.kernel.cache_clear()

    def test_reading_the_metadata_never_loads(self, monkeypatch):
        fresh = functools.cache(nhits.kernel.__wrapped__)
        monkeypatch.setattr(nhits, "kernel", fresh)
        assert native.kernels()["nhits"] is None
        assert fresh.cache_info().currsize == 0
