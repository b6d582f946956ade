"""Forecaster tests: base utilities, classical baselines, N-HiTS, LSTM.

Stacked N-HiTS training (:meth:`NHiTSForecaster.fit_many`) is checked bit
for bit against :func:`oracle_fit`, the per-job training loop ``fit`` ran
before jobs were stacked, and pinned end to end through
``train_predictors``.
"""

import hashlib
import threading

import numpy as np
import pytest

from repro import api
from repro.autodiff import Adam, Tensor
from repro.experiments import policies
from repro.experiments.policies import PredictorProfile, train_predictors
from repro.forecast import (
    ARForecaster,
    ARMAForecaster,
    DeepARLiteForecaster,
    EWMAForecaster,
    LSTMForecaster,
    NaiveForecaster,
    NHiTSConfig,
    NHiTSForecaster,
    SeasonalNaiveForecaster,
    StandardScaler,
    coverage,
    mae,
    rmse,
)
from repro.forecast import nhits
from repro.forecast.base import sliding_windows
from repro.forecast.lstm import LSTMConfig
from repro.forecast.nhits import interpolation_matrix


def sine_series(n=2000, period=144, level=100.0, amp=40.0, noise=5.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.maximum(
        level + amp * np.sin(2 * np.pi * t / period) + rng.normal(0, noise, n), 0.0
    )


class TestScalerAndWindows:
    def test_scaler_roundtrip(self):
        series = np.array([1.0, 5.0, 9.0])
        scaler = StandardScaler().fit(series)
        assert np.allclose(scaler.inverse(scaler.transform(series)), series)

    def test_scaler_constant_series(self):
        scaler = StandardScaler().fit(np.full(10, 3.0))
        assert scaler.std == 1.0

    def test_scaler_unfitted(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros(2))

    def test_windows_shapes(self):
        x, y = sliding_windows(np.arange(20.0), 5, 3)
        assert x.shape == (13, 5) and y.shape == (13, 3)
        assert np.allclose(x[0], [0, 1, 2, 3, 4])
        assert np.allclose(y[0], [5, 6, 7])

    def test_windows_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            sliding_windows(np.arange(5.0), 4, 3)

    @pytest.mark.parametrize(
        "length,input_size,horizon",
        [(7, 4, 3), (8, 4, 3), (20, 5, 3), (97, 16, 8), (1440, 16, 8), (50, 1, 1)],
    )
    def test_windows_equal_the_per_row_construction(self, length, input_size, horizon):
        series = sine_series(length, seed=length)
        n = length - input_size - horizon + 1
        expected_x = np.stack([series[i : i + input_size] for i in range(n)])
        expected_y = np.stack(
            [series[i + input_size : i + input_size + horizon] for i in range(n)]
        )
        x, y = sliding_windows(series, input_size, horizon)
        for got, expected in ((x, expected_x), (y, expected_y)):
            assert got.shape == expected.shape
            assert got.flags.c_contiguous and got.flags.owndata
            assert got.tobytes() == expected.tobytes()


class TestMetrics:
    def test_rmse(self):
        assert rmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(np.sqrt(2.0))

    def test_mae(self):
        assert mae([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_coverage_full(self):
        samples = np.vstack([np.zeros(4), np.full(4, 10.0)])
        assert coverage(samples, np.full(4, 5.0), 0, 100) == 1.0

    def test_coverage_none(self):
        samples = np.vstack([np.zeros(4), np.ones(4)])
        assert coverage(samples, np.full(4, 5.0), 0, 100) == 0.0


class TestClassicalBaselines:
    def test_naive_repeats_last(self):
        f = NaiveForecaster().fit(np.arange(10.0))
        assert np.all(f.predict(np.array([1.0, 7.0]), 3) == 7.0)

    def test_seasonal_naive(self):
        series = np.tile(np.array([1.0, 2.0, 3.0]), 5)
        f = SeasonalNaiveForecaster(period=3).fit(series)
        prediction = f.predict(series, 3)
        assert np.allclose(prediction, [1.0, 2.0, 3.0])

    def test_ewma_constant_series(self):
        f = EWMAForecaster(alpha=0.5).fit(np.full(20, 4.0))
        assert np.allclose(f.predict(np.full(10, 4.0), 2), 4.0)

    def test_ar_learns_ar1(self):
        # x_t = 0.8 x_{t-1} + noise: AR fit should recover phi ~ 0.8.
        rng = np.random.default_rng(1)
        x = np.zeros(3000)
        for t in range(1, 3000):
            x[t] = 0.8 * x[t - 1] + rng.normal(0, 0.1)
        f = ARForecaster(order=2).fit(x)
        assert f.coef[-1] == pytest.approx(0.8, abs=0.08)

    def test_ar_beats_naive_on_sine(self):
        series = sine_series()
        f = ARForecaster(order=16).fit(series[:1500])
        horizon = 12
        errors_ar, errors_naive = [], []
        for start in range(1500, 1900, 37):
            history, truth = series[:start], series[start : start + horizon]
            errors_ar.append(rmse(f.predict(history, horizon), truth))
            errors_naive.append(rmse(np.full(horizon, history[-1]), truth))
        assert np.mean(errors_ar) < np.mean(errors_naive)

    def test_ar_too_short_series(self):
        with pytest.raises(ValueError):
            ARForecaster(order=8).fit(np.arange(5.0))

    def test_ar_sample_paths_nonnegative(self):
        f = ARForecaster(order=4).fit(sine_series(500))
        paths = f.sample_paths(sine_series(500)[:100], 6, 20)
        assert paths.shape == (20, 6)
        assert np.all(paths >= 0.0)

    def test_arma_fits_and_predicts(self):
        series = sine_series(800)
        f = ARMAForecaster(ar_order=4, ma_order=2).fit(series)
        prediction = f.predict(series[:400], 5)
        assert prediction.shape == (5,)
        assert np.all(np.isfinite(prediction))

    def test_arma_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ARMAForecaster().predict(np.zeros(10), 2)


class TestInterpolationMatrix:
    def test_single_knot_broadcasts(self):
        m = interpolation_matrix(1, 5)
        assert np.allclose(m, 1.0)

    def test_identity_when_equal(self):
        m = interpolation_matrix(4, 4)
        assert np.allclose(m, np.eye(4))

    def test_rows_sum_to_one(self):
        m = interpolation_matrix(3, 10)
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_endpoint_alignment(self):
        m = interpolation_matrix(3, 7)
        values = m @ np.array([0.0, 1.0, 2.0])
        assert values[0] == pytest.approx(0.0)
        assert values[-1] == pytest.approx(2.0)


class TestNHiTS:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NHiTSConfig(input_size=10, kernels=(3,))
        with pytest.raises(ValueError):
            NHiTSConfig(loss="nll", probabilistic=False)

    def test_unfitted_raises(self):
        f = NHiTSForecaster(NHiTSConfig(input_size=8, horizon=4))
        with pytest.raises(RuntimeError):
            f.predict(np.zeros(8), 4)

    def test_training_reduces_loss(self):
        series = sine_series(1200)
        config = NHiTSConfig(input_size=16, horizon=8, epochs=6, kernels=(4, 1))
        f = NHiTSForecaster(config).fit(series)
        assert f.loss_history[-1] < f.loss_history[0]

    def test_beats_naive_on_seasonal_signal(self):
        series = sine_series(2500)
        config = NHiTSConfig(input_size=16, horizon=8, epochs=8)
        f = NHiTSForecaster(config).fit(series[:2000])
        horizon = 8
        errors_model, errors_naive = [], []
        for start in range(2000, 2400, 31):
            history, truth = series[start - 16 : start], series[start : start + horizon]
            errors_model.append(rmse(f.predict(history, horizon), truth))
            errors_naive.append(rmse(np.full(horizon, history[-1]), truth))
        assert np.mean(errors_model) < np.mean(errors_naive)

    def test_probabilistic_outputs(self):
        series = sine_series(1000)
        f = NHiTSForecaster(NHiTSConfig(input_size=16, horizon=8, epochs=4)).fit(series)
        mu, sigma = f.predict_distribution(series[:500], 8)
        assert mu.shape == (8,) and sigma.shape == (8,)
        assert np.all(sigma > 0)

    def test_sample_paths_cover_truth(self):
        series = sine_series(2000)
        f = NHiTSForecaster(NHiTSConfig(input_size=16, horizon=8, epochs=8)).fit(
            series[:1600]
        )
        covs = []
        for start in range(1600, 1900, 41):
            history, truth = series[start - 16 : start], series[start : start + 8]
            paths = f.sample_paths(history, 8, 100)
            covs.append(coverage(paths, truth, 5, 95))
        assert np.mean(covs) > 0.5

    def test_horizon_extension_tiles(self):
        series = sine_series(1000)
        f = NHiTSForecaster(NHiTSConfig(input_size=16, horizon=8, epochs=2)).fit(series)
        long_pred = f.predict(series[:500], 20)
        assert long_pred.shape == (20,)

    def test_short_history_padded(self):
        series = sine_series(1000)
        f = NHiTSForecaster(NHiTSConfig(input_size=16, horizon=8, epochs=2)).fit(series)
        prediction = f.predict(np.array([50.0, 60.0]), 8)
        assert prediction.shape == (8,)
        assert np.all(prediction >= 0)

    def test_deterministic_given_seed(self):
        series = sine_series(800)
        config = NHiTSConfig(input_size=16, horizon=8, epochs=3, seed=5)
        a = NHiTSForecaster(config).fit(series).predict(series[:300], 8)
        b = NHiTSForecaster(config).fit(series).predict(series[:300], 8)
        assert np.allclose(a, b)


class TestLSTMForecasters:
    def test_lstm_fit_predict(self):
        series = sine_series(900)
        config = LSTMConfig(input_size=12, horizon=6, epochs=3, max_windows=256)
        f = LSTMForecaster(config).fit(series)
        prediction = f.predict(series[:400], 6)
        assert prediction.shape == (6,)
        assert f.loss_history[-1] < f.loss_history[0]

    def test_deepar_distribution(self):
        series = sine_series(900)
        config = LSTMConfig(input_size=12, horizon=6, epochs=3, max_windows=256)
        f = DeepARLiteForecaster(config).fit(series)
        mu, sigma = f.predict_distribution(series[:400], 6)
        assert np.all(sigma > 0)
        paths = f.sample_paths(series[:400], 6, 25)
        assert paths.shape == (25, 6)
        assert np.all(paths >= 0)


# ------------------------------------------------------ stacked N-HiTS training


def oracle_loss(config, mu, sigma, target):
    """``NHiTSForecaster._loss`` as the per-job loop used it: one scalar."""
    if config.loss == "mse":
        diff = mu - target
        return (diff * diff).mean()
    if config.loss == "mae":
        return (mu - target).abs().mean()
    diff = mu - target
    var = sigma * sigma
    return (var.log() * 0.5 + (diff * diff) / (var * 2.0)).mean()


def oracle_fit(forecaster, series):
    """The per-job training loop ``NHiTSForecaster.fit`` ran before stacking.

    Stacked training must match it bit for bit.  Returns, for each Adam
    step, whether ``Adam``'s gradient clipping fired.
    """
    cfg = forecaster.config
    series = np.asarray(series, dtype=float)
    forecaster.scaler.fit(series)
    normalized = forecaster.scaler.transform(series)
    inputs, targets = sliding_windows(normalized, cfg.input_size, cfg.horizon)
    if inputs.shape[0] > cfg.max_windows:
        keep = forecaster._rng.choice(inputs.shape[0], size=cfg.max_windows, replace=False)
        inputs, targets = inputs[keep], targets[keep]
    params = forecaster.network.parameters()
    optimizer = Adam(params, lr=cfg.lr)
    n = inputs.shape[0]
    forecaster.loss_history = []
    clipped = []
    for _ in range(cfg.epochs):
        order = forecaster._rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            index = order[start : start + cfg.batch_size]
            x = Tensor(inputs[index])
            y = Tensor(targets[index])
            mu, sigma = forecaster.network(x)
            loss = oracle_loss(cfg, mu, sigma, y)
            optimizer.zero_grad()
            loss.backward()
            norm = sum(float((p.grad**2).sum()) for p in params) ** 0.5
            clipped.append(norm > optimizer.clip_norm)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        forecaster.loss_history.append(epoch_loss / max(batches, 1))
    forecaster._fitted = True
    if not cfg.probabilistic:
        forecaster._estimate_residual_std(series, cfg.input_size, cfg.horizon)
    return clipped


def small_config(loss="nll", seed=0, **overrides):
    """A small N-HiTS whose 90-window cap is not a multiple of its batch."""
    settings = dict(
        input_size=8, horizon=4, hidden=12, epochs=2, batch_size=16,
        max_windows=90, loss=loss, probabilistic=loss == "nll", seed=seed,
    )
    settings.update(overrides)
    return NHiTSConfig(**settings)


def fit_state(forecaster, history):
    """Everything a fit leaves behind, in exactly comparable form."""
    return {
        "params": [(p.shape, p.data.tobytes()) for p in forecaster.network.parameters()],
        "loss_history": np.asarray(forecaster.loss_history).tobytes(),
        "scaler": (forecaster.scaler.mean, forecaster.scaler.std),
        "rng": forecaster._rng.bit_generator.state,
        "residual_std": forecaster.residual_std,
        "paths": forecaster.sample_paths(
            history, 6, 8, rng=np.random.default_rng(11)
        ).tobytes(),
    }


def assert_fit_many_matches_oracle(configs, series):
    """Train twins: ``fit_many`` on one set, the oracle job by job on the other."""
    stacked = [NHiTSForecaster(config) for config in configs]
    reference = [NHiTSForecaster(config) for config in configs]
    NHiTSForecaster.fit_many(stacked, series)
    clipped = [oracle_fit(job, values) for job, values in zip(reference, series)]
    for job, twin, values in zip(stacked, reference, series):
        assert fit_state(job, values[:40]) == fit_state(twin, values[:40])
    return clipped


def spy_stacks(monkeypatch, threads=None):
    """Record the job count of every stacked model ``fit_many`` trains (in
    the order the pool starts them) and, into ``threads``, the thread that
    trained each."""
    sizes = []
    fit_stack = nhits._fit_stack

    def recording(stack, series):
        sizes.append(len(stack))
        if threads is not None:
            threads.append(threading.current_thread())
        fit_stack(stack, series)

    monkeypatch.setattr(nhits, "_fit_stack", recording)
    return sizes


class TestStackedTraining:
    #: Window counts 189 (capped to 90 = 5 x 16 + 10) and 65 (= 4 x 16 + 1,
    #: a one-row last batch) at input 8 + horizon 4.
    @pytest.mark.parametrize("length", [200, 76])
    @pytest.mark.parametrize("loss", ["nll", "mse", "mae"])
    @pytest.mark.parametrize("jobs", [1, 4, 5, 9])
    def test_matches_per_job_oracle(self, jobs, loss, length, monkeypatch):
        sizes = spy_stacks(monkeypatch)
        configs = [small_config(loss, seed=3 * j + 1) for j in range(jobs)]
        series = [sine_series(length, period=30 + j, seed=j) for j in range(jobs)]
        assert_fit_many_matches_oracle(configs, series)
        expected = [4] * (jobs // 4) + ([jobs % 4] if jobs % 4 else [])
        assert sorted(sizes) == sorted(expected)

    def test_mixed_lengths_and_configs_split_into_stacks(self, monkeypatch):
        sizes = spy_stacks(monkeypatch)
        # 200 and 300 both cap at 90 windows; 76 and 88 stay below the cap.
        lengths = [200, 76, 300, 88, 200, 76, 300, 200, 88, 200, 76]
        losses = ["nll"] * 8 + ["mse"] * 3
        configs = [small_config(loss, seed=j) for j, loss in enumerate(losses)]
        series = [sine_series(n, period=25, seed=j) for j, n in enumerate(lengths)]
        assert_fit_many_matches_oracle(configs, series)
        # nll at 90 windows: 5 jobs; nll at 65: 2; nll at 77: 1;
        # mse at 77 (88), 90 (200) and 65 (76): 1 each.
        assert sorted(sizes) == [1, 1, 1, 1, 1, 2, 4]

    def test_stacks_train_concurrently_off_the_calling_thread(self, monkeypatch):
        threads = []
        sizes = spy_stacks(monkeypatch, threads)
        # nll at 90 windows: 4 jobs; nll at 65: 3; nll at 77, mse at 77
        # and mse at 90: 1 each.
        lengths = [200, 76, 300, 200, 88, 76, 200, 76, 88, 200]
        losses = ["nll"] * 8 + ["mse"] * 2
        configs = [small_config(loss, seed=j) for j, loss in enumerate(losses)]
        series = [sine_series(n, period=25 + j, seed=j) for j, n in enumerate(lengths)]
        assert_fit_many_matches_oracle(configs, series)
        assert sorted(sizes) == [1, 1, 1, 3, 4]
        assert threading.current_thread() not in threads
        assert all(t.name.startswith("nhits-fit") for t in threads)
        # One thread per core, up to one per stack; one on the tape.
        width = min(len(sizes), nhits._cores()) if nhits.kernel() else 1
        assert len(set(threads)) <= width

    def test_a_failing_stack_raises_and_leaves_no_thread(self):
        before = threading.active_count()
        configs = [small_config("nll", seed=j) for j in range(6)]
        series = [sine_series(200, seed=j) for j in range(5)] + [np.arange(10.0)]
        forecasters = [NHiTSForecaster(config) for config in configs]
        with pytest.raises(ValueError, match="too short"):
            NHiTSForecaster.fit_many(forecasters, series)
        assert threading.active_count() == before
        # The stacks that could train still did.
        assert all(f._fitted for f in forecasters[:4])

    def test_clip_fires_for_some_jobs_of_a_stack(self):
        rng = np.random.default_rng(2)
        spiky = np.full(200, 10.0) + rng.normal(0, 0.1, 200)
        spiky[rng.choice(200, 4, replace=False)] = 500.0
        series = [
            sine_series(200, period=40, seed=1),
            spiky,
            np.repeat(rng.uniform(0, 100, 20), 10),
            sine_series(200, period=144, seed=4),
        ]
        configs = [small_config("nll", seed=j) for j in range(4)]
        clipped = assert_fit_many_matches_oracle(configs, series)
        assert any(len(set(step)) == 2 for step in zip(*clipped))

    def test_clip_rounds_like_adam_where_sqrt_would_not(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(-3.0, 3.0, (20000, 7))

        def adam_clipped(row):
            params = [Tensor(row[:3], requires_grad=True), Tensor(row[3:], requires_grad=True)]
            for param in params:
                param.grad = param.data.copy()
            Adam(params, clip_norm=5.0)._clip()
            return np.concatenate([p.grad for p in params])

        totals = [float((row[:3] ** 2).sum()) + float((row[3:] ** 2).sum()) for row in rows]
        # Clipped rows whose norm np.sqrt would round differently, plus
        # two that do not clip.
        picked = [
            row for row, total in zip(rows, totals)
            if total**0.5 > 5.0 and total**0.5 != float(np.sqrt(total))
        ]
        assert picked
        picked += [row for row, total in zip(rows, totals) if total**0.5 < 5.0][:2]
        stacked = np.array(picked)
        params = [
            Tensor(stacked[:, :3], requires_grad=True),
            Tensor(stacked[:, None, 3:], requires_grad=True),
        ]
        for param in params:
            param.grad = param.data.copy()
        nhits._clip_each_job(params, 5.0)
        clipped = np.concatenate([params[0].grad, params[1].grad[:, 0]], axis=1)
        expected = np.array([adam_clipped(row) for row in picked])
        assert clipped.tobytes() == expected.tobytes()

    def test_refit_of_a_fitted_forecaster_matches_oracle(self):
        configs = [small_config("nll", seed=j) for j in range(3)]
        stacked = [NHiTSForecaster(config) for config in configs]
        reference = [NHiTSForecaster(config) for config in configs]
        for round_ in range(2):
            series = [sine_series(150 + 40 * round_, seed=10 * round_ + j) for j in range(3)]
            NHiTSForecaster.fit_many(stacked, series)
            for job, values in zip(reference, series):
                oracle_fit(job, values)
            for job, twin, values in zip(stacked, reference, series):
                assert fit_state(job, values[:40]) == fit_state(twin, values[:40])

    def test_fit_is_the_one_job_stack(self):
        config = small_config("mse")
        series = sine_series(200, seed=5)
        job, twin = NHiTSForecaster(config), NHiTSForecaster(config)
        assert job.fit(series) is job
        NHiTSForecaster.fit_many([twin], [series])
        assert fit_state(job, series[:40]) == fit_state(twin, series[:40])

    def test_rejects_mismatched_or_repeated_jobs(self):
        job = NHiTSForecaster(small_config())
        with pytest.raises(ValueError, match="2 series"):
            NHiTSForecaster.fit_many([job], [np.zeros(50), np.zeros(50)])
        with pytest.raises(ValueError, match="only once"):
            NHiTSForecaster.fit_many([job, job], [np.zeros(50), np.zeros(50)])

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError, match="too short"):
            NHiTSForecaster.fit_many(
                [NHiTSForecaster(small_config())], [np.arange(10.0)]
            )


def forecaster_digest(forecasters) -> str:
    """sha256 over each job's name, parameter bytes and loss history."""
    hasher = hashlib.sha256()
    for name, forecaster in forecasters.items():
        hasher.update(name.encode())
        for param in forecaster.network.parameters():
            hasher.update(param.data.tobytes())
        hasher.update(np.asarray(forecaster.loss_history, dtype=float).tobytes())
    return hasher.hexdigest()


#: ``forecaster_digest`` of ``train_predictors`` output, captured on the
#: per-job training loop (commit bf3509c) before jobs were stacked.  Do not
#: regenerate them: a mismatch means trained forecasters changed.
PER_JOB_TRAINING_DIGESTS = {
    # The paper scenario's 10 jobs with the fast profile: 16 minibatches
    # per epoch over 14,400-minute traces, with clipped steps.
    "paper-fast": "ad140da204baf1142547eec9293a5f17d0fab755a293a3bbb29e4cf4c7d91528",
    # 9 large-scale jobs, trained as stacks of 4 + 4 + 1.
    "large-scale-9": "dbfe69f70505dec416435842dfa58a1a89168ab2549dc58aa3cf8745ca57cf83",
}


class TestTrainedForecasterPins:
    @pytest.fixture(autouse=True)
    def _empty_cache(self, monkeypatch):
        monkeypatch.setattr(policies, "_PREDICTOR_CACHE", {})

    def test_paper_scenario_fast_profile(self):
        scenario = api.ScenarioSpec(kind="paper").build()
        forecasters = train_predictors(scenario, PredictorProfile.fast(), seed=0)
        assert len(forecasters) == 10
        assert forecaster_digest(forecasters) == PER_JOB_TRAINING_DIGESTS["paper-fast"]

    def test_large_scale_stacks_of_four(self, monkeypatch):
        sizes = spy_stacks(monkeypatch)
        scenario = api.ScenarioSpec(
            kind="large-scale",
            params={"num_jobs": 9, "total_replicas": 36, "duration_minutes": 30,
                    "days": 2},
        ).build()
        profile = PredictorProfile(epochs=3, max_windows=200, hidden=16)
        forecasters = train_predictors(scenario, profile, seed=0)
        assert sorted(sizes) == [1, 4, 4]
        assert forecaster_digest(forecasters) == PER_JOB_TRAINING_DIGESTS["large-scale-9"]
