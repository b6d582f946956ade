"""Shared trained predictors for the registered policies.

Policy construction lives in :mod:`repro.api.builtin`, where every Faro
variant, baseline, and controller registers itself on the
:class:`repro.api.PolicyRegistry` with a typed options schema
(``repro.api.get_registry().build(...)`` builds one instance).  This
module holds what those builders share: :class:`PredictorProfile`, the
predictor-training budget, and :func:`train_predictors`, which trains
every job's N-HiTS forecaster once per scenario and caches the result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.experiments.scenarios import Scenario
from repro.forecast.nhits import NHiTSConfig, NHiTSForecaster

__all__ = ["PredictorProfile", "train_predictors"]


@dataclass(frozen=True)
class PredictorProfile:
    """Training budget for per-job N-HiTS predictors.

    The 'fast' profile keeps bench suites quick; 'paper' approaches the
    paper's <10-minute training budget.
    """

    epochs: int = 6
    max_windows: int = 1024
    input_size: int = 16
    horizon: int = 8
    hidden: int = 48

    @classmethod
    def fast(cls) -> "PredictorProfile":
        return cls()

    @classmethod
    def paper(cls) -> "PredictorProfile":
        return cls(epochs=20, max_windows=4096, hidden=64)

    def config(self, seed: int) -> NHiTSConfig:
        """The probabilistic N-HiTS config of one job under this budget."""
        return NHiTSConfig(
            input_size=self.input_size,
            horizon=self.horizon,
            hidden=self.hidden,
            epochs=self.epochs,
            max_windows=self.max_windows,
            probabilistic=True,
            loss="nll",
            seed=seed,
        )


_PREDICTOR_CACHE: dict[tuple, dict[str, NHiTSForecaster]] = {}


def _training_digest(scenario: Scenario) -> str:
    """Content digest of the training inputs (job names + train traces).

    The cache used to key on ``scenario.name``, which silently served
    stale forecasters when two differently-parameterized scenarios shared
    a display name (e.g. the same ``ScenarioSpec.name`` override across
    runs in one process).  Keying on the actual training bytes makes a hit
    bit-identical to retraining, which the sharded sweep executor's
    differential tests rely on: a fresh worker process (empty cache) and a
    long-lived serial process (warm cache) must produce the same results.
    """
    hasher = hashlib.sha256()
    for name in scenario.job_names:
        hasher.update(name.encode())
        trace = np.ascontiguousarray(np.asarray(scenario.train_traces[name], dtype=float))
        hasher.update(trace.tobytes())
    return hasher.hexdigest()


def train_predictors(
    scenario: Scenario, profile: PredictorProfile | None = None, seed: int = 0
) -> dict[str, NHiTSForecaster]:
    """Train (or fetch cached) probabilistic N-HiTS forecasters per job.

    Models are trained on each job's training days in requests/minute units,
    all jobs in one stacked :meth:`NHiTSForecaster.fit_many` call;
    the returned forecasters are shared -- wrap them in
    :class:`ForecastWorkloadPredictor` per policy.  The cache key is a
    content digest of the training traces, so a hit is guaranteed to match
    what retraining would produce.
    """
    profile = profile or PredictorProfile.fast()
    key = (_training_digest(scenario), profile, seed)
    if key in _PREDICTOR_CACHE:
        return _PREDICTOR_CACHE[key]
    forecasters = {
        name: NHiTSForecaster(profile.config(seed + index))
        for index, name in enumerate(scenario.job_names)
    }
    NHiTSForecaster.fit_many(
        list(forecasters.values()),
        [scenario.train_traces[name] for name in forecasters],
    )
    _PREDICTOR_CACHE[key] = forecasters
    return forecasters
