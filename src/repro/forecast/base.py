"""Forecaster interface and input scaling."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["Forecaster", "StandardScaler", "sliding_windows"]


class StandardScaler:
    """Standardize series by training mean/std; inverse for predictions."""

    def __init__(self) -> None:
        self.mean = 0.0
        self.std = 1.0
        self._fitted = False

    def fit(self, series: np.ndarray) -> "StandardScaler":
        series = np.asarray(series, dtype=float)
        if series.size == 0:
            raise ValueError("cannot fit scaler on an empty series")
        self.mean = float(series.mean())
        self.std = float(series.std())
        if self.std < 1e-12:
            self.std = 1.0
        self._fitted = True
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("scaler is not fitted")
        return (np.asarray(values, dtype=float) - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("scaler is not fitted")
        return np.asarray(values, dtype=float) * self.std + self.mean


def sliding_windows(
    series: np.ndarray, input_size: int, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """All (input, target) windows of a 1-D series.

    Returns ``X`` of shape (n, input_size) and ``Y`` of shape (n, horizon),
    each one C-contiguous copy of a strided view of ``series``.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {series.shape}")
    n = series.shape[0] - input_size - horizon + 1
    if n <= 0:
        raise ValueError(
            f"series of length {series.shape[0]} too short for "
            f"input {input_size} + horizon {horizon}"
        )
    inputs = sliding_window_view(series[: n + input_size - 1], input_size).copy()
    targets = sliding_window_view(series[input_size:], horizon).copy()
    return inputs, targets


class Forecaster(ABC):
    """Common interface for all workload forecasters.

    A forecaster is fit on a 1-D arrival-rate history and then queried with
    an arbitrary recent history window.  ``sample_paths`` is the
    probabilistic interface the autoscaler consumes; point forecasters
    default to sampling around the point forecast using the residual
    standard deviation estimated during fitting.
    """

    #: Residual standard deviation estimated at fit time (original units).
    residual_std: float = 0.0

    @abstractmethod
    def fit(self, series: np.ndarray) -> "Forecaster":
        """Train on a historical series (original units)."""

    @abstractmethod
    def predict(self, history: np.ndarray, horizon: int) -> np.ndarray:
        """Point forecast of the next ``horizon`` values."""

    def sample_paths(
        self,
        history: np.ndarray,
        horizon: int,
        num_samples: int,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Sampled future trajectories, shape (num_samples, horizon).

        Default implementation adds i.i.d. Gaussian noise with the fitted
        residual standard deviation to the point forecast; probabilistic
        models override this with true distributional samples.
        """
        rng = rng or np.random.default_rng(0)
        point = self.predict(history, horizon)
        noise = rng.normal(0.0, max(self.residual_std, 1e-12), size=(num_samples, horizon))
        return np.maximum(point[None, :] + noise, 0.0)

    def _estimate_residual_std(self, series: np.ndarray, input_size: int, horizon: int) -> None:
        """Fill :attr:`residual_std` from one-shot backtesting on ``series``."""
        series = np.asarray(series, dtype=float)
        usable = series.shape[0] - input_size - horizon + 1
        if usable <= 1:
            self.residual_std = float(series.std())
            return
        step = max(usable // 64, 1)
        errors = []
        for start in range(0, usable, step):
            history = series[start : start + input_size]
            target = series[start + input_size : start + input_size + horizon]
            prediction = self.predict(history, horizon)
            errors.append(prediction - target)
        stacked = np.concatenate(errors)
        self.residual_std = float(np.sqrt(np.mean(stacked**2)))
