"""N-HiTS-lite: neural hierarchical interpolation for time series (§3.5.1).

Follows the structure of Challu et al. (AAAI'23) scaled to this repo's
from-scratch autodiff engine:

- **multi-rate input sampling**: each stack pools the input window with a
  different kernel size, letting coarse stacks model slow trends and the
  finest stack model residual detail;
- **hierarchical interpolation**: each block emits backcast/forecast
  *knots* at the pooled resolution, upsampled to full resolution by fixed
  linear-interpolation matrices;
- **residual stacking**: each block subtracts its backcast from the running
  input residual and adds its forecast to the running output.

Probabilistic mode (paper §3.5.2) adds per-step Gaussian parameters: blocks
additionally emit sigma knots; the model is trained with the Gaussian
negative log-likelihood, and :meth:`NHiTSForecaster.sample_paths` draws
trajectories from the predicted distribution -- exactly the signal Faro's
autoscaler consumes to plan for workload fluctuation.

Training is stacked: :meth:`NHiTSForecaster.fit_many` trains up to
``_STACK_SIZE`` jobs whose configs differ only in ``seed`` (and whose window
counts match after the ``max_windows`` cap) as one model with a leading
job axis on every parameter -- one forward pass, one backward pass and one
Adam update per minibatch for the whole stack, which shares the autodiff
engine's per-op bookkeeping between jobs.  Each job keeps its own
generator, its own loss (a mean over batch and horizon) and its own
gradient clipping, so it comes out bit-identical to being trained alone;
:meth:`NHiTSForecaster.fit` is the one-job stack.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.autodiff import MLP, Adam, Module, Tensor
from repro.forecast.base import Forecaster, StandardScaler, sliding_windows

__all__ = ["NHiTSConfig", "NHiTSForecaster"]

#: Jobs per stacked training model: a training step's autodiff graph peaks at
#: ~0.8 MB per stacked job (fast profile), and stacks of 8 train no faster.
_STACK_SIZE = 4

#: Gradient-norm bound of every job's update (``Adam``'s default clip_norm,
#: applied to each stacked job on its own).
_CLIP_NORM = 5.0


def interpolation_matrix(knots: int, length: int) -> np.ndarray:
    """Fixed linear-interpolation matrix mapping ``knots`` values to ``length``.

    Row ``t`` holds the interpolation weights of the knots for output step
    ``t``; with a single knot the value is simply broadcast.
    """
    if knots < 1 or length < 1:
        raise ValueError("knots and length must be >= 1")
    matrix = np.zeros((length, knots))
    if knots == 1:
        matrix[:, 0] = 1.0
        return matrix
    positions = np.linspace(0.0, knots - 1.0, length)
    lower = np.floor(positions).astype(int)
    upper = np.minimum(lower + 1, knots - 1)
    frac = positions - lower
    for t in range(length):
        matrix[t, lower[t]] += 1.0 - frac[t]
        matrix[t, upper[t]] += frac[t]
    return matrix


@dataclass(frozen=True)
class NHiTSConfig:
    """Architecture and training hyper-parameters.

    ``kernels`` gives one stack per entry (its input pooling kernel);
    ``input_size`` must be divisible by every kernel.  Defaults match the
    paper's small-footprint usage (<10 min of training, no tuning).
    """

    input_size: int = 16
    horizon: int = 8
    kernels: tuple[int, ...] = (4, 2, 1)
    hidden: int = 64
    depth: int = 2
    probabilistic: bool = True
    epochs: int = 15
    batch_size: int = 64
    lr: float = 1e-3
    max_windows: int = 4096
    sigma_floor: float = 1e-3
    loss: str = "nll"  # "nll" (probabilistic), "mse" or "mae" (point)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_size < 1 or self.horizon < 1:
            raise ValueError("input_size and horizon must be >= 1")
        for kernel in self.kernels:
            if kernel < 1 or self.input_size % kernel != 0:
                raise ValueError(
                    f"input_size {self.input_size} must be divisible by kernel {kernel}"
                )
        if self.loss not in ("nll", "mse", "mae"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.loss == "nll" and not self.probabilistic:
            raise ValueError("nll loss requires probabilistic=True")


class _Block(Module):
    """One N-HiTS block: pooled input -> MLP -> backcast/forecast(/sigma) knots."""

    def __init__(self, config: NHiTSConfig, kernel: int, rng: np.random.Generator) -> None:
        self.kernel = kernel
        pooled = config.input_size // kernel
        self.backcast_knots = pooled
        self.forecast_knots = max(1, config.horizon // kernel)
        outputs = self.backcast_knots + self.forecast_knots
        if config.probabilistic:
            outputs += self.forecast_knots
        sizes = [pooled] + [config.hidden] * config.depth + [outputs]
        self.mlp = MLP(sizes, rng)
        self.backcast_interp = Tensor(
            interpolation_matrix(self.backcast_knots, config.input_size).T
        )
        self.forecast_interp = Tensor(
            interpolation_matrix(self.forecast_knots, config.horizon).T
        )
        self.probabilistic = config.probabilistic

    def forward(self, residual: Tensor) -> tuple[Tensor, Tensor, Tensor | None]:
        pooled = residual.avg_pool1d(self.kernel)
        theta = self.mlp(pooled)
        b, f = self.backcast_knots, self.forecast_knots
        backcast = theta[..., 0:b] @ self.backcast_interp
        forecast = theta[..., b : b + f] @ self.forecast_interp
        sigma_raw = None
        if self.probabilistic:
            sigma_raw = theta[..., b + f : b + 2 * f] @ self.forecast_interp
        return backcast, forecast, sigma_raw


class _NHiTSNetwork(Module):
    def __init__(self, config: NHiTSConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.blocks = [_Block(config, kernel, rng) for kernel in config.kernels]

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor | None]:
        """Returns (mu, sigma) in normalized units; sigma None for point mode."""
        residual = x
        forecast_sum: Tensor | None = None
        sigma_sum: Tensor | None = None
        for block in self.blocks:
            backcast, forecast, sigma_raw = block(residual)
            residual = residual - backcast
            forecast_sum = forecast if forecast_sum is None else forecast_sum + forecast
            if sigma_raw is not None:
                sigma_sum = sigma_raw if sigma_sum is None else sigma_sum + sigma_raw
        assert forecast_sum is not None
        if sigma_sum is None:
            return forecast_sum, None
        sigma = sigma_sum.softplus() + self.config.sigma_floor
        return forecast_sum, sigma


class NHiTSForecaster(Forecaster):
    """Trainable N-HiTS-lite forecaster (point or probabilistic)."""

    def __init__(self, config: NHiTSConfig | None = None) -> None:
        self.config = config or NHiTSConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.network = _NHiTSNetwork(self.config, self._rng)
        self.scaler = StandardScaler()
        self.loss_history: list[float] = []
        self._fitted = False

    # -------------------------------------------------------------- train

    def _loss(self, mu: Tensor, sigma: Tensor | None, target: Tensor) -> Tensor:
        """Mean loss over (batch, horizon): a scalar, or one per stacked job."""
        axes = (-2, -1)
        if self.config.loss == "mse":
            diff = mu - target
            return (diff * diff).mean(axis=axes)
        if self.config.loss == "mae":
            return (mu - target).abs().mean(axis=axes)
        assert sigma is not None
        diff = mu - target
        var = sigma * sigma
        return (var.log() * 0.5 + (diff * diff) / (var * 2.0)).mean(axis=axes)

    def _windows(self, series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fit the scaler; the normalized training windows, capped at ``max_windows``."""
        cfg = self.config
        self.scaler.fit(series)
        normalized = self.scaler.transform(series)
        inputs, targets = sliding_windows(normalized, cfg.input_size, cfg.horizon)
        if inputs.shape[0] > cfg.max_windows:
            keep = self._rng.choice(inputs.shape[0], size=cfg.max_windows, replace=False)
            inputs, targets = inputs[keep], targets[keep]
        return inputs, targets

    def fit(self, series: np.ndarray) -> "NHiTSForecaster":
        NHiTSForecaster.fit_many([self], [series])
        return self

    @staticmethod
    def fit_many(
        forecasters: Sequence["NHiTSForecaster"], series: Sequence[np.ndarray]
    ) -> None:
        """Fit each forecaster on its series, up to ``_STACK_SIZE`` jobs per model.

        Jobs whose configs match apart from ``seed`` and whose window counts
        match after the ``max_windows`` cap train as one stacked model; every
        job comes out exactly as a one-job :meth:`fit` would leave it.
        """
        if len(forecasters) != len(series):
            raise ValueError(
                f"{len(forecasters)} forecasters but {len(series)} series"
            )
        if len({id(f) for f in forecasters}) != len(forecasters):
            raise ValueError("each forecaster may appear only once")
        series = [np.asarray(values, dtype=float) for values in series]
        groups: dict[tuple, list[int]] = {}
        for index, (forecaster, values) in enumerate(zip(forecasters, series)):
            cfg = forecaster.config
            windows = min(values.shape[0] - cfg.input_size - cfg.horizon + 1, cfg.max_windows)
            groups.setdefault((replace(cfg, seed=0), windows), []).append(index)
        for members in groups.values():
            for start in range(0, len(members), _STACK_SIZE):
                stack = members[start : start + _STACK_SIZE]
                _fit_stack([forecasters[i] for i in stack], [series[i] for i in stack])

    # ------------------------------------------------------------ predict

    def _prepare_history(self, history: np.ndarray) -> np.ndarray:
        history = np.asarray(history, dtype=float)
        size = self.config.input_size
        if history.size < size:
            pad_value = history[0] if history.size else self.scaler.mean
            history = np.concatenate([np.full(size - history.size, pad_value), history])
        return self.scaler.transform(history[-size:])

    def _forward_distribution(self, history: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        if not self._fitted:
            raise RuntimeError("forecaster is not fitted")
        window = self._prepare_history(history)[None, :]
        mu, sigma = self.network(Tensor(window))
        mu_data = mu.numpy()[0]
        sigma_data = sigma.numpy()[0] if sigma is not None else None
        return mu_data, sigma_data

    def _tile_horizon(self, values: np.ndarray, horizon: int) -> np.ndarray:
        if horizon <= values.shape[0]:
            return values[:horizon]
        repeats = int(np.ceil(horizon / values.shape[0]))
        return np.tile(values, repeats)[:horizon]

    def predict(self, history: np.ndarray, horizon: int) -> np.ndarray:
        mu, _ = self._forward_distribution(history)
        denorm = self.scaler.inverse(mu)
        return np.maximum(self._tile_horizon(denorm, horizon), 0.0)

    def predict_distribution(
        self, history: np.ndarray, horizon: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-step Gaussian (mu, sigma) in original units."""
        mu, sigma = self._forward_distribution(history)
        if sigma is None:
            sigma = np.full_like(mu, max(self.residual_std / max(self.scaler.std, 1e-12), 1e-6))
        mu_denorm = self.scaler.inverse(mu)
        sigma_denorm = sigma * self.scaler.std
        return (
            self._tile_horizon(mu_denorm, horizon),
            self._tile_horizon(sigma_denorm, horizon),
        )

    def sample_paths(
        self,
        history: np.ndarray,
        horizon: int,
        num_samples: int,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        rng = rng or np.random.default_rng(0)
        mu, sigma = self.predict_distribution(history, horizon)
        noise = rng.normal(size=(num_samples, horizon))
        return np.maximum(mu[None, :] + noise * sigma[None, :], 0.0)


# ------------------------------------------------------------ stacked training


def _fit_stack(stack: list[NHiTSForecaster], series: list[np.ndarray]) -> None:
    """Train jobs of one config and window count as one stacked model.

    Every parameter gains a leading job axis (biases stack as
    ``(J, 1, out)``), so one forward pass, one backward pass and one Adam
    update per minibatch serve the whole stack.  Each job keeps its own
    generator, its own loss and its own gradient clipping.
    """
    cfg = stack[0].config
    inputs, targets = zip(*(job._windows(values) for job, values in zip(stack, series)))
    own = [job.network.parameters() for job in stack]
    network = copy.deepcopy(stack[0].network)
    params = network.parameters()
    for k, param in enumerate(params):
        param.data = np.stack([np.atleast_2d(job_params[k].data) for job_params in own])
    optimizer = Adam(params, lr=cfg.lr, clip_norm=None)
    n = inputs[0].shape[0]
    history = np.empty((cfg.epochs, len(stack)))
    for epoch in range(cfg.epochs):
        orders = [job._rng.permutation(n) for job in stack]
        epoch_loss = np.zeros(len(stack))
        batches = 0
        for start in range(0, n, cfg.batch_size):
            index = [order[start : start + cfg.batch_size] for order in orders]
            x = Tensor(np.stack([rows[i] for rows, i in zip(inputs, index)]))
            y = Tensor(np.stack([rows[i] for rows, i in zip(targets, index)]))
            epoch_loss += _train_step(network, optimizer, stack[0]._loss, x, y)
            batches += 1
        history[epoch] = epoch_loss / max(batches, 1)
    for j, (job, values) in enumerate(zip(stack, series)):
        job.loss_history = history[:, j].tolist()
        for param, mine in zip(params, own[j]):
            mine.data[...] = param.data[j].reshape(mine.shape)
        job._fitted = True
        if not cfg.probabilistic:
            job._estimate_residual_std(values, cfg.input_size, cfg.horizon)


def _train_step(
    network: _NHiTSNetwork, optimizer: Adam, loss, x: Tensor, y: Tensor
) -> np.ndarray:
    """One minibatch for a whole stack; returns each job's loss.

    The step's autodiff graph, gradients included, dies on return, before
    the next forward pass builds its own.
    """
    mu, sigma = network(x)
    losses = loss(mu, sigma, y)
    optimizer.zero_grad()
    losses.sum().backward()
    _clip_each_job(optimizer.params, _CLIP_NORM)
    optimizer.step()
    return losses.data


def _clip_each_job(params: list[Tensor], clip_norm: float) -> None:
    """``Adam``'s gradient clipping, applied to each stacked job on its own.

    The squared norm sums parameter by parameter in ``Adam._clip``'s order,
    and the root is Python's ``float ** 0.5`` as there: ``np.sqrt`` rounds
    some values differently, which would change any step that clips.
    """
    totals = np.zeros(params[0].shape[0])
    for param in params:
        totals += (param.grad**2).sum(axis=tuple(range(1, param.grad.ndim)))
    for j, total in enumerate(totals.tolist()):
        norm = total**0.5
        if norm > clip_norm and norm > 0:
            scale = clip_norm / norm
            for param in params:
                param.grad[j] *= scale
