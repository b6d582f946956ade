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
Adam update per minibatch for the whole stack.  Each job keeps its own
generator, its own loss (a mean over batch and horizon) and its own
gradient clipping, so it comes out bit-identical to being trained alone;
:meth:`NHiTSForecaster.fit` is the one-job stack.

A step runs on a compiled kernel (``nhits.c``, loaded by :func:`kernel`
through :func:`repro.native.load`): C runs the forward pass up to the
summed forecast and sigma knots, the loss head (softplus, sigma floor and
``_loss``) runs on the autodiff tape from those two leaves, and C runs the
backward pass, each job's clip and Adam in place on flat numpy buffers
that the stack owns.  Every matrix product in C is the BLAS call numpy's
``@`` makes, through :func:`repro.native.blas`, so the kernel gives the
tape's bits; the tape (:class:`_TapeStep`) is its oracle, and the fallback
when it cannot load.  Python keeps the epoch loop, each job's ``_rng``
draws and the minibatch gather either way.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro import native
from repro.autodiff import MLP, Adam, Module, Tensor
from repro.forecast.base import Forecaster, StandardScaler, sliding_windows

__all__ = ["NHiTSConfig", "NHiTSForecaster", "kernel"]

SOURCE = Path(__file__).with_name("nhits.c")

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
        return self.head(forecast_sum, sigma_sum)

    def head(self, forecast_sum: Tensor, sigma_sum: Tensor | None) -> tuple[Tensor, Tensor | None]:
        """``(mu, sigma)`` from the blocks' summed forecasts and sigma knots."""
        if sigma_sum is None:
            return forecast_sum, None
        return forecast_sum, sigma_sum.softplus() + self.config.sigma_floor


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
    windows = [job._windows(values) for job, values in zip(stack, series)]
    inputs, targets = map(np.stack, zip(*windows))
    network = _stacked_network(stack)
    step = (kernel() or _TapeStep)(network, stack[0]._loss, cfg.lr)
    jobs = np.arange(len(stack))[:, None]
    n = inputs.shape[1]
    history = np.empty((cfg.epochs, len(stack)))
    for epoch in range(cfg.epochs):
        orders = np.stack([job._rng.permutation(n) for job in stack])
        epoch_loss = np.zeros(len(stack))
        batches = 0
        for start in range(0, n, cfg.batch_size):
            index = orders[:, start : start + cfg.batch_size]
            epoch_loss += step(inputs[jobs, index], targets[jobs, index])
            batches += 1
        history[epoch] = epoch_loss / max(batches, 1)
    params = network.parameters()
    for j, (job, values) in enumerate(zip(stack, series)):
        job.loss_history = history[:, j].tolist()
        for param, mine in zip(params, job.network.parameters()):
            mine.data[...] = param.data[j].reshape(mine.shape)
        job._fitted = True
        if not cfg.probabilistic:
            job._estimate_residual_std(values, cfg.input_size, cfg.horizon)


def _stacked_network(stack: Sequence[NHiTSForecaster]) -> _NHiTSNetwork:
    """A copy of the first job's network holding every job's parameters,
    stacked on a leading job axis."""
    own = [job.network.parameters() for job in stack]
    network = copy.deepcopy(stack[0].network)
    for k, param in enumerate(network.parameters()):
        param.data = np.stack([np.atleast_2d(job_params[k].data) for job_params in own])
    return network


class _TapeStep:
    """One minibatch for a whole stack on the autodiff tape; returns each
    job's loss.  The kernel's oracle, and its fallback.

    The step's autodiff graph, gradients included, dies on return, before
    the next forward pass builds its own.
    """

    def __init__(self, network: _NHiTSNetwork, loss, lr: float) -> None:
        self.network = network
        self.loss = loss
        self.optimizer = Adam(network.parameters(), lr=lr, clip_norm=None)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        mu, sigma = self.network(Tensor(x))
        losses = self.loss(mu, sigma, Tensor(y))
        self.optimizer.zero_grad()
        losses.sum().backward()
        _clip_each_job(self.optimizer.params, _CLIP_NORM)
        self.optimizer.step()
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


# ------------------------------------------------------------ compiled step

_CDEF = native.BLAS_CDEF + """
int64_t nhits_workspace(const int64_t *shape, int64_t rows);
void nhits_forward(const Blas *blas, const int64_t *shape, int64_t rows,
                   const double *params, const double *interp, const double *x,
                   double *work, double *mu, double *sigma_sum);
void nhits_backward(const Blas *blas, const int64_t *shape, int64_t rows,
                    const double *params, const double *interp, double *work,
                    const double *grad_mu, const double *grad_sigma,
                    double *grads);
void nhits_update(const int64_t *shape, double *params, double *grads,
                  double *m, double *v, double clip_norm, double lr,
                  double beta1, double beta2, double one_minus_beta1,
                  double one_minus_beta2, double correction1,
                  double correction2, double eps);
"""


@functools.cache
def kernel() -> Callable | None:
    """The compiled step, ``kernel()(network, loss, lr)``, or ``None`` when
    it cannot load.

    Loaded once per process, on the first stacked fit, and checked once
    against :class:`_TapeStep` on a fixed corpus.
    """
    return native.load(
        "nhits", SOURCE, _CDEF, _bind, _self_check,
        fallback="N-HiTS trains on the autodiff tape",
    )


def _bind(ffi, library) -> Callable:
    """The kernel's step factory, on numpy's BLAS."""
    native.blas()  # refuse to load without numpy's routines
    return functools.partial(_KernelStep, ffi, library)


class _KernelStep:
    """One minibatch for a whole stack on the compiled kernel; returns each
    job's loss, and leaves the tape step's state behind.

    The parameters, their gradients and Adam's moments move into one flat
    buffer each, in ``network.parameters()`` order; every ``param.data``,
    ``param.grad`` and ``optimizer._m``/``_v`` entry becomes a view of it.
    """

    def __init__(self, ffi, library, network: _NHiTSNetwork, loss, lr: float) -> None:
        self.network = network
        self.loss = loss
        params = network.parameters()
        self.optimizer = Adam(params, lr=lr, clip_norm=None)
        self._ffi, self._library = ffi, library
        flat = [np.concatenate([p.data.ravel() for p in params])]
        flat += [np.zeros_like(flat[0]) for _ in range(3)]
        offset = 0
        for k, param in enumerate(params):
            shape, size = param.data.shape, param.data.size
            views = [buffer[offset : offset + size].reshape(shape) for buffer in flat]
            param.data, param.grad, self.optimizer._m[k], self.optimizer._v[k] = views
            offset += size
        cfg, blocks = network.config, network.blocks
        shape = np.array(
            [params[0].shape[0], cfg.input_size, cfg.horizon, len(blocks), cfg.depth,
             cfg.hidden, int(cfg.probabilistic)]
            + [n for b in blocks for n in (b.kernel, b.backcast_knots, b.forecast_knots)],
            dtype=np.int64,
        )
        # Each interpolation matrix in C order: the memory of its F-order view.
        interp = np.concatenate(
            [m.data.T.ravel() for b in blocks for m in (b.backcast_interp, b.forecast_interp)]
        )
        # C views that keep their numpy buffers alive as long as the step.
        self._blas = ffi.from_buffer("Blas *", native.blas())
        self._shape = ffi.from_buffer("int64_t[]", shape)
        self._params, self._grads, self._m, self._v, self._interp = map(
            self._pointer, (*flat, interp)
        )
        self._work = self._pointer(np.empty(0))

    def _pointer(self, array: np.ndarray | None):
        """``array``'s memory as a C ``double *``; NULL for ``None``."""
        return self._ffi.NULL if array is None else self._ffi.from_buffer("double[]", array)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        library, cfg = self._library, self.network.config
        jobs, rows, _ = x.shape
        need = library.nhits_workspace(self._shape, rows)
        if len(self._work) < need:
            self._work = self._pointer(np.empty(need))
        mu = np.empty((jobs, rows, cfg.horizon))
        sigma_sum = np.empty_like(mu) if cfg.probabilistic else None
        library.nhits_forward(
            self._blas, self._shape, rows, self._params, self._interp,
            self._pointer(np.ascontiguousarray(x, dtype=float)), self._work,
            self._pointer(mu), self._pointer(sigma_sum),
        )
        mu = Tensor(mu, requires_grad=True)
        if sigma_sum is not None:
            sigma_sum = Tensor(sigma_sum, requires_grad=True)
        losses = self.loss(*self.network.head(mu, sigma_sum), Tensor(y))
        losses.sum().backward()
        library.nhits_backward(
            self._blas, self._shape, rows, self._params, self._interp, self._work,
            self._pointer(mu.grad), self._pointer(getattr(sigma_sum, "grad", None)),
            self._grads,
        )
        self.update()
        return losses.data

    def update(self) -> None:
        """Clip each job's gradients and take one Adam step, as
        :func:`_clip_each_job` and ``Adam.step`` do."""
        opt = self.optimizer
        opt._t += 1
        self._library.nhits_update(
            self._shape, self._params, self._grads, self._m, self._v,
            _CLIP_NORM, opt.lr, opt.beta1, opt.beta2, 1.0 - opt.beta1, 1.0 - opt.beta2,
            1.0 - opt.beta1**opt._t, 1.0 - opt.beta2**opt._t, opt.eps,
        )


def _step_state(step) -> bytes:
    """Everything a step leaves behind: parameters, gradients and moments."""
    params = step.network.parameters()
    arrays = [p.data for p in params] + [p.grad for p in params]
    arrays += step.optimizer._m + step.optimizer._v
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _self_check(compiled: Callable) -> None:
    """Raise unless ``compiled`` leaves :class:`_TapeStep`'s bytes on a fixed corpus.

    Two jobs under each loss take a full batch, a one-row batch and a
    batch whose targets are far off for the second job only, so that under
    nll and mse its gradient clips and the first job's does not.
    Parameters, gradients, moments and losses must match after every step.
    """
    rng = np.random.default_rng(5)
    for loss in ("nll", "mse", "mae"):
        cfg = NHiTSConfig(
            input_size=8, horizon=4, kernels=(8, 2, 1), hidden=32,
            probabilistic=loss == "nll", loss=loss,
        )
        jobs = [NHiTSForecaster(replace(cfg, seed=seed)) for seed in (1, 2)]
        tape = _TapeStep(_stacked_network(jobs), jobs[0]._loss, cfg.lr)
        kernel_step = compiled(_stacked_network(jobs), jobs[0]._loss, cfg.lr)
        for rows, spread in ((6, 1.0), (1, 1.0), (6, 40.0)):
            x = rng.standard_normal((2, rows, cfg.input_size))
            y = rng.standard_normal((2, rows, cfg.horizon))
            y[1] *= spread
            expected = tape(x, y)
            got = kernel_step(x, y)
            if (
                got.tobytes() != expected.tobytes()
                or _step_state(kernel_step) != _step_state(tape)
            ):
                raise native.KernelUnavailable(
                    "the load-time check disagrees with the autodiff tape"
                )
