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
through :func:`repro.native.load`) in two calls: the first reads each
job's minibatch rows in place from the stacked windows, by that job's
permutation, and runs the forward pass up to the summed forecast and sigma
knots; numpy then takes the transcendentals of the loss head (softplus,
``log(var)`` and ``exp(-sigma_sum)``, whose bits its own loops pick by
CPU); the second runs the rest of the loss head, the backward pass, each
job's clip and Adam in place on flat numpy buffers that the stack owns.
Every matrix product in C is the BLAS call numpy's ``@`` makes, through
:func:`repro.native.blas`, so the kernel gives the tape's bits; the tape
(:class:`_TapeStep`) is its oracle, and the fallback when it cannot load.
Python keeps the epoch loop and each job's ``_rng`` draws either way.
Inference (:meth:`NHiTSForecaster.predict` and friends) runs the same
compiled forward pass on one window, with the tape's forward as its
oracle and fallback; after each fit a network keeps its parameters in the
one buffer that pass reads (:meth:`_NHiTSNetwork.flatten`).

:meth:`NHiTSForecaster.fit_many` trains its stacks concurrently, on one
thread per core up to one per stack: the kernel's calls and numpy's ufuncs
release the GIL, and each stack touches only its own jobs, so a job's bits
do not depend on the schedule.  On the tape, which holds the GIL for most
of a step, the pool has one thread.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import native
from repro.autodiff import MLP, Adam, Module, Tensor
from repro.forecast.base import Forecaster, StandardScaler, sliding_windows

__all__ = ["NHiTSConfig", "NHiTSForecaster", "kernel"]

SOURCE = Path(__file__).with_name("nhits.c")

#: Jobs per stacked training model.  A stack is the unit a training thread
#: takes, and its workspace grows with it (~0.3 MB per stacked job with the
#: fast profile on the kernel, ~0.8 MB of autodiff graph per job on the
#: tape); stacks of 8 train no faster.
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


def _knots(config: NHiTSConfig, kernel: int) -> tuple[int, int]:
    """Backcast and forecast knots of the block that pools by ``kernel``."""
    return config.input_size // kernel, max(1, config.horizon // kernel)


class _Block(Module):
    """One N-HiTS block: pooled input -> MLP -> backcast/forecast(/sigma) knots."""

    def __init__(self, config: NHiTSConfig, kernel: int, rng: np.random.Generator) -> None:
        self.kernel = kernel
        self.backcast_knots, self.forecast_knots = _knots(config, kernel)
        outputs = self.backcast_knots + self.forecast_knots
        if config.probabilistic:
            outputs += self.forecast_knots
        sizes = [self.backcast_knots] + [config.hidden] * config.depth + [outputs]
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
        #: The parameters in one buffer laid out by :func:`_offsets`, as
        #: :meth:`Kernel.forward` reads them, each parameter a view into it
        #: (:meth:`flatten`, after each fit); ``None`` until then, when the
        #: forward pass flattens them on each call.
        self.flat_parameters: np.ndarray | None = None

    def flatten(self) -> None:
        """Move the parameters into one buffer, :attr:`flat_parameters`,
        leaving each a view into it."""
        params = self.parameters()
        arrays = [param.data for param in params]
        self.flat_parameters = _flat(arrays)
        for param, view in zip(params, _views(self.flat_parameters, arrays, _offsets(arrays))):
            param.data = view

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

    def _windows(self, series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fit the scaler; the normalized training windows, capped at
        ``max_windows`` (a draw of ``_rng``), copying only those kept."""
        cfg = self.config
        self.scaler.fit(series)
        windows = series.shape[0] - cfg.input_size - cfg.horizon + 1
        keep = None
        if windows > cfg.max_windows:
            keep = self._rng.choice(windows, size=cfg.max_windows, replace=False)
        return sliding_windows(self.scaler.transform(series), cfg.input_size, cfg.horizon, keep)

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
        job comes out exactly as a one-job :meth:`fit` would leave it.  The
        stacks train on a pool of ``min(stacks, cores)`` threads (one on the
        tape), gone when this returns; an exception in a stack (the first,
        in stack order) re-raises here once every stack has finished.
        """
        stacks = _stacks(forecasters, series)
        if not stacks:
            return
        compiled = kernel()  # load, or warn, once on this thread before any stack trains
        # The tape holds the GIL for most of a step: a second thread only
        # slows it (40 jobs trained ~1.4x slower on two than on one).
        workers = min(len(stacks), _cores() if compiled else 1)
        with ThreadPoolExecutor(workers, thread_name_prefix="nhits-fit") as pool:
            list(pool.map(_fit_stack, *zip(*stacks)))
        # On this thread, whose heap the parameters' arrays came from: each
        # network's new buffer takes the place the previous one's frees.
        for forecaster in forecasters:
            forecaster.network.flatten()
        _trim_heap()

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
        window = self._prepare_history(history)
        compiled = kernel()
        return (compiled.forward if compiled else _tape_forward)(self.network, window)

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


def _stacks(
    forecasters: Sequence[NHiTSForecaster], series: Sequence[np.ndarray]
) -> list[tuple[list[NHiTSForecaster], list[np.ndarray]]]:
    """``fit_many``'s stacked models, each as ``(jobs, series)``: jobs whose
    configs match apart from ``seed`` and whose window counts match, up to
    ``_STACK_SIZE`` at a time, in order of first appearance."""
    if len(forecasters) != len(series):
        raise ValueError(f"{len(forecasters)} forecasters but {len(series)} series")
    if len({id(f) for f in forecasters}) != len(forecasters):
        raise ValueError("each forecaster may appear only once")
    series = [np.asarray(values, dtype=float) for values in series]
    groups: dict[tuple, list[int]] = {}
    for index, (forecaster, values) in enumerate(zip(forecasters, series)):
        cfg = forecaster.config
        windows = min(values.shape[0] - cfg.input_size - cfg.horizon + 1, cfg.max_windows)
        groups.setdefault((replace(cfg, seed=0), windows), []).append(index)
    return [
        ([forecasters[i] for i in stack], [series[i] for i in stack])
        for members in groups.values()
        for stack in (
            members[start : start + _STACK_SIZE]
            for start in range(0, len(members), _STACK_SIZE)
        )
    ]


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _trim_heap() -> None:
    """Return the memory the pool's threads freed to the OS.

    glibc gives each thread its own malloc arena and keeps what a thread
    frees there, so what a run allocates after training would come on top
    of it (about 4 MB of ``serve-stream``'s peak).  ``malloc_trim``
    releases it; where the C library has none, this does nothing.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def _fit_stack(stack: list[NHiTSForecaster], series: list[np.ndarray]) -> None:
    """Train jobs of one config and window count as one stacked model.

    Every parameter gains a leading job axis (biases stack as
    ``(J, 1, out)``), so one forward pass, one backward pass and one Adam
    update per minibatch serve the whole stack.  Each job keeps its own
    generator, its own loss and its own gradient clipping.
    """
    cfg = stack[0].config
    inputs, targets = map(np.stack, zip(*(job._windows(v) for job, v in zip(stack, series))))
    network = _stacked_network(stack)
    compiled = kernel()
    step = (compiled.step if compiled else _TapeStep)(network, inputs, targets)
    n = inputs.shape[1]
    history = np.empty((cfg.epochs, len(stack)))
    for epoch in range(cfg.epochs):
        order = np.stack([job._rng.permutation(n) for job in stack])
        epoch_loss = np.zeros(len(stack))
        batches = 0
        for start in range(0, n, cfg.batch_size):
            epoch_loss += step(order, start, min(cfg.batch_size, n - start))
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
    network.flat_parameters = None
    for k, param in enumerate(network.parameters()):
        param.data = np.stack([np.atleast_2d(job_params[k].data) for job_params in own])
    return network


def _loss(config: NHiTSConfig, mu: Tensor, sigma: Tensor | None, target: Tensor) -> Tensor:
    """Mean loss over (batch, horizon) on the tape: one per stacked job."""
    axes = (-2, -1)
    if config.loss == "mse":
        diff = mu - target
        return (diff * diff).mean(axis=axes)
    if config.loss == "mae":
        return (mu - target).abs().mean(axis=axes)
    assert sigma is not None
    diff = mu - target
    var = sigma * sigma
    return (var.log() * 0.5 + (diff * diff) / (var * 2.0)).mean(axis=axes)


def _tape_forward(network: _NHiTSNetwork, window: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """One job's ``(mu, sigma)`` for one window on the tape: the compiled
    forward pass's oracle, and its fallback."""
    mu, sigma = network(Tensor(window[None, :]))
    return mu.numpy()[0], None if sigma is None else sigma.numpy()[0]


class _TapeStep:
    """One minibatch for a whole stack on the autodiff tape; returns each
    job's loss.  The kernel's oracle, and its fallback.

    ``inputs`` and ``targets`` hold each job's windows, ``(J, n, input)``
    and ``(J, n, horizon)``; a call trains on rows ``start`` to
    ``start + rows`` of each job's ``order`` (``(J, n)``, a permutation of
    its windows).  The step's autodiff graph, gradients included, dies on
    return, before the next forward pass builds its own.
    """

    def __init__(self, network: _NHiTSNetwork, inputs: np.ndarray, targets: np.ndarray) -> None:
        self.network = network
        self.inputs, self.targets = inputs, targets
        self.optimizer = Adam(network.parameters(), lr=network.config.lr, clip_norm=None)

    def __call__(self, order: np.ndarray, start: int, rows: int) -> np.ndarray:
        index = order[:, start : start + rows]
        jobs = np.arange(index.shape[0])[:, None]
        mu, sigma = self.network(Tensor(self.inputs[jobs, index]))
        losses = _loss(self.network.config, mu, sigma, Tensor(self.targets[jobs, index]))
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
typedef struct {
    const Blas *blas;
    const int64_t *shape;
    const double *interp, *inputs, *targets;
    int64_t windows, loss;
    double *params, *grads, *m, *v, *work;
    double *sigma_sum;
    const double *sigma, *var, *log_var, *exp_neg;
    double *losses;
    double clip_norm, lr, beta1, beta2, one_minus_beta1, one_minus_beta2, eps;
} Model;
int64_t nhits_workspace(const int64_t *shape, int64_t rows);
void nhits_forward(const Blas *blas, const int64_t *shape, int64_t rows,
                   const double *params, const double *interp,
                   const double *inputs, const int64_t *order, int64_t windows,
                   int64_t start, double *work, double *mu, double *sigma_sum);
void nhits_step_forward(const Model *model, const int64_t *order,
                        int64_t start, int64_t rows);
void nhits_step_backward(const Model *model, const int64_t *order,
                         int64_t start, int64_t rows, double correction1,
                         double correction2);
void nhits_update(const int64_t *shape, double *params, double *grads,
                  double *m, double *v, double clip_norm, double lr,
                  double beta1, double beta2, double one_minus_beta1,
                  double one_minus_beta2, double correction1,
                  double correction2, double eps);
"""

#: ``Model.loss`` of each ``NHiTSConfig.loss``, as ``nhits.c`` numbers them.
_LOSSES = {"nll": 0, "mse": 1, "mae": 2}

#: The one window of an inference call, as a row order.
_FIRST_ROW = np.zeros(1, dtype=np.int64)


@functools.cache
def kernel() -> "Kernel | None":
    """The compiled kernel, or ``None`` when it cannot load.

    Loaded once per process, on the first stacked fit or forecast, and
    checked once against the tape on a fixed corpus.
    """
    return native.load(
        "nhits", SOURCE, _CDEF, _bind, _self_check,
        fallback="N-HiTS trains on the autodiff tape",
    )


def _bind(ffi, library) -> "Kernel":
    native.blas()  # refuse to load without numpy's routines
    return Kernel(ffi, library)


def _offsets(arrays: Sequence[np.ndarray]) -> list[int]:
    """Where each array starts in one flat buffer, in order, and (last) its
    length.  Each starts at an even offset, so 16 bytes aligned like a
    fresh numpy array: some BLAS kernels (OpenBLAS's Prescott ``ddot``) sum
    in an order set by their operands' alignment."""
    offsets = [0]
    for array in arrays:
        offsets.append(offsets[-1] + array.size + array.size % 2)
    return offsets


def _views(buffer: np.ndarray, arrays: Sequence[np.ndarray], offsets: list[int]) -> list[np.ndarray]:
    """A view of ``buffer`` shaped like each array, at its offset."""
    return [buffer[at : at + a.size].reshape(a.shape) for a, at in zip(arrays, offsets)]


def _flat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays' values, each in C order, in one buffer laid out by :func:`_offsets`."""
    pieces = []
    for array in arrays:
        pieces.append(array.ravel())
        if array.size % 2:
            pieces.append(_PAD)
    return np.concatenate(pieces)


_PAD = np.zeros(1)


@functools.lru_cache(maxsize=256)
def _architecture(config: NHiTSConfig, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    """``nhits.c``'s shape array for ``jobs`` stacked networks of ``config``,
    and the networks' interpolation matrices; read-only, shared."""
    knots = [(kernel, *_knots(config, kernel)) for kernel in config.kernels]
    shape = np.array(
        [jobs, config.input_size, config.horizon, len(knots), config.depth,
         config.hidden, int(config.probabilistic)] + [n for block in knots for n in block],
        dtype=np.int64,
    )
    # Each matrix in C order: the memory of the F-order view _Block multiplies by.
    interp = _flat([
        interpolation_matrix(n, length)
        for _, backcast, forecast in knots
        for n, length in ((backcast, config.input_size), (forecast, config.horizon))
    ])
    for array in (shape, interp):
        array.flags.writeable = False
    return shape, interp


class Kernel:
    """The compiled N-HiTS kernel: :meth:`step` trains a stack,
    :meth:`forward` runs one job's forward pass on one window."""

    def __init__(self, ffi, library) -> None:
        self._ffi, self._library = ffi, library
        self._blas = ffi.from_buffer("Blas *", native.blas())

    def pointer(self, array: np.ndarray | None, kind: str = "double[]"):
        """``array``'s memory as a C pointer; NULL for ``None``."""
        return self._ffi.NULL if array is None else self._ffi.from_buffer(kind, array)

    def step(self, network: _NHiTSNetwork, inputs: np.ndarray, targets: np.ndarray) -> "_KernelStep":
        """A training step over ``network``, as :class:`_TapeStep` takes it."""
        return _KernelStep(self, network, inputs, targets)

    def forward(self, network: _NHiTSNetwork, window: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """One job's ``(mu, sigma)`` for one normalized window (``sigma``
        ``None`` in point mode), as :func:`_tape_forward` gives them: the
        compiled pass, then numpy's softplus and the sigma floor."""
        cfg, library = network.config, self._library
        flat = getattr(network, "flat_parameters", None)
        if flat is None:
            flat = _flat([p.data for p in network.parameters()])
        shape, interp = _architecture(cfg, 1)
        shape_c = self.pointer(shape, "int64_t[]")
        mu = np.empty(cfg.horizon)
        sigma_sum = np.empty(cfg.horizon) if cfg.probabilistic else None
        library.nhits_forward(
            self._blas, shape_c, 1,
            self.pointer(flat),
            self.pointer(interp),
            self.pointer(np.ascontiguousarray(window, dtype=float)),
            self.pointer(_FIRST_ROW, "int64_t[]"), 1, 0,
            self.pointer(np.empty(library.nhits_workspace(shape_c, 1))),
            self.pointer(mu), self.pointer(sigma_sum),
        )
        if sigma_sum is None:
            return mu, None
        return mu, np.logaddexp(0.0, sigma_sum) + cfg.sigma_floor


class _KernelStep:
    """One minibatch for a whole stack on the compiled kernel; called and
    returning as :class:`_TapeStep`, and leaving the tape step's state
    behind.

    The parameters, their gradients and Adam's moments move into one flat
    buffer each, laid out by :func:`_offsets` in ``network.parameters()``
    order; every ``param.data``, ``param.grad`` and
    ``optimizer._m``/``_v`` entry becomes a view of it.  The loss head's
    numpy buffers and the workspace grow to the largest batch seen.
    """

    def __init__(self, kernel: Kernel, network: _NHiTSNetwork, inputs: np.ndarray,
                 targets: np.ndarray) -> None:
        cfg = network.config
        self.network = network
        inputs, targets = (np.ascontiguousarray(a, dtype=float) for a in (inputs, targets))
        params = network.parameters()
        self.optimizer = opt = Adam(params, lr=cfg.lr, clip_norm=None)
        self._kernel, self._library = kernel, kernel._library
        arrays = [p.data for p in params]
        offsets = _offsets(arrays)
        flat = [_flat(arrays)] + [np.zeros(offsets[-1]) for _ in range(3)]
        views = [_views(buffer, arrays, offsets) for buffer in flat]
        for k, param in enumerate(params):
            param.data, param.grad, opt._m[k], opt._v[k] = (v[k] for v in views)
        shape, interp = _architecture(cfg, len(arrays[0]))
        self._losses = np.empty(len(arrays[0]))
        # Everything the C model points at, kept alive as long as the step.
        self._keep = [shape, interp, inputs, targets, *flat]
        self._model = model = kernel._ffi.new("Model *")
        pointer = kernel.pointer
        model.blas, model.shape = kernel._blas, pointer(shape, "int64_t[]")
        model.interp, model.inputs, model.targets = map(pointer, (interp, inputs, targets))
        model.windows, model.loss = inputs.shape[1], _LOSSES[cfg.loss]
        model.params, model.grads, model.m, model.v = map(pointer, flat)
        model.losses = pointer(self._losses)
        model.clip_norm, model.lr, model.eps = _CLIP_NORM, opt.lr, opt.eps
        model.beta1, model.beta2 = opt.beta1, opt.beta2
        model.one_minus_beta1, model.one_minus_beta2 = 1.0 - opt.beta1, 1.0 - opt.beta2
        self._rows = 0
        self._head: list[np.ndarray] = []

    def _reserve(self, rows: int) -> None:
        """Room for steps of up to ``rows`` rows per job."""
        cfg, model, pointer = self.network.config, self._model, self._kernel.pointer
        work = np.empty(self._library.nhits_workspace(model.shape, rows))
        model.work = pointer(work)
        if cfg.probabilistic:
            # sigma_sum, -sigma_sum, softplus, sigma, var, log(var), exp(-sigma_sum)
            cells = len(self._losses) * rows * cfg.horizon
            self._head = [np.empty(cells) for _ in range(7)]
            model.sigma_sum = pointer(self._head[0])
            model.sigma, model.var, model.log_var, model.exp_neg = map(pointer, self._head[3:])
        self._work, self._rows = work, rows

    def __call__(self, order: np.ndarray, start: int, rows: int) -> np.ndarray:
        if rows > self._rows:
            self._reserve(rows)
        cfg, library, opt = self.network.config, self._library, self.optimizer
        order_c = self._kernel.pointer(order, "int64_t[]")
        library.nhits_step_forward(self._model, order_c, start, rows)
        if cfg.loss == "nll":
            cells = len(self._losses) * rows * cfg.horizon
            sigma_sum, negated, softplus, sigma, var, log_var, exp_neg = (
                buffer[:cells] for buffer in self._head
            )
            np.logaddexp(0.0, sigma_sum, out=softplus)
            np.add(softplus, cfg.sigma_floor, out=sigma)
            np.multiply(sigma, sigma, out=var)
            np.log(var, out=log_var)
            np.exp(np.negative(sigma_sum, out=negated), out=exp_neg)
        opt._t += 1
        library.nhits_step_backward(
            self._model, order_c, start, rows, 1.0 - opt.beta1**opt._t, 1.0 - opt.beta2**opt._t
        )
        return self._losses.copy()

    def update(self) -> None:
        """Clip each job's gradients and take one Adam step, as
        :func:`_clip_each_job` and ``Adam.step`` do."""
        opt, model = self.optimizer, self._model
        opt._t += 1
        self._library.nhits_update(
            model.shape, model.params, model.grads, model.m, model.v,
            _CLIP_NORM, opt.lr, opt.beta1, opt.beta2, 1.0 - opt.beta1, 1.0 - opt.beta2,
            1.0 - opt.beta1**opt._t, 1.0 - opt.beta2**opt._t, opt.eps,
        )


def _step_state(step) -> bytes:
    """Everything a step leaves behind: parameters, gradients and moments."""
    params = step.network.parameters()
    arrays = [p.data for p in params] + [p.grad for p in params]
    arrays += step.optimizer._m + step.optimizer._v
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _self_check(compiled: Kernel) -> None:
    """Raise unless ``compiled`` leaves the tape's bytes on a fixed corpus.

    Two jobs under each loss take a full batch, a one-row batch and a
    batch whose targets are far off for the second job only, so that under
    nll and mse its gradient clips and the first job's does not; each
    job's rows come by a shuffled order.  Parameters, gradients, moments
    and losses must match after every step, and the forward pass of each
    job's own network must match the tape's on one window.
    """
    rng = np.random.default_rng(5)
    for loss in ("nll", "mse", "mae"):
        cfg = NHiTSConfig(
            input_size=8, horizon=4, kernels=(8, 2, 1), hidden=32,
            probabilistic=loss == "nll", loss=loss,
        )
        jobs = [NHiTSForecaster(replace(cfg, seed=seed)) for seed in (1, 2)]
        inputs = rng.standard_normal((2, 13, cfg.input_size))
        targets = rng.standard_normal((2, 13, cfg.horizon))
        order = np.stack([rng.permutation(13) for _ in jobs])
        targets[1, order[1, 7:]] *= 40.0
        tape = _TapeStep(_stacked_network(jobs), inputs, targets)
        kernel_step = compiled.step(_stacked_network(jobs), inputs, targets)
        for start, rows in ((0, 6), (6, 1), (7, 6)):
            expected = tape(order, start, rows)
            got = kernel_step(order, start, rows)
            if (
                got.tobytes() != expected.tobytes()
                or _step_state(kernel_step) != _step_state(tape)
            ):
                raise native.KernelUnavailable(
                    "the load-time check disagrees with the autodiff tape"
                )
        for job, window in zip(jobs, inputs[:, 0]):
            got, expected = compiled.forward(job.network, window), _tape_forward(job.network, window)
            if _arrays_bytes(got) != _arrays_bytes(expected):
                raise native.KernelUnavailable(
                    "the load-time check's forward pass disagrees with the autodiff tape"
                )


def _arrays_bytes(arrays) -> bytes:
    """The bytes of each array in turn, ``None`` as none."""
    return b"".join(b"" if a is None else a.tobytes() for a in arrays)
