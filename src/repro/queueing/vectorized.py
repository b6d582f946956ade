"""Vectorized M/D/c latency tables.

Faro's optimizer evaluates per-job utility at every candidate replica count
and across many predicted arrival-rate scenarios.  Doing that with the scalar
formulas in :mod:`repro.queueing.mmc` would cost ``O(max_servers^2)`` scalar
Erlang evaluations per job per solve.  This module exploits the Erlang-B
recurrence structure instead: one pass ``k = 1..max_servers`` over a
*vector* of offered loads produces Erlang-C for every ``(server count,
scenario)`` pair simultaneously.

The paper speeds this objective up with Numba.  Here the recurrence and the
elementwise latency formula run as a compiled C kernel (``erlang.c``,
loaded through :mod:`repro.native`) that performs the numpy loops' own
``+ - * /`` and comparisons per element, in the same order, so every table
is bit-identical to theirs; only ``np.log`` stays in numpy.  The numpy
loops (:func:`_erlang_c_table_numpy`, :func:`_mdc_latency_table_numpy`)
are the kernel's load-time self-check, its fallback and the tests' oracle.

The key export is :func:`mdc_latency_table`, which returns the matrix of
``quantile`` latencies ``L[k-1, j]`` for ``k`` servers under scenario ``j``,
in either the precise form (``inf`` when unstable) or the plateau-free
relaxed form (paper §3.4).
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro import native

__all__ = [
    "erlang_c_table",
    "erlang_c_at_rho",
    "mdc_latency_table",
]

SOURCE = Path(__file__).with_name("erlang.c")

_CDEF = """
int64_t erlang_c_table(const double *loads, int64_t n, int64_t max_servers,
                       double cut, double *scratch, double *table);
void mdc_latency(const double *rates, const double *loads, int64_t n,
                 int64_t max_servers, const double *wait_probs,
                 const double *tails, int64_t tail_rows, double cut, double mu,
                 double proc_time, const double *latency_at_rho, double rho_max,
                 double *latency);
"""


class _Kernel(NamedTuple):
    """The two passes of ``erlang.c`` over contiguous float64 arrays."""

    #: ``(loads, max_servers, cut) -> (table, tail_rows)``: the table of
    #: :func:`_erlang_c_table_numpy`, and how many leading rows hold a
    #: stable entry above ``cut``.
    erlang_c_table: Callable[[np.ndarray, int, float], tuple[np.ndarray, int]]
    #: ``(rates, loads, wait_probs, tails, quantile, proc_time,
    #: latency_at_rho, rho_max) -> latency``, as :func:`_mdc_latency_table_numpy`
    #: from its ``wait_probs`` and, for the ``tail_rows`` leading rows,
    #: ``tails = log(wait_probs / (1 - quantile))``; the latencies overwrite
    #: ``wait_probs``.
    mdc_latency: Callable[..., np.ndarray]


@functools.cache
def kernel() -> _Kernel | None:
    """The compiled table kernel, or ``None`` when it cannot load.

    Loaded once per process, on first use.
    """
    return native.load(
        "erlang", SOURCE, _CDEF, _bind, _self_check,
        fallback="latency tables run the numpy loops",
    )


def _bind(ffi, library) -> _Kernel:
    table_pass, latency_pass = library.erlang_c_table, library.mdc_latency
    doubles = ffi.typeof("double[]")
    from_buffer, null = ffi.from_buffer, ffi.NULL

    def erlang_c(loads: np.ndarray, max_servers: int, cut: float):
        n = loads.shape[0]
        table = np.empty((max_servers, n))
        tail_rows = table_pass(
            from_buffer(doubles, loads), n, max_servers, cut,
            from_buffer(doubles, np.empty(n)), from_buffer(doubles, table),
        )
        return table, tail_rows

    def mdc_latency(rates, loads, wait_probs, tails, quantile, proc_time,
                    latency_at_rho, rho_max) -> np.ndarray:
        max_servers, n = wait_probs.shape
        table = from_buffer(doubles, wait_probs)
        latency_pass(
            from_buffer(doubles, rates), from_buffer(doubles, loads), n,
            max_servers, table, from_buffer(doubles, tails), tails.shape[0],
            1.0 - quantile, 1.0 / proc_time, proc_time,
            null if latency_at_rho is None else from_buffer(doubles, latency_at_rho),
            rho_max, table,
        )
        return wait_probs

    return _Kernel(erlang_c, mdc_latency)


def _self_check(run: _Kernel) -> None:
    """Raise unless ``run`` reproduces the numpy loops bit for bit.

    The loads step through every server count in quarters, meeting the
    integers exactly; others meet the ``rho_max`` cut exactly, carry full
    mantissas or run far past the largest table.  One service time is
    exact in binary, so ``rates * proc_time`` gives the ties back; the
    other is not.  The check builds its own ``rho_max`` latencies:
    :func:`erlang_c_at_rho` would load this kernel.
    """
    quantile, rho_max = 0.99, 0.95
    loads = np.concatenate(
        [np.arange(0.0, 12.75, 0.25), [0.3, 1.7, 2.9, rho_max * 6, 5.999, 7.3, 11.4, 40.0, 1e6]]
    )
    same = True
    for max_servers in (1, 6, 12, 24):
        same = same and (
            run.erlang_c_table(loads, max_servers, 1.0)[0].tobytes()
            == _erlang_c_table_numpy(loads, max_servers).tobytes()
        )
        pinned = rho_max * np.arange(1, max_servers + 1, dtype=float)
        c_at_rho = np.diagonal(_erlang_c_table_numpy(pinned, max_servers)).copy()
        for proc_time in (0.25, 0.18):
            at_rho = _latency_at_rho(quantile, proc_time, rho_max, c_at_rho)
            for latency_at_rho in (None, at_rho):
                args = (quantile, loads / proc_time, proc_time, max_servers,
                        latency_at_rho, rho_max)
                got = _mdc_latency_table_compiled(run, *args)
                same = same and got.tobytes() == _mdc_latency_table_numpy(*args).tobytes()
    if not same:
        raise native.KernelUnavailable("the load-time check disagrees with the numpy loops")


def _vector(values, what: str) -> np.ndarray:
    """``values`` as a contiguous 1-D float array of finite, non-negative entries."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{what} must be 1-D, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{what} must be finite")
    if np.any(array < 0):
        raise ValueError(f"{what} must be non-negative")
    return np.ascontiguousarray(array)


def erlang_c_table(offered_loads: np.ndarray, max_servers: int) -> np.ndarray:
    """Erlang-C matrix ``C[k-1, j] = C(k, a_j)`` for ``k = 1..max_servers``.

    Unstable entries (``a_j >= k``) are set to 1.0 (every request waits).
    Runs the Erlang-B recurrence once over the whole load vector.  Loads
    must be finite and non-negative.
    """
    if max_servers < 1:
        raise ValueError(f"max_servers must be >= 1, got {max_servers}")
    loads = _vector(offered_loads, "offered loads")
    run = kernel()
    if run is None:
        return _erlang_c_table_numpy(loads, max_servers)
    return run.erlang_c_table(loads, max_servers, 1.0)[0]  # a cut no entry passes


def _erlang_c_table_numpy(loads: np.ndarray, max_servers: int) -> np.ndarray:
    """The numpy loop behind :func:`erlang_c_table`, for checked loads."""
    table = np.empty((max_servers, loads.shape[0]), dtype=float)
    blocking = np.ones_like(loads)
    for k in range(1, max_servers + 1):
        blocking = loads * blocking / (k + loads * blocking)
        stable = loads < k
        with np.errstate(divide="ignore", invalid="ignore"):
            wait_prob = k * blocking / (k - loads * (1.0 - blocking))
        table[k - 1] = np.where(stable, wait_prob, 1.0)
    return np.clip(table, 0.0, 1.0)


# Per-rho prefix cache for the fixed-utilization Erlang-C diagonal.  The
# value at index k-1 is C(k, rho * k), which depends only on (rho, k) --
# never on how large a table it was computed as part of -- so one array
# computed at the largest ``max_servers`` seen serves every smaller request
# by slicing.  (The old per-(rho, max_servers) lru_cache recomputed the full
# O(max_servers^2) table for every distinct size, which hierarchical and
# decentralized solves with varying subtree sizes thrashed constantly.)
_RHO_DIAG_CACHE: OrderedDict[float, np.ndarray] = OrderedDict()
_RHO_DIAG_CACHE_MAX = 32


def _erlang_c_diag(rho: float, max_servers: int) -> np.ndarray:
    values = erlang_c_table(rho * np.arange(1, max_servers + 1, dtype=float), max_servers)
    # Row k-1 holds C(k, a) for all loads; we want the diagonal a = rho * k.
    diag = np.ascontiguousarray(np.diagonal(values))
    diag.setflags(write=False)
    return diag


def erlang_c_at_rho(rho: float, max_servers: int) -> np.ndarray:
    """``C(k, rho * k)`` for ``k = 1..max_servers`` (prefix-cached).

    Used by the relaxed estimator, which pins the utilization of overloaded
    queues at ``rho_max`` (the offered load then depends only on ``k``).
    A cached diagonal for ``N`` servers serves any ``M <= N`` by slicing;
    growth recomputes at double the previous size to amortize repeated
    small extensions.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    max_servers = int(max_servers)
    if max_servers < 1:
        raise ValueError(f"max_servers must be >= 1, got {max_servers}")
    key = float(rho)
    cached = _RHO_DIAG_CACHE.get(key)
    if cached is None or cached.shape[0] < max_servers:
        grow_to = max(max_servers, 2 * cached.shape[0] if cached is not None else 0)
        cached = _erlang_c_diag(key, grow_to)
        _RHO_DIAG_CACHE[key] = cached
        _RHO_DIAG_CACHE.move_to_end(key)  # growth must refresh recency too
        while len(_RHO_DIAG_CACHE) > _RHO_DIAG_CACHE_MAX:
            _RHO_DIAG_CACHE.popitem(last=False)
    else:
        _RHO_DIAG_CACHE.move_to_end(key)
    return cached[:max_servers].copy()


def mdc_latency_table(
    quantile: float,
    rates: np.ndarray,
    proc_time: float,
    max_servers: int,
    relaxed: bool = False,
    rho_max: float = 0.95,
) -> np.ndarray:
    """Latency matrix ``L[k-1, j]``: M/D/c ``quantile`` latency with ``k`` servers.

    ``rates`` are arrival rates in requests/second, finite and
    non-negative.  Uses the half-wait approximation (``Wq(M/D/c) ~= 0.5 *
    Wq(M/M/c)``, paper §3.3).

    ``relaxed=False`` (precise): unstable entries are ``inf``.
    ``relaxed=True``: entries with ``rho > rho_max`` become
    ``(lam / lam_max) * L(lam_max)`` with ``lam_max = rho_max * k / p``,
    growing linearly in the overload factor (paper §3.4, Fig. 6 right).
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    if proc_time <= 0:
        raise ValueError(f"processing time must be positive, got {proc_time}")
    if max_servers < 1:
        raise ValueError(f"max_servers must be >= 1, got {max_servers}")
    rates = _vector(rates, "arrival rates")
    _vector(rates * proc_time, "offered loads")  # the product may overflow
    latency_at_rho = (
        _latency_at_rho(quantile, proc_time, rho_max, erlang_c_at_rho(rho_max, max_servers))
        if relaxed
        else None
    )
    run = kernel()
    if run is None:
        return _mdc_latency_table_numpy(
            quantile, rates, proc_time, max_servers, latency_at_rho, rho_max
        )
    return _mdc_latency_table_compiled(
        run, quantile, rates, proc_time, max_servers, latency_at_rho, rho_max
    )


def _latency_at_rho(quantile, proc_time, rho_max, c_at_rho: np.ndarray) -> np.ndarray:
    """Latency with ``k`` servers of the queue pinned at ``rho_max``, given
    ``c_at_rho = C(k, rho_max * k)`` for ``k = 1..max_servers``."""
    servers = np.arange(1, c_at_rho.shape[0] + 1, dtype=float)
    mu = 1.0 / proc_time
    drain_at_rho = servers * mu * (1.0 - rho_max)
    tail_at_rho = np.log(c_at_rho / (1.0 - quantile))
    wait_at_rho = np.where(
        c_at_rho <= 1.0 - quantile, 0.0, 0.5 * np.maximum(tail_at_rho, 0.0) / drain_at_rho
    )
    return wait_at_rho + proc_time


def _mdc_latency_table_compiled(
    run: _Kernel, quantile, rates, proc_time, max_servers, latency_at_rho, rho_max
) -> np.ndarray:
    """:func:`mdc_latency_table` on the kernel ``run``, for checked arguments;
    ``latency_at_rho`` is ``None`` for the precise form."""
    loads = rates * proc_time
    wait_probs, tail_rows = run.erlang_c_table(loads, max_servers, 1.0 - quantile)
    # Past the first tail_rows rows every stable wait probability is under
    # the cut, where the latency is the service time whatever the tail.
    tails = wait_probs[:tail_rows] / (1.0 - quantile)
    with np.errstate(divide="ignore"):
        np.log(tails, out=tails)
    return run.mdc_latency(
        rates, loads, wait_probs, tails, quantile, proc_time, latency_at_rho, rho_max
    )


def _mdc_latency_table_numpy(
    quantile, rates, proc_time, max_servers, latency_at_rho, rho_max
) -> np.ndarray:
    """The numpy code behind :func:`mdc_latency_table`, for checked arguments;
    ``latency_at_rho`` is ``None`` for the precise form."""
    loads = rates * proc_time
    wait_probs = _erlang_c_table_numpy(loads, max_servers)
    servers = np.arange(1, max_servers + 1, dtype=float)[:, None]
    mu = 1.0 / proc_time
    drain = servers * mu - rates[None, :]  # positive where stable

    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.log(wait_probs / (1.0 - quantile))
        wait = np.where(
            wait_probs <= 1.0 - quantile, 0.0, 0.5 * np.maximum(tail, 0.0) / drain
        )
    stable = loads[None, :] < servers
    latency = np.where(stable, wait + proc_time, np.inf)
    # Zero-rate scenarios see exactly the service time.
    latency[:, rates == 0.0] = proc_time

    if latency_at_rho is None:
        return latency

    # Overloaded region: rho = load / k > rho_max.  Replace with the scaled
    # latency of the queue pinned at rho_max.
    with np.errstate(divide="ignore", invalid="ignore"):
        overload_factor = loads[None, :] / (rho_max * servers)
    overloaded = loads[None, :] > rho_max * servers
    return np.where(overloaded, overload_factor * latency_at_rho[:, None], latency)
