"""Flattened-table bilinear interpolation kernel (numpy, optional numba JIT).

This is the innermost loop of the allocation hot path: every batched
objective evaluation (:meth:`repro.core.optimizer.AllocationProblem.evaluate_many`)
gathers per-job utilities from the flattened table layout via this kernel.
Two interchangeable backends implement it:

- ``numpy`` -- vectorized fancy-indexing, always available (the reference).
- ``numba`` -- an ``@njit``-compiled element loop, used automatically when
  numba is importable.  Each element performs **exactly the same IEEE-754
  operations in the same order** as the numpy expression (clip, floor,
  gather, lerp), so the two backends are bit-for-bit identical -- switching
  backends can never change solver results, only wall-clock.

Backend selection is process-wide: ``set_backend("numpy")`` /
``set_backend("numba")`` / ``set_backend("auto")`` (the default, numba when
importable).  ``get_backend()`` reports the backend actually in use.  The
numba kernel is compiled lazily on first use; if compilation fails for any
reason the kernel falls back to numpy rather than breaking the planner.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "interp_flat",
    "interp_flat_numpy",
    "set_backend",
    "get_backend",
    "numba_available",
]

#: Requested backend: "auto", "numpy" or "numba".
_REQUESTED = "auto"

#: Lazily-compiled numba kernel (None until first successful compile;
#: False after a failed attempt so we do not retry per call).
_NUMBA_KERNEL = None


@functools.cache
def numba_available() -> bool:
    """Whether the optional numba dependency is importable.

    Probed once per process: a failed import is not retried, so the
    per-call backend dispatch in :func:`interp_flat` stays cheap.
    """
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def set_backend(name: str) -> None:
    """Select the interpolation backend: ``"auto"``, ``"numpy"``, ``"numba"``.

    ``"numba"`` raises ``RuntimeError`` when numba is not importable;
    ``"auto"`` uses numba when available and numpy otherwise.  Because the
    backends are bit-identical this only affects wall-clock.
    """
    global _REQUESTED
    if name not in ("auto", "numpy", "numba"):
        raise ValueError(f"unknown interp backend {name!r}; expected auto/numpy/numba")
    if name == "numba" and not numba_available():
        raise RuntimeError("numba backend requested but numba is not importable")
    _REQUESTED = name


def get_backend() -> str:
    """The backend :func:`interp_flat` will actually use (numpy or numba)."""
    if _REQUESTED == "numpy":
        return "numpy"
    if _REQUESTED == "numba":
        return "numba"
    return "numba" if numba_available() else "numpy"


def interp_flat_numpy(
    flat: np.ndarray,
    offsets: np.ndarray,
    stride: int,
    max_row_f: np.ndarray,
    max_rows: np.ndarray,
    grid: np.ndarray,
    R: np.ndarray,
    D: np.ndarray,
) -> np.ndarray:
    """Reference numpy kernel: bilinear gather over a ``(C, n)`` matrix.

    ``flat`` is the concatenation of per-job tables (row stride ``stride``
    along the drop axis), ``offsets[j]`` the flat index of job ``j``'s row 0,
    ``max_row_f``/``max_rows`` the per-job top table row as float/int, and
    ``grid`` the drop axis.  ``R``/``D`` are the replica/drop matrices.
    """
    x = np.clip(R, 0.0, max_row_f)
    x_lo = np.floor(x).astype(np.int64)
    x_hi = np.minimum(x_lo + 1, max_rows)
    xf = x - x_lo
    if stride == 1:
        lo = flat[offsets + x_lo]
        hi = flat[offsets + x_hi]
        return (1.0 - xf) * lo + xf * hi
    d = np.clip(D, grid[0], grid[-1])
    d_hi_idx = np.clip(np.searchsorted(grid, d), 1, grid.shape[0] - 1)
    d_lo_idx = d_hi_idx - 1
    span = grid[d_hi_idx] - grid[d_lo_idx]
    df = np.where(span == 0, 0.0, (d - grid[d_lo_idx]) / np.where(span == 0, 1.0, span))
    row_lo = offsets + x_lo * stride
    row_hi = offsets + x_hi * stride
    lo = (1.0 - df) * flat[row_lo + d_lo_idx] + df * flat[row_lo + d_hi_idx]
    hi = (1.0 - df) * flat[row_hi + d_lo_idx] + df * flat[row_hi + d_hi_idx]
    return (1.0 - xf) * lo + xf * hi


def _compile_numba_kernel():
    """Compile the element-loop kernel; mirrors the numpy ops exactly.

    Per element the scalar operation sequence is identical to the numpy
    expression in :func:`interp_flat_numpy` -- ``min(max(.))`` for clip,
    ``floor``, integer gathers, and the two lerps in the same order -- so
    results are bit-for-bit equal (IEEE-754 arithmetic is deterministic for
    a fixed operation order).
    """
    import numba

    @numba.njit(cache=False)
    def kernel(flat, offsets, stride, max_row_f, max_rows, grid, R, D):  # pragma: no cover - exercised only when numba is installed
        C, n = R.shape
        out = np.empty((C, n), dtype=np.float64)
        last = grid.shape[0] - 1
        for c in range(C):
            for j in range(n):
                x = min(max(R[c, j], 0.0), max_row_f[j])
                x_lo = np.int64(np.floor(x))
                x_hi = min(x_lo + 1, max_rows[j])
                xf = x - x_lo
                if stride == 1:
                    lo = flat[offsets[j] + x_lo]
                    hi = flat[offsets[j] + x_hi]
                else:
                    d = min(max(D[c, j], grid[0]), grid[last])
                    d_hi_idx = np.searchsorted(grid, d)
                    if d_hi_idx < 1:
                        d_hi_idx = 1
                    elif d_hi_idx > last:
                        d_hi_idx = last
                    d_lo_idx = d_hi_idx - 1
                    span = grid[d_hi_idx] - grid[d_lo_idx]
                    if span == 0:
                        df = 0.0
                    else:
                        df = (d - grid[d_lo_idx]) / span
                    row_lo = offsets[j] + x_lo * stride
                    row_hi = offsets[j] + x_hi * stride
                    lo = (1.0 - df) * flat[row_lo + d_lo_idx] + df * flat[row_lo + d_hi_idx]
                    hi = (1.0 - df) * flat[row_hi + d_lo_idx] + df * flat[row_hi + d_hi_idx]
                out[c, j] = (1.0 - xf) * lo + xf * hi
        return out

    return kernel


def _numba_kernel():
    """The compiled numba kernel, or ``None`` when unavailable/broken."""
    global _NUMBA_KERNEL
    if _NUMBA_KERNEL is None:
        try:
            _NUMBA_KERNEL = _compile_numba_kernel()
        except Exception:  # pragma: no cover - depends on local numba install
            _NUMBA_KERNEL = False
    return _NUMBA_KERNEL or None


def interp_flat(
    flat: np.ndarray,
    offsets: np.ndarray,
    stride: int,
    max_row_f: np.ndarray,
    max_rows: np.ndarray,
    grid: np.ndarray,
    R: np.ndarray,
    D: np.ndarray,
) -> np.ndarray:
    """Backend-dispatching kernel; see :func:`interp_flat_numpy` for semantics."""
    if get_backend() == "numba":
        kernel = _numba_kernel()
        if kernel is not None:  # pragma: no cover - depends on local numba install
            return kernel(
                np.ascontiguousarray(flat),
                np.ascontiguousarray(offsets, dtype=np.int64),
                np.int64(stride),
                np.ascontiguousarray(max_row_f),
                np.ascontiguousarray(max_rows, dtype=np.int64),
                np.ascontiguousarray(grid),
                np.ascontiguousarray(R),
                np.ascontiguousarray(D),
            )
    return interp_flat_numpy(flat, offsets, stride, max_row_f, max_rows, grid, R, D)
