"""The one loader of the compiled kernels, and the BLAS table they share.

Six hot paths run as C kernels next to their Python reference:

- ``dispatch`` (:mod:`repro.cluster.dispatch`, ``cluster/dispatch.c``)
  routes request chunks exactly as ``JobRouter.offer`` does;
- ``erlang`` (:mod:`repro.queueing.vectorized`, ``queueing/erlang.c``)
  builds the Erlang-C and M/D/c latency tables exactly as their numpy
  loops do;
- ``trstlp`` (:mod:`repro.core.trstlp`, ``core/trstlp.c``) runs a whole
  COBYLA solve exactly as scipy 1.17's ``minimize(method="COBYLA")``
  (pyprima's ``cobylb`` driver and its trust-region step ``trstlp``) runs
  it, handing each point back to a short Python loop;
- ``objective`` (:mod:`repro.core.objective`, ``core/objective.c``)
  answers each of those points with one call: Faro's objective and
  constraint slacks exactly as their numpy reference computes them;
- ``nhits`` (:mod:`repro.forecast.nhits`, ``forecast/nhits.c``) runs a
  stacked N-HiTS training step exactly as the autodiff tape does;
- ``flow`` (:mod:`repro.sim.flow`, ``sim/flow.c``) steps every analytic
  job of a run one control tick exactly as ``FlowJob.step`` does.

``trstlp``, ``objective`` and ``nhits`` never sum a product themselves:
every ``np.dot``, ``@``, ``np.linalg.lstsq`` and ``np.linalg.inv`` of
their reference is a call through :func:`blas`, one table of the BLAS and
LAPACK routines numpy itself calls, so their bits follow numpy's on any
host.

Each client module wraps :func:`load` in its own ``kernel()`` under
``functools.cache``, so a kernel loads once per process, on first use.
A load

1. compiles the source with the system ``cc`` and :data:`CFLAGS` into the
   source's ``__pycache__``, keyed by a hash of source, flags and machine
   -- once per checkout; the build is renamed into place atomically, so
   spawn workers may race;
2. opens the library with cffi's ABI mode;
3. binds it and runs the kernel's own self-check against the reference.

When any step fails it warns once (``RuntimeWarning`` naming the kernel
and the cause) and returns ``None``; the client then runs its Python
reference, which gives the same bits.  cffi objects live only in the
client modules, never on anything that is pickled.
"""

from __future__ import annotations

import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Any, Callable, TypeVar

__all__ = [
    "BLAS_CDEF", "CFLAGS", "KernelUnavailable", "blas", "host", "load", "kernels", "state",
]

#: Never fast-math and never contracted multiply-adds: a kernel must round
#: exactly like its Python reference.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: The cffi declaration of :func:`blas`'s table; a kernel's C source names
#: its entries with their function-pointer types, in this order (a prefix
#: of them when it calls only those).
BLAS_CDEF = "typedef struct { void *ddot, *dgemv, *dgemm, *dgelsd, *dgesv; } Blas;"

#: The table's routines, in :data:`BLAS_CDEF`'s order, with the numpy
#: extension module that exports each.
_BLAS_ROUTINES = (
    ("scipy_cblas_ddot64_", "numpy._core._multiarray_umath"),
    ("scipy_cblas_dgemv64_", "numpy._core._multiarray_umath"),
    ("scipy_cblas_dgemm64_", "numpy._core._multiarray_umath"),
    ("scipy_dgelsd_64_", "numpy.linalg._umath_linalg"),
    ("scipy_dgesv_64_", "numpy.linalg._umath_linalg"),
)

T = TypeVar("T")


class KernelUnavailable(RuntimeError):
    """Why a compiled kernel cannot serve this process."""


def load(
    name: str,
    source: Path,
    cdef: str,
    bind: Callable[[Any, Any], T],
    check: Callable[[T], None],
    fallback: str,
) -> T | None:
    """Build, open, bind and check one kernel; ``None`` when it cannot load.

    ``bind(ffi, library)`` turns the opened library into the callable the
    client uses, and ``check`` raises :class:`KernelUnavailable` unless
    that callable reproduces the reference.  ``fallback`` says in the
    warning what runs instead.
    """
    try:
        library = _build(name, source)
        try:
            import cffi
        except ImportError as exc:
            raise KernelUnavailable("cffi is not installed") from exc
        ffi = cffi.FFI()
        ffi.cdef(cdef)
        try:
            bound = bind(ffi, ffi.dlopen(str(library)))
        except (AttributeError, OSError) as exc:
            raise KernelUnavailable(f"cannot open {library.name}: {exc}") from exc
        check(bound)
    except KernelUnavailable as exc:
        warnings.warn(
            f"compiled {name} kernel unavailable ({exc}); {fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return bound


@functools.cache
def blas():
    """numpy's bundled ``ddot``, ``dgemv``, ``dgemm``, ``dgelsd`` and ``dgesv``, as one table.

    A read-only numpy array of the five routines' addresses, in
    :data:`BLAS_CDEF`'s order, resolved once per process; a kernel receives
    it as ``ffi.from_buffer("Blas *", native.blas())``.  These are the
    routines numpy's ``np.dot``, ``@``, ``np.linalg.lstsq`` and
    ``np.linalg.inv`` call, so a kernel that calls them with numpy's layouts
    gets numpy's bits, on whichever kernels OpenBLAS picked for this CPU.  Raises
    :class:`KernelUnavailable` when cffi is missing or numpy does not export
    them.  The addresses stay valid: numpy's own import keeps its
    extension modules loaded.
    """
    import importlib

    import numpy as np

    try:
        import cffi
    except ImportError as exc:
        raise KernelUnavailable("cffi is not installed") from exc
    ffi = cffi.FFI()
    ffi.cdef("".join(f"void {name}(void);" for name, _ in _BLAS_ROUTINES))
    try:
        addresses = []
        for name, module in _BLAS_ROUTINES:
            library = ffi.dlopen(importlib.import_module(module).__file__)
            addresses.append(int(ffi.cast("uintptr_t", getattr(library, name))))
    except (AttributeError, ImportError, OSError) as exc:
        raise KernelUnavailable(
            f"numpy does not export its bundled BLAS and LAPACK: {exc}"
        ) from exc
    table = np.array(addresses, dtype=np.uint64)
    table.flags.writeable = False
    return table


def state(kernel: Callable[[], object]) -> str | None:
    """``"c"`` or ``"python"`` for a kernel this process has loaded, else ``None``.

    Never loads: a ``kernel()`` whose cache is empty reads ``None``.  A
    stand-in without a cache (a test forcing the fallback) counts as loaded.
    """
    cache_info = getattr(kernel, "cache_info", None)
    if cache_info is not None and not cache_info().currsize:
        return None
    return "c" if kernel() is not None else "python"


def kernels() -> dict[str, str | None]:
    """Run metadata ``metadata["kernels"]``: the :func:`state` of every kernel."""
    from repro.cluster import dispatch
    from repro.core import objective, trstlp
    from repro.forecast import nhits
    from repro.queueing import vectorized
    from repro.sim import flow

    return {
        "dispatch": state(dispatch.kernel),
        "erlang": state(vectorized.kernel),
        "trstlp": state(trstlp.kernel),
        "objective": state(objective.kernel),
        "nhits": state(nhits.kernel),
        "flow": state(flow.kernel),
    }


def host() -> dict[str, object]:
    """Run metadata ``metadata["platform"]``: what sets a kernel's bits here.

    The digest pins hold on one class of CPU: the ``trstlp`` and ``nhits``
    kernels, like numpy, take their sums from OpenBLAS's choice of kernels,
    and numpy and glibc pick their vector loops by CPU too.  So a pin that
    moves on another host can be told apart by three facts, each ``None``
    when it cannot be read:

    - ``openblas_core``: the core OpenBLAS picked (``"SkylakeX"``, ...);
    - ``numpy_targets``: numpy's active CPU dispatch targets;
    - ``glibc``: the C library's version (``"glibc 2.36"``).

    Read once per process; the result is a fresh copy every time.
    """
    facts = _host_facts()
    targets = facts["numpy_targets"]
    return {**facts, "numpy_targets": None if targets is None else list(targets)}


@functools.cache
def _host_facts() -> dict[str, object]:
    import ctypes

    import numpy as np

    try:
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
        corename = blas.scipy_openblas_get_corename64_
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename()
        core = core.decode() if core else None
    except (AttributeError, OSError):
        core = None
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        targets = tuple(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    except (ImportError, AttributeError):
        targets = None
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        libc = None
    return {"openblas_core": core, "numpy_targets": targets, "glibc": libc}


def _build(name: str, source: Path) -> Path:
    """Path of the compiled library, compiling it on a cache miss."""
    cache_dir = source.with_name("__pycache__")
    compiler = shutil.which("cc")
    if compiler is None:
        raise KernelUnavailable("no C compiler: cc is not on PATH")
    try:
        text = source.read_bytes()
    except OSError as exc:
        raise KernelUnavailable(f"cannot read {source.name}: {exc}") from exc
    key = b"\0".join([text, " ".join(CFLAGS).encode(), platform.machine().encode()])
    target = cache_dir / f"{name}-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if target.exists():
        return target
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=cache_dir, prefix=f".{name}-")
    except OSError as exc:
        raise KernelUnavailable(f"cannot write to {cache_dir}: {exc}") from exc
    try:
        partial = os.path.join(workdir, target.name)
        result = subprocess.run(
            [compiler, *CFLAGS, "-o", partial, str(source)],
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            detail = result.stderr.strip().splitlines()[:1] or ["no diagnostics"]
            raise KernelUnavailable(f"cc failed to compile {source.name}: {detail[0]}")
        os.replace(partial, target)
    except OSError as exc:
        raise KernelUnavailable(f"cannot build {target.name}: {exc}") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return target
