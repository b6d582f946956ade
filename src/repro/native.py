"""The one loader of the compiled kernels.

Two hot paths run as C kernels next to their Python reference:

- ``dispatch`` (:mod:`repro.cluster.dispatch`, ``cluster/dispatch.c``)
  routes request chunks exactly as ``JobRouter.offer`` does;
- ``erlang`` (:mod:`repro.queueing.vectorized`, ``queueing/erlang.c``)
  builds the Erlang-C and M/D/c latency tables exactly as their numpy
  loops do.

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

import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Any, Callable, TypeVar

__all__ = ["CFLAGS", "KernelUnavailable", "load", "kernels", "state"]

#: Never fast-math and never contracted multiply-adds: a kernel must round
#: exactly like its Python reference.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

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
    from repro.queueing import vectorized

    return {"dispatch": state(dispatch.kernel), "erlang": state(vectorized.kernel)}


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
