"""Entry point of ``python -m benchmarks.e2e``; see :mod:`benchmarks.e2e.cli`."""

import signal
import sys

from .cli import main


def _stop(signum, frame):
    # Unwind instead of dying, so subprocess.run kills and reaps the worker.
    raise SystemExit(128 + signum)


signal.signal(signal.SIGTERM, _stop)
sys.exit(main())
