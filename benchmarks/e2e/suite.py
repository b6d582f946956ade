"""The benchmark's workloads and metric catalog.

Importing this module needs only the standard library, so the orchestrator
can validate arguments before any worker imports ``repro``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ROOT",
    "WORKLOAD_DIR",
    "Workload",
    "WORKLOADS",
    "cells_in",
    "load_benchmark",
]

#: Repository root: the benchmark runs from here and reads only below it.
ROOT = Path(__file__).resolve().parents[2]

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"


@dataclass(frozen=True)
class Workload:
    """A named spec file under ``workloads/`` and how to run it.

    ``serve`` runs it through ``repro.serve.serve`` with a one-minute
    streaming cursor instead of batch ``api.run``.  ``pin`` is the sha256
    of the canonical report JSON at seed 0.
    """

    name: str
    spec: str
    serve: bool = False
    pin: str | None = None

    @property
    def path(self) -> Path:
        return WORKLOAD_DIR / self.spec


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "headline",
            "headline.json",
            pin="6c2ffdf3b6333099f0c5cc49538ed7aab8f4adc39297fde0e0e69d0afee32965",
        ),
        Workload(
            "planner-100",
            "planner-100.json",
            pin="130c882e47a7a425f9852252acb65b7d51ec640ba537e2851e8f878d7a4d759a",
        ),
        Workload(
            "serve-stream",
            "serve-stream.json",
            serve=True,
            pin="2ba7ffa011811113443f01453e98da94f592e038c66c4d02a8441f45c0cf2004",
        ),
    )
}


def cells_in(workload: Workload) -> int:
    """Scenario x policy x trial cells of a workload, read from its JSON."""
    data = json.loads(workload.path.read_text())
    return len(data["scenarios"]) * len(data["policies"]) * int(data.get("trials", 1))


def load_benchmark() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
