#!/usr/bin/env python
"""Pre-PR umbrella gate: tier-1 tests, perf gates, and the static linter.

One command runs everything a PR must keep green, in the order that fails
fastest:

1. ``repro-faro lint src tools benchmarks examples`` -- static passes
   (determinism, ordered iteration, frozen-spec mutation, registry
   contract, spawn safety, rng batching, perf-gate drift), seconds;
2. optionally (``--bench-smoke``) the tiny sim-backend smoke bench --
   structural perf drift (diverged batch series, a vector kernel that
   stopped engaging) in seconds rather than at the full perf gate;
3. optionally (``--serve-smoke``) the serve-loop identity smoke --
   ``repro-faro serve --check`` replays ``specs/serve_replay.json`` and
   diffs the merged report against batch ``api.run`` byte-for-byte;
4. ``PYTHONPATH=src python -m pytest -x -q`` -- the tier-1 suite;
5. ``PYTHONPATH=src python tools/check_perf.py`` -- the perf gates
   (skippable with ``--skip-perf`` on machines whose wall-clock the
   checked-in baselines do not describe);
6. optionally (``--portability``) a report, not a gate: every digest pin,
   the COBYLA and N-HiTS differentials and the e2e pin check, each rerun in
   a subprocess under every host emulation in :data:`EMULATIONS` (other
   OpenBLAS kernels, numpy without its AVX-512 loops, glibc without AVX2
   and FMA), ending with one verdict per pin and emulation.

Every step runs even after an earlier one fails (so one invocation shows
the full damage); the exit code is 0 only when all of the gating ones
passed.

    PYTHONPATH=src python tools/run_checks.py            # the full gate
    PYTHONPATH=src python tools/run_checks.py --skip-perf
    PYTHONPATH=src python tools/run_checks.py --skip-tests --skip-perf --portability
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

__all__ = ["CheckStep", "build_steps", "main"]


@dataclass(frozen=True)
class CheckStep:
    """One gate: a name and the argv to run from the repo root.

    ``env`` adds to the environment; a step that is not ``gating`` reports
    its verdict without failing the run.
    """

    name: str
    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    gating: bool = True


#: Host emulations of the portability report, each as environment settings:
#: OpenBLAS told to run another core's kernels, numpy with its AVX-512 loops
#: off, and glibc's libm with its AVX2, FMA and AVX-512 variants off.
EMULATIONS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("openblas-haswell", (("OPENBLAS_CORETYPE", "Haswell"),)),
    ("openblas-sandybridge", (("OPENBLAS_CORETYPE", "Sandybridge"),)),
    ("openblas-prescott", (("OPENBLAS_CORETYPE", "Prescott"),)),
    ("numpy-no-avx512", (("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4"),)),
    ("glibc-no-avx2-fma", (("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"),)),
)


def portability_pins(python: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The pins the portability report reruns: ``(name, argv)``."""
    pytest = (python, "-m", "pytest", "-q", "-p", "no:cacheprovider")
    return (
        ("report digests", pytest + ("tests/test_backend_differential.py",)),
        ("COBYLA pins", pytest + ("tests/test_batched_solver.py::TestCobylaDigestPins",)),
        ("forecaster pins", pytest + ("tests/test_forecast.py::TestTrainedForecasterPins",)),
        ("COBYLA differential", pytest + ("tests/test_trstlp_kernel.py",)),
        ("N-HiTS differential", pytest + ("tests/test_nhits_kernel.py",)),
        ("e2e pins", (python, "-m", "benchmarks.e2e", "--repeats", "1")),
    )


def build_steps(
    *,
    skip_perf: bool = False,
    skip_tests: bool = False,
    lint_changed: bool = False,
    bench_smoke: bool = False,
    serve_smoke: bool = False,
    portability: bool = False,
) -> list[CheckStep]:
    """The gate sequence, cheapest first.  Pure -- easy to test."""
    python = sys.executable or "python"
    lint_argv = [python, "-m", "repro.cli", "lint"]
    if lint_changed:
        lint_argv.append("--changed")
    lint_argv += ["src", "tools", "benchmarks", "examples"]
    steps = [CheckStep(name="lint", argv=tuple(lint_argv))]
    if bench_smoke:
        # Before the (slow) tier-1 suite: the smoke bench trips in seconds
        # on structural perf drift (a kernel that stopped engaging, a
        # diverged batch series) that the full perf gate would only catch
        # minutes later.
        steps.append(
            CheckStep(
                name="bench-smoke",
                argv=(python, "-m", "benchmarks.bench_sim_backends"),
            )
        )
    if serve_smoke:
        # End-to-end serve identity on the shipped replay spec: the CLI's
        # --check mode replays it through the serve loop and diffs the
        # merged report against batch api.run byte-for-byte.
        steps.append(
            CheckStep(
                name="serve-smoke",
                argv=(
                    python,
                    "-m",
                    "repro.cli",
                    "serve",
                    "--spec",
                    str(Path("specs") / "serve_replay.json"),
                    "--check",
                    "--quiet",
                ),
            )
        )
    if not skip_tests:
        steps.append(
            CheckStep(name="tests", argv=(python, "-m", "pytest", "-x", "-q"))
        )
    if not skip_perf:
        steps.append(
            CheckStep(name="perf", argv=(python, str(Path("tools") / "check_perf.py")))
        )
    if portability:
        for emulation, env in EMULATIONS:
            for pin, argv in portability_pins(python):
                steps.append(
                    CheckStep(
                        name=f"portability {emulation}: {pin}",
                        argv=argv,
                        env=env,
                        gating=False,
                    )
                )
    return steps


def run_steps(steps: list[CheckStep], *, cwd: Path = REPO_ROOT) -> int:
    env = dict(os.environ)
    src = str(cwd / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    failures: list[str] = []
    report: list[tuple[str, str]] = []
    for step in steps:
        settings = " ".join(f"{key}={value}" for key, value in step.env)
        print(f"==> {step.name}: {settings + ' ' if settings else ''}{' '.join(step.argv)}")
        start = time.perf_counter()
        code = subprocess.run(
            list(step.argv), cwd=cwd, env={**env, **dict(step.env)}
        ).returncode
        elapsed = time.perf_counter() - start
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"<== {step.name}: {status} in {elapsed:.1f}s\n")
        if not step.gating:
            report.append((step.name, "holds" if code == 0 else f"DIFFERS (exit {code})"))
        elif code != 0:
            failures.append(step.name)
    if report:
        print("portability report (not gating):")
        for name, verdict in report:
            print(f"  {name}: {verdict}")
    gating = sum(step.gating for step in steps)
    if failures:
        print(f"FAIL: {', '.join(failures)} -- fix before opening the PR")
        return 1
    print(f"OK: all {gating} gating check(s) passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-perf",
        action="store_true",
        help="skip tools/check_perf.py (wall-clock baselines are machine-bound)",
    )
    parser.add_argument(
        "--skip-tests", action="store_true", help="skip the tier-1 pytest suite"
    )
    parser.add_argument(
        "--lint-changed",
        action="store_true",
        help="lint only files changed since the merge-base with main",
    )
    parser.add_argument(
        "--bench-smoke",
        action="store_true",
        help="run the tiny sim-backend bench (seconds) before the test suite",
    )
    parser.add_argument(
        "--serve-smoke",
        action="store_true",
        help="replay specs/serve_replay.json through the serve loop and "
        "check byte-identity against batch api.run",
    )
    parser.add_argument(
        "--portability",
        action="store_true",
        help="report (without gating) whether every pin holds under each "
        "emulated host: other OpenBLAS cores, numpy without AVX-512, glibc "
        "without AVX2/FMA",
    )
    args = parser.parse_args(argv)
    steps = build_steps(
        skip_perf=args.skip_perf,
        skip_tests=args.skip_tests,
        lint_changed=args.lint_changed,
        bench_smoke=args.bench_smoke,
        serve_smoke=args.serve_smoke,
        portability=args.portability,
    )
    return run_steps(steps)


if __name__ == "__main__":
    sys.exit(main())
