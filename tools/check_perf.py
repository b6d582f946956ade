#!/usr/bin/env python
"""Perf gates: optimizer hot path, sweeps, sim backends, scenario builds.

Five benches run in-process and compare against checked-in baselines:

- the allocation hot-path micro-benchmark
  (``benchmarks/bench_optimizer_hotpath.py`` vs
  ``results/BENCH_optimizer.json``): warm-cache / warm-start solve timings
  regress when they exceed ``baseline * (1 + tolerance)``.  Its pgd points
  additionally pass an absolute quality gate (objective within the gated
  tolerance of the point's COBYLA differential and at least the gated
  speedup over it -- constants embedded in the emitted points, so bench and
  gate cannot drift apart).  Like the hetero gate, the pgd gate
  self-reports SKIPPED instead of failing when the run has no pgd points;
- the sharded sweep bench (``benchmarks/bench_parallel_sweep.py`` vs
  ``results/BENCH_parallel.json``): parallel reports must stay
  byte-identical to serial (unconditional), the serial path must not
  regress, and -- on machines with >= 4 cores -- the 4-worker sweep must
  keep its >= 1.5x speedup.  The speedup gate is skipped (loudly) on
  smaller machines: identity is provable anywhere, wall-clock scaling is
  not;
- the simulation-backend bench (``benchmarks/bench_sim_backends.py`` vs
  ``results/BENCH_sim.json``): batch offers must stay byte-identical to
  per-request offers (unconditional), keep their speedup on the steady,
  jittered-service, and explicit-drop workloads, and no backend's
  wall-clock may regress beyond tolerance.  The jittered/drops speedup
  gates self-report SKIPPED when the checked-in baseline predates those
  points;
- the scenario-build bench (``benchmarks/bench_scenario_build.py`` vs
  ``results/BENCH_scenarios.json``): scenario construction + trace
  generation at 10/100/500 jobs may not regress beyond tolerance, and the
  fully-composed (lowered) path must stay within its gated cost ratio of
  the legacy factory path;
- the heterogeneous-allocation bench (``benchmarks/bench_hetero_policies.py``
  vs ``results/BENCH_hetero.json``): the ILP placement baseline must agree
  with the greedy-with-repair solver within the gated utility-ratio floor
  on every instance, and both solvers must stay under the absolute
  wall-clock ceiling (they run inside policy ticks).  Unlike the other
  gates this one self-reports SKIPPED and keeps going when its baseline
  file is absent: the hetero layer is newer than the other baselines and
  a missing file should not block the pre-existing gates.

Run next to the tier-1 verify command:

    PYTHONPATH=src python -m pytest -x -q          # correctness
    PYTHONPATH=src python tools/check_perf.py      # performance

Before any bench runs, the gate fails (exit 1) if a ``results/BENCH_*.json``
baseline exists that no ``benchmarks/bench_*.py`` module references: a
baseline whose bench was deleted gates nothing, and the regression it was
pinning can silently return.

Exit codes: 0 = within tolerance, 1 = regression, 2 = bad invocation.
``--write`` refreshes the baseline files with the new measurements (do
this deliberately, on the machine class the baselines describe).  The
default tolerance is generous (75%) because wall-clock micro-benchmarks
are noisy; a real regression -- losing the warm cache, warm starts, or
parallel scaling -- is a multiple, not a percentage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Timing metrics gated per benchmark point (cold_ms is tracked but not
#: gated: it measures the deliberately-uncached path, which is allowed to
#: drift as table construction grows features).
GATED_METRICS = ("warm_ms", "warmstart_ms")


def _ensure_import_paths() -> None:
    for entry in (REPO_ROOT, REPO_ROOT / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))


def find_unpaired_baselines(
    results_dir: Path, bench_dir: Path
) -> list[tuple[Path, str]]:
    """``results/BENCH_*.json`` files no ``benchmarks/bench_*.py`` emits.

    A baseline whose bench module was deleted or renamed gates nothing --
    the regression it was pinning can silently return.  Pairing is by
    reference: a baseline is owned as soon as any bench module's text
    mentions its file name.  Returns ``(baseline_path, hint)`` pairs; an
    empty list means every baseline still has an emitting bench.  (The
    inverse direction -- a bench whose baseline check_perf.py never reads
    -- is the ``perf-gate`` pass in ``repro.analysis``.)
    """
    bench_texts = [
        p.read_text() for p in sorted(bench_dir.glob("bench_*.py")) if p.is_file()
    ]
    unpaired: list[tuple[Path, str]] = []
    for baseline in sorted(results_dir.glob("BENCH_*.json")):
        if any(baseline.name in text for text in bench_texts):
            continue
        unpaired.append(
            (
                baseline,
                f"no {bench_dir.name}/bench_*.py references {baseline.name}; "
                "restore the bench module or delete the stale baseline",
            )
        )
    return unpaired


def load_baseline(path: Path) -> dict[tuple[str, int], dict]:
    data = json.loads(path.read_text())
    points = data.get("points")
    if not isinstance(points, list) or not points:
        raise ValueError(f"{path} has no benchmark points")
    return {(p["solver"], int(p["jobs"])): p for p in points}


def compare(
    baseline: dict[tuple[str, int], dict],
    measured: list[dict],
    tolerance: float,
) -> tuple[list[tuple], bool]:
    """Rows of (point, metric, baseline_ms, measured_ms, verdict); ok flag."""
    rows = []
    ok = True
    compared = 0
    measured_keys = set()
    for point in measured:
        key = (point["solver"], int(point["jobs"]))
        measured_keys.add(key)
        base = baseline.get(key)
        label = f"{key[0]}/{key[1]} jobs"
        if base is None:
            rows.append((label, "-", "-", "-", "NEW (no baseline)"))
            continue
        for metric in GATED_METRICS:
            if metric not in point or metric not in base:
                continue
            compared += 1
            budget = base[metric] * (1.0 + tolerance)
            passed = point[metric] <= budget
            ok = ok and passed
            rows.append(
                (
                    label,
                    metric,
                    f"{base[metric]:.1f}ms",
                    f"{point[metric]:.1f}ms",
                    "ok" if passed else f"REGRESSED (> {budget:.1f}ms)",
                )
            )
    # A baseline point the bench no longer produces means the gate lost
    # coverage -- that must fail loudly, not silently shrink the check.
    for key in sorted(set(baseline) - measured_keys):
        ok = False
        rows.append((f"{key[0]}/{key[1]} jobs", "-", "present", "-", "MISSING from run"))
    if compared == 0:
        ok = False
        rows.append(("(none)", "-", "-", "-", "NO POINTS COMPARED"))
    return rows, ok


def pgd_skipped_rows() -> list[tuple]:
    """SKIPPED rows shown when the run produced no pgd points."""
    hint = "SKIPPED (no pgd points in this run; bench was trimmed?)"
    return [
        ("pgd/quality", "objective", "-", "-", hint),
        ("pgd/speedup", "cobyla/warm", "-", "-", hint),
    ]


def compare_pgd(measured: list[dict]) -> tuple[list[tuple], bool]:
    """Absolute gates for the batched first-order solver points.

    Each pgd point carries its own gate constants (``gated_quality_tol``,
    ``gated_speedup``) plus the COBYLA differential it was measured against
    (in-bench at 200 jobs; the embedded converged reference at 1000 jobs,
    where a live COBYLA solve takes minutes).  The checks are absolute, not
    baseline-relative, mirroring the hetero gate: a quality collapse or a
    lost order-of-magnitude speedup is a solver bug, and gating it against
    a drifting baseline would let it creep.  Baseline-relative wall-clock
    drift on ``warm_ms``/``warmstart_ms`` is still handled by the generic
    :func:`compare` pass like every other point.
    """
    rows = []
    ok = True
    pgd_points = [p for p in measured if p.get("solver") == "pgd"]
    if not pgd_points:
        return pgd_skipped_rows(), ok
    for point in pgd_points:
        label = f"pgd/{point['jobs']} jobs"
        tol = point["gated_quality_tol"] * max(1.0, abs(point["cobyla_objective"]))
        floor = point["cobyla_objective"] - tol
        passed = point["objective"] >= floor
        ok = ok and passed
        rows.append(
            (
                label,
                "objective",
                f">= {floor:.2f}",
                f"{point['objective']:.2f}",
                "ok" if passed else "REGRESSED (lost COBYLA-level quality)",
            )
        )
        speedup = point["cobyla_ms"] / max(point["warm_ms"], 1e-9)
        required = point["gated_speedup"]
        passed = speedup >= required
        ok = ok and passed
        rows.append(
            (
                label,
                "cobyla/warm",
                f">= {required:.0f}x",
                f"{speedup:.0f}x",
                "ok" if passed else "REGRESSED (lost the pgd speedup)",
            )
        )
    return rows, ok


def load_parallel_baseline(path: Path) -> dict:
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise ValueError(f"{path} has no benchmark points")
    if "serial_s" not in data:
        raise ValueError(f"{path} is missing 'serial_s'")
    for point in data["points"]:
        missing = {"workers", "wall_s", "speedup", "identical"} - set(point)
        if missing:
            raise ValueError(f"{path} point is missing {sorted(missing)}")
    return data


def compare_parallel(
    baseline: dict, measured: dict, tolerance: float
) -> tuple[list[tuple], bool]:
    """Gate rows for the sweep bench; same row shape as :func:`compare`."""
    rows = []
    ok = True

    broken = [p["workers"] for p in measured["points"] if not p["identical"]]
    identical = not broken
    ok = ok and identical
    rows.append(
        (
            "sweep/identity",
            "report bytes",
            "== serial",
            "== serial" if identical else f"DIVERGED at {broken} workers",
            "ok" if identical else "REGRESSED (parallel != serial)",
        )
    )

    budget = baseline["serial_s"] * (1.0 + tolerance)
    serial_ok = measured["serial_s"] <= budget
    ok = ok and serial_ok
    rows.append(
        (
            "sweep/serial",
            "wall_s",
            f"{baseline['serial_s']:.2f}s",
            f"{measured['serial_s']:.2f}s",
            "ok" if serial_ok else f"REGRESSED (> {budget:.2f}s)",
        )
    )

    cores = measured.get("cpu_count", 1)
    required = baseline.get("gated_speedup_at_4", 1.5)
    at_4 = next((p for p in measured["points"] if p["workers"] == 4), None)
    if at_4 is None:
        ok = False
        rows.append(("sweep/4-workers", "speedup", f">= {required}", "-", "MISSING from run"))
    elif cores >= 4:
        passed = at_4["speedup"] >= required
        ok = ok and passed
        rows.append(
            (
                "sweep/4-workers",
                "speedup",
                f">= {required:.1f}x",
                f"{at_4['speedup']:.2f}x",
                "ok" if passed else "REGRESSED (lost parallel scaling)",
            )
        )
    else:
        rows.append(
            (
                "sweep/4-workers",
                "speedup",
                f">= {required:.1f}x",
                f"{at_4['speedup']:.2f}x",
                f"SKIPPED (needs >= 4 cores, have {cores})",
            )
        )
    return rows, ok


def load_sim_baseline(path: Path) -> dict:
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise ValueError(f"{path} has no benchmark points")
    if "vector_identical" not in data:
        raise ValueError(f"{path} is missing 'vector_identical'")
    return data


#: Simulation-bench points whose wall-clock the gate bounds.  The scalar
#: points are recorded but not gated on their own: they time the kernel's
#: scalar fallback (the ``JobRouter.offer`` loop that runs when the
#: compiled kernel cannot load) and serve as the speedup gates' reference.
SIM_GATED_POINTS = (
    "request-steady-vector",
    "request-adaptive",
    "request-paper",
    "request-paper-vector",
    "request-drops-vector",
    "flow",
    "hybrid",
)

#: Vectorization speedups the sim gate bounds from below:
#: ``(measured key, baseline gate-constant key, default floor)``.  The
#: jittered/drops entries self-report SKIPPED when the checked-in baseline
#: predates them (a stale baseline should say so, not silently gate
#: nothing and not block older gates either).
SIM_SPEEDUP_GATES = (
    ("steady_vector_speedup", "gated_vector_speedup", 1.5),
    ("jittered_vector_speedup", "gated_jitter_speedup", 2.0),
    ("drops_vector_speedup", "gated_jitter_speedup", 2.0),
)


def compare_sim(baseline: dict, measured: dict, tolerance: float) -> tuple[list[tuple], bool]:
    """Gate rows for the backend bench; same row shape as :func:`compare`."""
    rows = []
    ok = True

    identical = bool(measured.get("vector_identical"))
    ok = ok and identical
    rows.append(
        (
            "sim/batch-identity",
            "series",
            "== scalar",
            "== scalar" if identical else "DIVERGED",
            "ok" if identical else "REGRESSED (batch offers changed results)",
        )
    )

    for key, gate_key, default in SIM_SPEEDUP_GATES:
        label = f"sim/{key.replace('_vector_speedup', '')}-speedup"
        if key not in baseline:
            # The checked-in baseline predates this speedup point (the
            # jittered/drops regimes are newer than the steady one); say
            # so instead of silently gating nothing.
            rows.append(
                (
                    label,
                    "speedup",
                    "-",
                    "-",
                    f"SKIPPED ({key} absent from baseline; rerun --write)",
                )
            )
            continue
        required = baseline.get(gate_key, default)
        speedup = measured.get(key, 0.0)
        passed = speedup >= required
        ok = ok and passed
        rows.append(
            (
                label,
                "speedup",
                f">= {required:.1f}x",
                f"{speedup:.2f}x",
                "ok" if passed else "REGRESSED (lost batch-offer speedup)",
            )
        )

    base_points = {p["name"]: p for p in baseline["points"]}
    measured_points = {p["name"]: p for p in measured["points"]}
    for name in SIM_GATED_POINTS:
        base = base_points.get(name)
        point = measured_points.get(name)
        if base is None:
            rows.append((f"sim/{name}", "wall_s", "-", "-", "NEW (no baseline)"))
            continue
        if point is None:
            ok = False
            rows.append((f"sim/{name}", "wall_s", "present", "-", "MISSING from run"))
            continue
        budget = base["wall_s"] * (1.0 + tolerance)
        passed = point["wall_s"] <= budget
        ok = ok and passed
        rows.append(
            (
                f"sim/{name}",
                "wall_s",
                f"{base['wall_s']*1000:.0f}ms",
                f"{point['wall_s']*1000:.0f}ms",
                "ok" if passed else f"REGRESSED (> {budget*1000:.0f}ms)",
            )
        )
    return rows, ok


def load_scenario_baseline(path: Path) -> dict:
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise ValueError(f"{path} has no benchmark points")
    for point in data["points"]:
        missing = {"name", "wall_s"} - set(point)
        if missing:
            raise ValueError(f"{path} point is missing {sorted(missing)}")
    return data


def compare_scenarios(
    baseline: dict, measured: dict, tolerance: float
) -> tuple[list[tuple], bool]:
    """Gate rows for the scenario-build bench; same row shape as :func:`compare`."""
    rows = []
    ok = True

    # The composed (lowered) path must stay in the factory's cost class.
    required = baseline.get("gated_composed_overhead", 1.5)
    overhead = measured.get("composed_overhead_at_500", float("inf"))
    passed = overhead <= required
    ok = ok and passed
    rows.append(
        (
            "scenario/composed-overhead",
            "ratio",
            f"<= {required:.1f}x",
            f"{overhead:.2f}x",
            "ok" if passed else "REGRESSED (composition became a tax)",
        )
    )

    base_points = {p["name"]: p for p in baseline["points"]}
    measured_points = {p["name"]: p for p in measured["points"]}
    for name in base_points:
        point = measured_points.get(name)
        if point is None:
            ok = False
            rows.append((f"scenario/{name}", "wall_s", "present", "-", "MISSING from run"))
            continue
        budget = base_points[name]["wall_s"] * (1.0 + tolerance)
        passed = point["wall_s"] <= budget
        ok = ok and passed
        rows.append(
            (
                f"scenario/{name}",
                "wall_s",
                f"{base_points[name]['wall_s']*1000:.0f}ms",
                f"{point['wall_s']*1000:.0f}ms",
                "ok" if passed else f"REGRESSED (> {budget*1000:.0f}ms)",
            )
        )
    for name in measured_points:
        if name not in base_points:
            rows.append((f"scenario/{name}", "wall_s", "-", "-", "NEW (no baseline)"))
    return rows, ok


def load_hetero_baseline(path: Path) -> dict:
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise ValueError(f"{path} has no benchmark points")
    missing = {"min_ratio", "gated_min_ratio", "gated_solve_ceiling_s"} - set(data)
    if missing:
        raise ValueError(f"{path} is missing {sorted(missing)}")
    return data


def hetero_skipped_rows(path: Path) -> list[tuple]:
    """SKIPPED rows shown when the hetero baseline file is absent."""
    hint = f"SKIPPED ({path.name} absent; run the bench or --write)"
    return [
        ("hetero/agreement", "ilp/greedy", "-", "-", hint),
        ("hetero/solve", "wall_s", "-", "-", hint),
    ]


def compare_hetero(baseline: dict, measured: dict) -> tuple[list[tuple], bool]:
    """Gate rows for the hetero-allocation bench; same row shape as :func:`compare`.

    Both checks are absolute rather than baseline-relative: the agreement
    floor catches solver bugs (a collapsed ratio, not a slow one) and the
    wall-clock ceiling keeps solves interactive inside policy ticks.
    Baseline-relative drift on sub-millisecond solves would gate on noise.
    """
    rows = []
    ok = True

    floor = baseline.get("gated_min_ratio", 0.9)
    for point in measured["points"]:
        passed = point["ratio"] >= floor
        ok = ok and passed
        rows.append(
            (
                f"hetero/{point['name']}",
                "ilp/greedy",
                f">= {floor:.2f}",
                f"{point['ratio']:.3f}",
                "ok" if passed else "REGRESSED (solvers disagree)",
            )
        )
    measured_names = {p["name"] for p in measured["points"]}
    for name in sorted({p["name"] for p in baseline["points"]} - measured_names):
        ok = False
        rows.append(
            (f"hetero/{name}", "ilp/greedy", "present", "-", "MISSING from run")
        )

    ceiling = baseline.get("gated_solve_ceiling_s", 2.0)
    for solver in ("greedy", "ilp"):
        wall = measured[f"{solver}_wall_s"]
        passed = wall < ceiling
        ok = ok and passed
        rows.append(
            (
                f"hetero/{solver}",
                "wall_s",
                f"< {ceiling:.1f}s",
                f"{wall*1000:.1f}ms",
                "ok" if passed else "REGRESSED (solve no longer interactive)",
            )
        )
    return rows, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "results" / "BENCH_optimizer.json",
        help="baseline JSON (default: results/BENCH_optimizer.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.75,
        help="allowed fractional slowdown per gated metric (default 0.75)",
    )
    parser.add_argument(
        "--parallel-baseline",
        type=Path,
        default=REPO_ROOT / "results" / "BENCH_parallel.json",
        help="sweep-executor baseline JSON (default: results/BENCH_parallel.json)",
    )
    parser.add_argument(
        "--skip-parallel",
        action="store_true",
        help="skip the sharded-sweep gate",
    )
    parser.add_argument(
        "--sim-baseline",
        type=Path,
        default=REPO_ROOT / "results" / "BENCH_sim.json",
        help="simulation-backend baseline JSON (default: results/BENCH_sim.json)",
    )
    parser.add_argument(
        "--skip-sim",
        action="store_true",
        help="skip the simulation-backend gate",
    )
    parser.add_argument(
        "--scenario-baseline",
        type=Path,
        default=REPO_ROOT / "results" / "BENCH_scenarios.json",
        help="scenario-build baseline JSON (default: results/BENCH_scenarios.json)",
    )
    parser.add_argument(
        "--skip-scenarios",
        action="store_true",
        help="skip the scenario-build gate",
    )
    parser.add_argument(
        "--hetero-baseline",
        type=Path,
        default=REPO_ROOT / "results" / "BENCH_hetero.json",
        help="hetero-allocation baseline JSON (default: results/BENCH_hetero.json)",
    )
    parser.add_argument(
        "--skip-hetero",
        action="store_true",
        help="skip the heterogeneous-allocation gate",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="refresh the baseline file(s) with the new measurements",
    )
    args = parser.parse_args(argv)

    if args.tolerance < 0:
        print("error: tolerance must be >= 0", file=sys.stderr)
        return 2
    unpaired = find_unpaired_baselines(
        REPO_ROOT / "results", REPO_ROOT / "benchmarks"
    )
    if unpaired:
        for baseline, hint in unpaired:
            print(
                f"error: orphaned baseline {baseline.relative_to(REPO_ROOT)}: "
                f"{hint}",
                file=sys.stderr,
            )
        return 1
    if not args.baseline.exists():
        print(
            f"error: baseline {args.baseline} not found; run the bench once "
            "(pytest benchmarks/bench_optimizer_hotpath.py) or pass --baseline",
            file=sys.stderr,
        )
        return 2
    run_parallel_gate = not args.skip_parallel
    if run_parallel_gate and not args.parallel_baseline.exists():
        print(
            f"error: baseline {args.parallel_baseline} not found; run the bench "
            "once (pytest benchmarks/bench_parallel_sweep.py) or pass "
            "--parallel-baseline / --skip-parallel",
            file=sys.stderr,
        )
        return 2
    run_sim_gate = not args.skip_sim
    if run_sim_gate and not args.sim_baseline.exists():
        print(
            f"error: baseline {args.sim_baseline} not found; run the bench "
            "once (pytest benchmarks/bench_sim_backends.py) or pass "
            "--sim-baseline / --skip-sim",
            file=sys.stderr,
        )
        return 2
    run_scenario_gate = not args.skip_scenarios
    if run_scenario_gate and not args.scenario_baseline.exists():
        print(
            f"error: baseline {args.scenario_baseline} not found; run the bench "
            "once (pytest benchmarks/bench_scenario_build.py) or pass "
            "--scenario-baseline / --skip-scenarios",
            file=sys.stderr,
        )
        return 2

    # The hetero gate deliberately tolerates a missing baseline file (it
    # self-reports SKIPPED below) -- a malformed one is still an error.
    run_hetero_gate = not args.skip_hetero
    hetero_baseline = None

    try:
        baseline = load_baseline(args.baseline)
        parallel_baseline = (
            load_parallel_baseline(args.parallel_baseline)
            if run_parallel_gate
            else None
        )
        sim_baseline = load_sim_baseline(args.sim_baseline) if run_sim_gate else None
        scenario_baseline = (
            load_scenario_baseline(args.scenario_baseline)
            if run_scenario_gate
            else None
        )
        if run_hetero_gate and args.hetero_baseline.exists():
            hetero_baseline = load_hetero_baseline(args.hetero_baseline)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot read baseline: {exc}", file=sys.stderr)
        return 2

    _ensure_import_paths()
    from benchmarks.bench_optimizer_hotpath import run_hotpath

    print(f"running optimizer hot-path bench (baseline: {args.baseline}) ...")
    measured = run_hotpath()

    rows, ok = compare(baseline, measured, args.tolerance)
    from repro.experiments.report import format_table

    print()
    print(
        format_table(
            ["point", "metric", "baseline", "measured", "verdict"],
            rows,
            title=f"== Optimizer hot-path perf gate (tolerance {args.tolerance:.0%}) ==",
        )
    )

    pgd_rows, pgd_ok = compare_pgd(measured)
    ok = ok and pgd_ok
    print()
    print(
        format_table(
            ["point", "metric", "baseline", "measured", "verdict"],
            pgd_rows,
            title="== Batched first-order solver (pgd) quality gate ==",
        )
    )

    parallel_measured = None
    if run_parallel_gate:
        from benchmarks.bench_parallel_sweep import run_parallel_bench

        print(
            f"\nrunning sharded sweep bench (baseline: {args.parallel_baseline}) ..."
        )
        parallel_measured = run_parallel_bench()
        parallel_rows, parallel_ok = compare_parallel(
            parallel_baseline, parallel_measured, args.tolerance
        )
        ok = ok and parallel_ok
        print()
        print(
            format_table(
                ["point", "metric", "baseline", "measured", "verdict"],
                parallel_rows,
                title="== Sharded sweep executor perf gate ==",
            )
        )

    sim_measured = None
    if run_sim_gate:
        from benchmarks.bench_sim_backends import run_sim_bench

        print(f"\nrunning simulation-backend bench (baseline: {args.sim_baseline}) ...")
        sim_measured = run_sim_bench()
        sim_rows, sim_ok = compare_sim(sim_baseline, sim_measured, args.tolerance)
        ok = ok and sim_ok
        print()
        print(
            format_table(
                ["point", "metric", "baseline", "measured", "verdict"],
                sim_rows,
                title="== Simulation backend perf gate ==",
            )
        )

    scenario_measured = None
    if run_scenario_gate:
        from benchmarks.bench_scenario_build import run_scenario_bench

        print(
            f"\nrunning scenario-build bench (baseline: {args.scenario_baseline}) ..."
        )
        scenario_measured = run_scenario_bench()
        scenario_rows, scenario_ok = compare_scenarios(
            scenario_baseline, scenario_measured, args.tolerance
        )
        ok = ok and scenario_ok
        print()
        print(
            format_table(
                ["point", "metric", "baseline", "measured", "verdict"],
                scenario_rows,
                title="== Scenario build perf gate ==",
            )
        )

    hetero_measured = None
    if run_hetero_gate:
        if hetero_baseline is None and not args.write:
            print(f"\nhetero baseline {args.hetero_baseline} absent; gate skipped")
            print()
            print(
                format_table(
                    ["point", "metric", "baseline", "measured", "verdict"],
                    hetero_skipped_rows(args.hetero_baseline),
                    title="== Heterogeneous allocation perf gate ==",
                )
            )
        else:
            from benchmarks.bench_hetero_policies import run_hetero_bench

            print(
                "\nrunning heterogeneous-allocation bench "
                f"(baseline: {args.hetero_baseline}) ..."
            )
            hetero_measured = run_hetero_bench()
            # With --write and no prior baseline, the measurement gates
            # itself: the floors/ceilings come from the bench constants.
            hetero_rows, hetero_ok = compare_hetero(
                hetero_baseline if hetero_baseline is not None else hetero_measured,
                hetero_measured,
            )
            ok = ok and hetero_ok
            print()
            print(
                format_table(
                    ["point", "metric", "baseline", "measured", "verdict"],
                    hetero_rows,
                    title="== Heterogeneous allocation perf gate ==",
                )
            )

    if args.write:
        args.baseline.write_text(json.dumps({"points": measured}, indent=2) + "\n")
        print(f"\nwrote new baseline to {args.baseline}")
        if parallel_measured is not None:
            args.parallel_baseline.write_text(
                json.dumps(parallel_measured, indent=2) + "\n"
            )
            print(f"wrote new baseline to {args.parallel_baseline}")
        if sim_measured is not None:
            args.sim_baseline.write_text(json.dumps(sim_measured, indent=2) + "\n")
            print(f"wrote new baseline to {args.sim_baseline}")
        if scenario_measured is not None:
            args.scenario_baseline.write_text(
                json.dumps(scenario_measured, indent=2) + "\n"
            )
            print(f"wrote new baseline to {args.scenario_baseline}")
        if hetero_measured is not None:
            args.hetero_baseline.write_text(
                json.dumps(hetero_measured, indent=2) + "\n"
            )
            print(f"wrote new baseline to {args.hetero_baseline}")

    if not ok:
        print(
            "\nFAIL: perf gate regressed beyond tolerance "
            "(or the gate lost baseline coverage)",
            file=sys.stderr,
        )
        return 1
    print("\nOK: all perf gates within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
