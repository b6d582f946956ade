"""``python -m benchmarks.e2e``: run the end-to-end benchmark or compare two runs.

Run::

    python -m benchmarks.e2e [--workload NAME ...] [--seed S]
        [--repeats K | --seconds T] [--trace {0,1} | --traced] [--out FILE]

Each (workload, repeat, pass) runs in a fresh worker process, one at a
time, and repeats go round-robin across workloads (A B C A B C ...) so that
drift in host speed hits every workload alike.  ``--seconds`` replaces a
fixed repeat count with a time budget: rounds continue while the next one,
as long as the last, would end within it, and at least one round runs.

The untraced pass gives the end-to-end metrics.  ``--trace 1`` (or
``--traced``) adds a traced run after each untraced one; the traced runs
give the per-layer metrics.  Every metric is printed by name with its unit,
as the median, IQR and sample count over the repeats; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the median of each metric (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).  Results go to ``--out`` or standard
output only.

Compare::

    python -m benchmarks.e2e compare A.json B.json

prints both medians and IQRs per workload and metric with a verdict
against the bounds in ``BENCHMARK.json``, and exits 1 on a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib.metadata import version

from .stats import summarize
from .suite import ROOT, WORKLOADS, cells_in, load_benchmark

#: Worker outputs (run records and span files), kept for inspection.
RUN_DIR = ROOT / ".bench_e2e"

#: A worker that runs longer than this is stopped and its cells fail.
WORKER_TIMEOUT_S = 170

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """What the timings depend on besides the code."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
    }


def run_worker(workload: str, seed: int, trace: int, tag: str) -> dict:
    """One worker process; its run record, or a record of all cells failed."""
    RUN_DIR.mkdir(exist_ok=True)
    result = RUN_DIR / f"{tag}.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    # A fixed hash seed makes two workers with the same inputs follow the
    # same code paths; results never depend on it (the digest pins hold
    # under any hash seed).
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, "-m", "benchmarks.e2e.worker", "--workload", workload]
    command += ["--seed", str(seed), "--trace", str(trace), "--result", str(result)]
    command += ["--spans", str(RUN_DIR / f"{tag}.spans.jsonl")]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        error = None if proc.returncode == 0 else proc.stdout[-4000:]
    except subprocess.TimeoutExpired:
        error = f"worker exceeded {WORKER_TIMEOUT_S} s"
    if error is None and result.exists():
        return json.loads(result.read_text())
    cells = cells_in(WORKLOADS[workload])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": cells,
        "failed": cells,
        "ok": False,
        "error": error or "worker wrote no result",
        "checks": {},
        "metrics": {},
    }


def summarize_workload(records: list[dict], bench: dict) -> dict[str, dict]:
    """Median, quartiles and count of every metric over one workload's runs.

    End-to-end metrics come from the untraced runs, per-layer metrics from
    the traced ones; runs with a failed cell contribute nothing.
    ``trace.overhead_s`` is each traced ``wall_s`` minus the untraced median.
    """
    plain = [r["metrics"] for r in records if r["ok"] and r["trace"] == 0]
    traced = [r["metrics"] for r in records if r["ok"] and r["trace"] == 1]
    out: dict[str, dict] = {}
    for spec in bench["end_to_end"]:
        if plain:
            out[spec["name"]] = summarize([m[spec["name"]] for m in plain])
    for spec in bench["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead_s":
            if traced and plain:
                wall = out["wall_s"]["median"]
                out[name] = summarize([m["wall_s"] - wall for m in traced])
        elif traced:
            out[name] = summarize([m[name] for m in traced])
    for spec in bench["end_to_end"] + bench["per_layer"]:
        if spec["name"] in out:
            out[spec["name"]]["unit"] = spec["unit"]
    return out


def result_line(
    per_workload: dict[str, dict], bench: dict, trace: int, records: list[dict]
) -> dict:
    """The last stdout line: correctness, cell counts and metric medians.

    With one workload the metric names are the names in ``BENCHMARK.json``;
    with several each is prefixed by ``<workload>/``.
    """
    names = [spec["name"] for spec in bench["per_layer" if trace else "end_to_end"]]
    prefix = len(per_workload) > 1
    metrics = {}
    for workload, summary in per_workload.items():
        for name in names:
            if name in summary:
                key = f"{workload}/{name}" if prefix else name
                stats = summary[name]
                metrics[key] = {"value": stats["median"], "unit": stats["unit"]}
    return {
        "correct": all(record["ok"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def _format_table(per_workload: dict[str, dict]) -> str:
    lines = []
    for workload, metrics in per_workload.items():
        lines.append(f"== {workload}")
        lines.append(f"  {'metric':34} {'median':>16} {'iqr':>14} {'n':>3}  unit")
        for name, stats in metrics.items():
            lines.append(
                f"  {name:34} {stats['median']:16.6g} {stats['iqr']:14.4g} "
                f"{stats['n']:3d}  {stats['unit']}"
            )
    return "\n".join(lines)


def _status(record: dict) -> str:
    wall = record["metrics"].get("wall_s")
    timing = "no timing" if wall is None else f"wall {wall:.2f} s"
    if record["ok"]:
        return f"{timing}, ok"
    reason = record["error"] or json.dumps(record["checks"])
    return f"{timing}, FAILED: {reason.strip().splitlines()[-1]}"


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Whole-spec runs of the Faro reproduction, timed layer by layer.",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(WORKLOADS),
        help="workload to run; repeat for several (default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="ExperimentSpec.seed (default 0)"
    )
    amount = parser.add_mutually_exclusive_group()
    amount.add_argument(
        "--repeats", type=int, help="rounds over the workloads (default 3)"
    )
    amount.add_argument(
        "--seconds", type=float, help="time budget in seconds instead of --repeats"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1 adds a traced run after each untraced one (per-layer metrics)",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1, help="--trace 1"
    )
    parser.add_argument("--out", help="write the full result document (JSON) here")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"benchmarks.e2e: no program source at {source}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    workloads = args.workload or list(WORKLOADS)
    passes = (0, 1) if args.trace else (0,)
    repeats = args.repeats or 3

    records: list[dict] = []
    started = time.perf_counter()
    rounds = 0
    while True:
        round_started = time.perf_counter()
        for workload in workloads:
            for trace in passes:
                tag = f"{workload}-s{args.seed}-r{rounds}-t{trace}"
                record = run_worker(workload, args.seed, trace, tag)
                record["round"] = rounds
                records.append(record)
                print(
                    f"[round {rounds}] {workload} trace={trace}: {_status(record)}",
                    file=sys.stderr,
                )
        rounds += 1
        now = time.perf_counter()
        if args.seconds is None:
            if rounds >= repeats:
                break
        elif (now - started) + (now - round_started) > args.seconds:
            break

    by_workload = {
        workload: [r for r in records if r["workload"] == workload]
        for workload in workloads
    }
    per_workload = {
        workload: summarize_workload(runs, bench)
        for workload, runs in by_workload.items()
    }
    line = result_line(per_workload, bench, args.trace, records)
    if args.out:
        document = {
            "seed": args.seed,
            "trace": args.trace,
            "rounds": rounds,
            "environment": environment(),
            "correct": line["correct"],
            "attempted": line["attempted"],
            "failed": line["failed"],
            "workloads": {
                workload: {"metrics": per_workload[workload], "runs": runs}
                for workload, runs in by_workload.items()
            },
        }
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    print(_format_table(per_workload))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("before", help="result document of the first run (--out)")
    parser.add_argument("after", help="result document of the second run (--out)")
    args = parser.parse_args(argv)
    with open(args.before) as fh:
        before = json.load(fh)
    with open(args.after) as fh:
        after = json.load(fh)
    bench = load_benchmark()
    specs = {spec["name"]: spec for spec in bench["end_to_end"] + bench["per_layer"]}
    if before["seed"] != after["seed"]:
        print(f"note: seeds differ ({before['seed']} vs {after['seed']})")
    regressions = 0
    print(
        f"{'workload':13} {'metric':34} {'before':>12} {'iqr':>10} "
        f"{'after':>12} {'iqr':>10} {'change':>8}  verdict"
    )
    for workload, entry in before["workloads"].items():
        if workload not in after["workloads"]:
            continue
        for name, a in entry["metrics"].items():
            b = after["workloads"][workload]["metrics"].get(name)
            if b is None:
                continue
            base = abs(a["median"])
            change = (b["median"] - a["median"]) / base if base else 0.0
            spec = specs.get(name, {})
            if "bound" not in spec:
                verdict = "-"
            else:
                worse = change if spec["better"] == "lower" else -change
                verdict = "REGRESSION" if worse > spec["bound"] else "ok"
                regressions += verdict == "REGRESSION"
            print(
                f"{workload:13} {name:34} {a['median']:12.6g} {a['iqr']:10.3g} "
                f"{b['median']:12.6g} {b['iqr']:10.3g} {change:+8.2%}  {verdict}"
            )
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    return run(argv)
