"""Framework tests: pass registry, baseline, file collection, lint CLI.

The per-rule behavior lives in ``test_analysis_passes.py``; this module
covers the machinery those rules plug into -- registration and typed
option validation, fingerprint-matched baselines, path expansion and
``--changed`` git scoping, and the ``repro-faro lint`` exit-code
contract.
"""

import json
import subprocess
import textwrap
from dataclasses import dataclass

import pytest

from repro.analysis import (
    AnalysisPassInfo,
    AnalysisPassRegistry,
    Baseline,
    Finding,
    changed_files,
    collect_files,
    find_project_root,
    get_pass_registry,
    run_analysis,
)
from repro.cli import main as cli_main

BAD_SNIPPET = "import random\nrandom.shuffle(items)\n"
GOOD_SNIPPET = "import random\nrng = random.Random(0)\n"


# ------------------------------------------------------------- registry


class TestRegistry:
    def make(self):
        registry = AnalysisPassRegistry()

        @registry.register("toy-rule", description="Toy.")
        def check(context, options):
            return []

        return registry

    def test_register_and_lookup(self):
        registry = self.make()
        assert "toy-rule" in registry
        assert "TOY-RULE" in registry  # case-insensitive, like the others
        assert registry.get("toy-rule").description == "Toy."
        assert len(registry) == 1

    def test_duplicate_id_rejected(self):
        registry = self.make()
        with pytest.raises(ValueError, match="already registered"):
            registry.register("toy-rule", description="Again.")(lambda c, o: [])

    def test_unknown_id_lists_known(self):
        with pytest.raises(ValueError, match="toy-rule"):
            self.make().get("nope")

    def test_bad_scope_rejected(self):
        registry = AnalysisPassRegistry()
        with pytest.raises(ValueError, match="scope"):
            registry.register("x", scope="galaxy")(lambda c, o: [])

    def test_config_type_must_be_dataclass(self):
        registry = AnalysisPassRegistry()
        with pytest.raises(TypeError, match="dataclass"):
            registry.register("x", config_type=dict)(lambda c, o: [])

    def test_unregister(self):
        registry = self.make()
        registry.unregister("toy-rule")
        assert "toy-rule" not in registry

    def test_typed_options_reject_unknown_keys(self):
        registry = get_pass_registry()
        with pytest.raises(ValueError, match="max_widgets"):
            registry.parse_options("determinism", {"max_widgets": 3})

    def test_typed_options_construct_config(self):
        options = get_pass_registry().parse_options(
            "determinism", {"modules": ("only.here",)}
        )
        assert options.modules == ("only.here",)

    def test_optionless_pass_rejects_options(self):
        registry = AnalysisPassRegistry()
        registry.register("bare", description="No options.")(lambda c, o: [])
        with pytest.raises(ValueError, match="accepts no options"):
            registry.parse_options("bare", {"depth": 1})

    def test_option_fields_report_defaults(self):
        info = get_pass_registry().get("ordered-iteration")
        fields = dict(info.option_fields())
        assert fields["flag_dict_views"] is False
        assert "repro.sim" in fields["modules"]

    def test_builtin_catalog(self):
        names = set(get_pass_registry().names())
        assert names == {
            "determinism",
            "ordered-iteration",
            "frozen-mutation",
            "registry-contract",
            "spawn-safety",
            "rng-batching",
            "perf-gate",
        }
        assert get_pass_registry().names(scope="project") == ("perf-gate",)


# ------------------------------------------------------------- baseline


class TestBaseline:
    def finding(self, snippet="x = 1", pass_id="determinism"):
        return Finding(
            pass_id=pass_id, path="src/m.py", line=3, message="m", snippet=snippet
        )

    def test_round_trip(self, tmp_path):
        baseline = Baseline.from_findings([self.finding()], "known-safe fixture")
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded == baseline
        assert json.loads(path.read_text())["version"] == 1

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"version": 1, "findings": [{"pass": "x"}]}))
        with pytest.raises(ValueError, match="missing"):
            Baseline.load(path)

    def test_load_rejects_empty_justification(self, tmp_path):
        entry = Baseline.from_findings([self.finding()], "why").entries[0]
        raw = entry.to_dict()
        raw["justification"] = "   "
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"version": 1, "findings": [raw]}))
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(path)

    def test_split_partitions_new_grandfathered_stale(self):
        old = self.finding("old_line()")
        gone = self.finding("deleted_line()")
        baseline = Baseline.from_findings([old, gone], "grandfathered")
        fresh = self.finding("brand_new()")
        new, grandfathered, stale = baseline.split([old, fresh])
        assert new == [fresh]
        assert grandfathered == [old]
        assert [e.fingerprint for e in stale] == [gone.fingerprint()]

    def test_fingerprint_survives_line_drift(self):
        a = self.finding()
        b = Finding(
            pass_id=a.pass_id, path=a.path, line=99, message="m", snippet=a.snippet
        )
        assert a.fingerprint() == b.fingerprint()


# ------------------------------------------------------ file collection


class TestCollectFiles:
    def test_recurses_and_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-311.py").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("")
        (tmp_path / "notes.txt").write_text("")
        files = collect_files([tmp_path])
        assert files == [tmp_path / "pkg" / "a.py"]

    def test_explicit_file_and_dedup(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("")
        assert collect_files([f, tmp_path]) == [f]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_files([tmp_path / "nope"])

    def test_find_project_root_walks_up(self, tmp_path):
        (tmp_path / ".git").mkdir()
        deep = tmp_path / "src" / "pkg"
        deep.mkdir(parents=True)
        (deep / "m.py").write_text("")
        assert find_project_root([deep / "m.py"]) == tmp_path


# -------------------------------------------------------- changed files


def _git(repo, *args):
    subprocess.run(
        ["git", *args],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "HOME": str(repo),
        },
    )


@pytest.fixture
def git_repo(tmp_path):
    _git(tmp_path, "init", "-b", "main")
    (tmp_path / "kept.py").write_text(GOOD_SNIPPET)
    (tmp_path / "edited.py").write_text(GOOD_SNIPPET)
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-m", "seed")
    _git(tmp_path, "checkout", "-b", "feature")
    (tmp_path / "edited.py").write_text(BAD_SNIPPET)
    (tmp_path / "added.py").write_text(GOOD_SNIPPET)
    return tmp_path


class TestChangedFiles:
    def test_reports_edits_and_untracked_only(self, git_repo):
        changed = changed_files([git_repo], base="main", root=git_repo)
        assert [p.name for p in changed] == ["added.py", "edited.py"]

    def test_bad_base_raises(self, git_repo):
        with pytest.raises(RuntimeError, match="merge-base"):
            changed_files([git_repo], base="no-such-ref", root=git_repo)

    def test_run_analysis_changed_mode_scopes_the_lint(self, git_repo):
        report = run_analysis([git_repo], root=git_repo, changed_base="main")
        assert report.files == 2
        assert [f.path for f in report.findings] == ["edited.py"]


# --------------------------------------------------------- run_analysis


class TestRunAnalysis:
    def test_findings_sorted_and_report_shape(self, tmp_path):
        (tmp_path / "b.py").write_text(BAD_SNIPPET)
        (tmp_path / "a.py").write_text(BAD_SNIPPET)
        report = run_analysis([tmp_path], root=tmp_path)
        assert not report.ok
        assert [f.path for f in report.findings] == ["a.py", "b.py"]
        assert report.files == 2
        assert "FAIL:" in report.format_text()
        assert report.to_dict()["ok"] is False

    def test_select_restricts_passes(self, tmp_path):
        (tmp_path / "a.py").write_text(BAD_SNIPPET)
        report = run_analysis([tmp_path], root=tmp_path, select=["spawn-safety"])
        assert report.ok
        assert report.passes == ("spawn-safety",)

    def test_unknown_pass_options_fail_loudly(self, tmp_path):
        (tmp_path / "a.py").write_text(GOOD_SNIPPET)
        with pytest.raises(ValueError, match="unknown analysis pass"):
            run_analysis(
                [tmp_path], root=tmp_path, pass_options={"nope": {"x": 1}}
            )

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_analysis([tmp_path], root=tmp_path)
        assert [f.pass_id for f in report.findings] == ["parse-error"]

    def test_baseline_grandfathers_known_findings(self, tmp_path):
        (tmp_path / "a.py").write_text(BAD_SNIPPET)
        raw = run_analysis([tmp_path], root=tmp_path)
        baseline = Baseline.from_findings(raw.findings, "legacy shuffle")
        report = run_analysis([tmp_path], root=tmp_path, baseline=baseline)
        assert report.ok
        assert len(report.grandfathered) == 1
        assert "baselined" in report.format_text()

    def test_stale_baseline_entries_surface(self, tmp_path):
        (tmp_path / "a.py").write_text(GOOD_SNIPPET)
        ghost = Finding(
            pass_id="determinism", path="a.py", line=1, message="m", snippet="gone()"
        )
        baseline = Baseline.from_findings([ghost], "was fixed")
        report = run_analysis([tmp_path], root=tmp_path, baseline=baseline)
        assert report.ok  # stale entries warn, they do not fail the run
        assert len(report.stale_baseline) == 1
        assert "stale baseline entry" in report.format_text()

    def test_suppressed_findings_counted(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import random\n"
            "random.shuffle(x)  # repro: allow(determinism) -- test fixture\n"
        )
        report = run_analysis([tmp_path], root=tmp_path)
        assert report.ok
        assert report.suppressed == 1


# ------------------------------------------------------------- lint CLI


class TestLintCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(GOOD_SNIPPET)
        assert cli_main(["lint", str(tmp_path)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(BAD_SNIPPET)
        assert cli_main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out and "FAIL:" in out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(BAD_SNIPPET)
        assert cli_main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["pass"] == "determinism"

    def test_select_unknown_pass_exits_two(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(GOOD_SNIPPET)
        assert cli_main(["lint", "--select", "nope", str(tmp_path)]) == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_list_passes(self, capsys):
        assert cli_main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        assert "determinism" in out and "perf-gate" in out

    def test_write_then_enforce_baseline(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(BAD_SNIPPET)
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(
                ["lint", "--baseline", str(baseline), "--write-baseline",
                 str(tmp_path)]
            )
            == 0
        )
        assert baseline.exists()
        # Grandfathered finding no longer fails the run ...
        assert cli_main(["lint", "--baseline", str(baseline), str(tmp_path)]) == 0
        # ... but a fresh one still does.
        (tmp_path / "b.py").write_text(BAD_SNIPPET.replace("items", "rows"))
        assert cli_main(["lint", "--baseline", str(baseline), str(tmp_path)]) == 1
        capsys.readouterr()

    def test_changed_mode(self, git_repo, capsys):
        code = cli_main(
            ["lint", "--changed", "--base", "main", str(git_repo)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "edited.py" in out and "kept.py" not in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------- check_perf orphan gate


class TestUnpairedBaselines:
    def load_check_perf(self):
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "check_perf_for_test", root / "tools" / "check_perf.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_orphaned_baseline_reported(self, tmp_path):
        mod = self.load_check_perf()
        (tmp_path / "results").mkdir()
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "results" / "BENCH_ghost.json").write_text("{}")
        (tmp_path / "results" / "BENCH_live.json").write_text("{}")
        (tmp_path / "benchmarks" / "bench_live.py").write_text(
            'OUT = "results/BENCH_live.json"\n'
        )
        unpaired = mod.find_unpaired_baselines(
            tmp_path / "results", tmp_path / "benchmarks"
        )
        assert [p.name for p, _ in unpaired] == ["BENCH_ghost.json"]
        assert "stale baseline" in unpaired[0][1]

    def test_repo_baselines_all_paired(self):
        from pathlib import Path

        mod = self.load_check_perf()
        root = Path(__file__).resolve().parent.parent
        assert (
            mod.find_unpaired_baselines(root / "results", root / "benchmarks")
            == []
        )


class TestForecastGate:
    BASELINE = {"speedup": 2.0, "identical": True, "gated_speedup": 1.5}

    load_check_perf = TestUnpairedBaselines.load_check_perf

    def verdicts(self, measured):
        rows, ok = self.load_check_perf().compare_forecast(self.BASELINE, measured)
        return [row[-1] for row in rows], ok

    def test_identical_and_fast_passes(self):
        assert self.verdicts({"speedup": 1.6, "identical": True}) == (["ok", "ok"], True)

    def test_diverged_weights_fail_even_when_fast(self):
        verdicts, ok = self.verdicts({"speedup": 3.0, "identical": False})
        assert not ok and verdicts[0].startswith("REGRESSED")

    def test_lost_speedup_fails(self):
        verdicts, ok = self.verdicts({"speedup": 1.2, "identical": True})
        assert not ok and verdicts[1].startswith("REGRESSED")

    def test_checked_in_baseline_loads(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        mod = self.load_check_perf()
        baseline = mod.load_forecast_baseline(root / "results" / "BENCH_forecast.json")
        assert baseline["identical"] and baseline["gated_speedup"] == 1.5

    def test_baseline_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "BENCH_forecast.json"
        path.write_text('{"speedup": 2.0}')
        with pytest.raises(ValueError, match="missing"):
            self.load_check_perf().load_forecast_baseline(path)


class TestTablesGate:
    BASELINE = {"shapes": [], "identical": True, "gated_speedup": 3.0}

    load_check_perf = TestUnpairedBaselines.load_check_perf

    @staticmethod
    def measured(*speedups, identical=True):
        shapes = [
            {"workload": f"w{i}", "scenarios": 140, "max_servers": 32, "speedup": s}
            for i, s in enumerate(speedups)
        ]
        return {"shapes": shapes, "identical": identical}

    def verdicts(self, measured):
        rows, ok = self.load_check_perf().compare_tables(self.BASELINE, measured)
        return [row[-1] for row in rows], ok

    def test_identical_and_fast_passes(self):
        assert self.verdicts(self.measured(7.0, 3.5)) == (["ok", "ok", "ok"], True)

    def test_diverged_table_fails_even_when_fast(self):
        verdicts, ok = self.verdicts(self.measured(7.0, identical=False))
        assert not ok and verdicts[0].startswith("REGRESSED")

    def test_fallen_back_kernel_fails_its_shape(self):
        # The numpy fallback times the oracle against itself: about 1x.
        verdicts, ok = self.verdicts(self.measured(7.0, 1.02))
        assert not ok and verdicts == ["ok", "ok", verdicts[2]]
        assert verdicts[2].startswith("REGRESSED")

    def test_no_shapes_fails(self):
        verdicts, ok = self.verdicts(self.measured())
        assert not ok and verdicts[1].startswith("REGRESSED")

    def test_checked_in_baseline_loads(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        mod = self.load_check_perf()
        baseline = mod.load_tables_baseline(root / "results" / "BENCH_tables.json")
        assert baseline["identical"] and baseline["gated_speedup"] == 3.0
        assert baseline["kernel"] == "c"

    def test_baseline_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "BENCH_tables.json"
        path.write_text('{"identical": true}')
        with pytest.raises(ValueError, match="missing"):
            self.load_check_perf().load_tables_baseline(path)


# -------------------------------------------------- run_checks umbrella


class TestRunChecks:
    def load_run_checks(self):
        import importlib.util
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "run_checks_for_test", root / "tools" / "run_checks.py"
        )
        module = importlib.util.module_from_spec(spec)
        # Registered so dataclass annotation resolution can find the module.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        return module

    def test_full_gate_order_is_cheapest_first(self):
        steps = self.load_run_checks().build_steps()
        assert [s.name for s in steps] == ["lint", "tests", "perf"]

    def test_skips_drop_steps(self):
        mod = self.load_run_checks()
        steps = mod.build_steps(skip_perf=True, skip_tests=True)
        assert [s.name for s in steps] == ["lint"]
        assert "--changed" not in steps[0].argv
        changed = mod.build_steps(skip_perf=True, skip_tests=True, lint_changed=True)
        assert "--changed" in changed[0].argv

    def test_bench_smoke_runs_before_the_test_suite(self):
        steps = self.load_run_checks().build_steps(bench_smoke=True)
        assert [s.name for s in steps] == ["lint", "bench-smoke", "tests", "perf"]
        smoke = steps[1]
        assert "benchmarks.bench_sim_backends" in smoke.argv

    def test_serve_smoke_checks_the_shipped_replay_spec(self):
        steps = self.load_run_checks().build_steps(serve_smoke=True)
        assert [s.name for s in steps] == ["lint", "serve-smoke", "tests", "perf"]
        smoke = steps[1]
        assert "serve" in smoke.argv
        assert "--check" in smoke.argv
        assert any("serve_replay.json" in arg for arg in smoke.argv)
