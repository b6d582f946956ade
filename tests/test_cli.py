"""CLI smoke tests (repro.cli): exit codes and output shape."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.traces import load_trace_csv, save_job_mix_json, standard_job_mix


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "faro-fairsum"
        assert args.simulator == "flow"


class TestRun:
    def test_run_fairshare(self, capsys):
        code = main(["run", "--policy", "fairshare", "--jobs", "3", "--size", "9",
                     "--minutes", "12", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lost cluster utility" in out
        assert "SLO violation rate" in out

    def test_run_with_chart(self, capsys):
        code = main(["run", "--policy", "aiad", "--jobs", "3", "--size", "9",
                     "--minutes", "12", "--chart"])
        assert code == 0
        assert "Cluster utility over time" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--size", "XL"], "error: unknown size 'XL'"),
            (
                ["--size", "0", "--jobs", "2"],
                "error: total_replicas must be >= 1, got 0",
            ),
        ],
    )
    def test_bad_scenario_flags_exit_cleanly(self, flags, message, capsys):
        code = main(["run", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1


class TestSpecRun:
    def _write_spec(self, tmp_path):
        from repro import api

        spec = api.ExperimentSpec.compare(
            "cli-spec",
            api.ScenarioSpec(
                kind="paper",
                params={"size": 9, "num_jobs": 3, "duration_minutes": 10,
                        "days": 2, "rate_hi": 300.0},
            ),
            ["fairshare", "aiad"],
            simulator="flow",
        )
        return spec.to_file(tmp_path / "spec.json")

    def test_run_spec_end_to_end(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["run", "--spec", str(path), "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Experiment 'cli-spec'" in out
        assert "fairshare" in out and "aiad" in out
        assert report_path.exists()
        import json

        data = json.loads(report_path.read_text())
        assert data["spec"]["name"] == "cli-spec"

    def test_run_spec_missing_file(self, tmp_path, capsys):
        code = main(["run", "--spec", str(tmp_path / "ghost.json")])
        assert code == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_run_spec_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "simulater": "flow"}')
        code = main(["run", "--spec", str(bad)])
        assert code == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_run_spec_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["run", "--spec", str(bad)])
        assert code == 2
        assert "cannot load spec" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "serve", "sweep"])
    def test_malformed_yaml_spec_exits_two(self, command, tmp_path, capsys):
        """run, serve and sweep read spec files through one loader, which
        says what is wrong and where in one line."""
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nscenarios: [\n")
        code = main([command, "--spec", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot load spec {bad}: invalid YAML in {bad}: expected the node "
            "content, but found '<stream end>': line 3 column 1\n"
        )

    def test_yaml_error_without_a_position_is_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: \x00\n")
        assert main(["run", "--spec", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load spec {bad}: invalid YAML in {bad}: unacceptable "
            "character #x0000: special characters are not allowed\n"
        )

    def test_run_spec_unknown_policy(self, tmp_path, capsys):
        from repro import api

        bad = tmp_path / "bad.json"
        spec = api.ExperimentSpec.compare(
            "x",
            api.ScenarioSpec(kind="paper", params={"size": 8, "num_jobs": 2}),
            ["fairshare"],
        )
        data = spec.to_dict()
        data["policies"][0]["name"] = "gost"
        import json

        bad.write_text(json.dumps(data))
        code = main(["run", "--spec", str(bad)])
        assert code == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_run_spec_p100_slo_fails_at_load(self, tmp_path, capsys):
        """A p100 SLO has no finite M/D/c latency quantile: the spec is
        refused as it loads, in one line, before any scenario is built."""
        import json
        from pathlib import Path

        shipped = Path(__file__).parents[1] / "specs" / "custom_burst.json"
        data = json.loads(shipped.read_text())
        job = next(
            job for job in data["scenarios"][0]["params"]["jobs"]
            if job["name"] == "embed-resnet18"
        )
        job["slo"]["percentile"] = 100.0
        bad = tmp_path / "p100.json"
        bad.write_text(json.dumps(data))
        code = main(["run", "--spec", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: invalid spec {bad}: SLO percentile must be in (0, 100), "
            "got 100.0\n"
        )


class TestPolicies:
    def test_list(self, capsys):
        code = main(["policies", "list"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Registered policies (14)"
        assert lines[1].rstrip() == (
            "policy                 kind        aliases             description"
        )
        assert lines[2].split() == ["-" * 21, "-" * 10, "-" * 18, "-" * 128]
        assert [line.split(None, 3)[:3] for line in lines[3:]] == [
            ["faro-sum", "faro", "-"],
            ["faro-fair", "faro", "-"],
            ["faro-fairsum", "faro", "faro"],
            ["faro-penaltysum", "faro", "-"],
            ["faro-penaltyfairsum", "faro", "-"],
            ["faro-decentralized", "controller", "-"],
            ["fairshare", "baseline", "-"],
            ["oneshot", "baseline", "-"],
            ["aiad", "baseline", "-"],
            ["mark", "baseline", "-"],
            ["cilantro", "baseline", "-"],
            ["hetero-max-throughput", "hetero", "max-sum-throughput"],
            ["hetero-las", "hetero", "las"],
            ["ilp-placement", "hetero", "hetero-ilp"],
        ]

    def test_list_kind_filter(self, capsys):
        code = main(["policies", "list", "--kind", "baseline"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Registered policies (5)"
        assert lines[1].rstrip() == "policy     kind      aliases  description"
        assert [line.split()[0] for line in lines[3:]] == [
            "fairshare", "oneshot", "aiad", "mark", "cilantro",
        ]

    def test_list_unknown_kind(self, capsys):
        code = main(["policies", "list", "--kind", "quantum"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "no policies registered for kind 'quantum'\n"

    def test_show(self, capsys):
        code = main(["policies", "show", "faro-fairsum"])
        assert code == 0
        assert capsys.readouterr().out == (
            "faro-fairsum (kind=faro)\n"
            "  Faro's headline objective: fairness-regularized sum (FairSum).\n"
            "  aliases: faro\n"
            "  options (spec-file 'options' keys):\n"
            "    hybrid = True\n"
            "    use_trained_predictor = True\n"
            "    predictor_profile = None\n"
            "    faro = {}\n"
        )

    def test_show_without_aliases(self, capsys):
        code = main(["policies", "show", "FairShare"])
        assert code == 0
        assert capsys.readouterr().out == (
            "fairshare (kind=baseline)\n"
            "  Static equal split, no autoscaling (Clipper/TF-Serving).\n"
            "  options (spec-file 'options' keys):\n"
            "    min_replicas = 1\n"
        )

    def test_show_unknown(self, capsys):
        code = main(["policies", "show", "ghost"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown policy 'ghost'; registered: aiad, cilantro, "
        )

    def test_show_requires_name(self, capsys):
        code = main(["policies", "show"])
        assert code == 2
        assert capsys.readouterr().err == "error: show requires a policy name\n"


class TestScenarios:
    def test_list(self, capsys):
        code = main(["scenarios", "list"])
        assert code == 0
        out = capsys.readouterr().out
        for kind in ("paper", "mixed", "large-scale", "custom"):
            assert kind in out
        assert "duration_minutes" in out

    def test_show(self, capsys):
        code = main(["scenarios", "show", "paper"])
        assert code == 0
        out = capsys.readouterr().out
        assert "eval_offset_minutes" in out
        assert "lowers to 'custom': yes" in out

    def test_show_requires_name(self, capsys):
        assert main(["scenarios", "show"]) == 2

    def test_lower_prints_composed_spec(self, capsys):
        import json

        code = main(
            ["scenarios", "lower", "paper",
             "--params", '{"size": 8, "num_jobs": 2, "days": 2}']
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "custom"

    def test_lower_unknown_param_names_the_kind(self, capsys):
        code = main(
            ["scenarios", "lower", "paper", "--params", '{"bogus": 1}']
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'paper'" in err and "bogus" in err

    def test_build_dry_run(self, capsys):
        code = main(
            ["scenarios", "build", "paper",
             "--params",
             '{"size": 8, "num_jobs": 2, "days": 2, "duration_minutes": 8, '
             '"rate_hi": 300.0}']
        )
        assert code == 0
        assert "paper-8-2jobs" in capsys.readouterr().out

    def test_build_wrong_typed_param_exits_cleanly(self, capsys):
        code = main(["scenarios", "build", "paper", "--params", '{"days": "2"}'])
        assert code == 2
        assert "cannot build" in capsys.readouterr().err


class TestBackends:
    def test_list(self, capsys):
        code = main(["backends", "list"])
        assert code == 0
        lines = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
        assert lines[:3] == [
            "Registered simulation backends (3)",
            "backend  fidelity       aliases                 description",
            "-------  -------------  ----------------------  " + "-" * 125,
        ]
        assert [line.split(None, 3)[:3] for line in lines[3:]] == [
            ["request", "request-level", "request-level"],
            ["flow", "analytic", "analytic,analytic-flow"],
            ["hybrid", "hybrid", "-"],
        ]

    def test_show(self, capsys):
        code = main(["backends", "show", "hybrid"])
        assert code == 0
        assert capsys.readouterr().out == (
            "hybrid (fidelity=hybrid)\n"
            "  Flagged jobs at request level, the rest analytic, one shared "
            "quota and policy loop (see HybridBackendOptions).\n"
            "  options (spec-file 'backend_options' keys):\n"
            "    request_jobs = ()\n"
            "    auto_request_jobs = 0\n"
            "    promote_headroom = None\n"
            "    demote_headroom = None\n"
            "    min_dwell_ticks = 3\n"
        )

    def test_show_no_options_backend(self, capsys):
        code = main(["backends", "show", "flow"])
        assert code == 0
        assert capsys.readouterr().out == (
            "flow (fidelity=analytic)\n"
            "  Analytic fluid/flow model (no job flagged): fluid queues plus "
            "M/D/c waiting tails; 2.6x faster than request (BENCH_sim.json).\n"
            "  aliases: analytic, analytic-flow\n"
            "  options: none\n"
        )

    def test_show_resolves_alias(self, capsys):
        code = main(["backends", "show", "analytic"])
        assert code == 0
        assert capsys.readouterr().out.startswith("flow (fidelity=analytic)\n")

    def test_show_unknown(self, capsys):
        code = main(["backends", "show", "ghost"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown simulator 'ghost'; registered: flow, hybrid, request\n"
        )

    def test_show_requires_name(self, capsys):
        code = main(["backends", "show"])
        assert code == 2
        assert capsys.readouterr().err == "error: show requires a backend name\n"

    def test_run_accepts_hybrid_simulator(self, capsys):
        code = main(["run", "--policy", "fairshare", "--jobs", "2", "--size", "6",
                     "--minutes", "6", "--simulator", "hybrid"])
        assert code == 0
        assert "lost cluster utility" in capsys.readouterr().out


class TestCompare:
    def test_compare_two_policies(self, capsys):
        code = main(["compare", "--policies", "fairshare,aiad", "--jobs", "3",
                     "--size", "9", "--minutes", "12", "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FairShare" in out or "fairshare" in out
        assert "lower is better" in out

    def test_compare_empty_policies(self, capsys):
        code = main(["compare", "--policies", " , ", "--jobs", "2", "--size", "6"])
        assert code == 2
        assert "at least one policy" in capsys.readouterr().err

    def test_unknown_policy_fails_before_any_trial(self, capsys, monkeypatch):
        from repro.api import runner

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial started")

        monkeypatch.setattr(runner, "build_trial_simulation", no_trial)
        code = main(["compare", "--policies", "fairshare,ghost", "--jobs", "2",
                     "--size", "6"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown policy 'ghost'")


class TestTraces:
    def test_generate_then_describe(self, tmp_path, capsys):
        out = tmp_path / "mix.json"
        code = main(["traces", "generate", "--jobs", "2", "--days", "2",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        code = main(["traces", "describe", "--mix", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "peak/mean" in table
        assert "job00-azure" in table

    def test_generate_requires_out(self, capsys):
        code = main(["traces", "generate", "--jobs", "2"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_export_roundtrip(self, tmp_path):
        mix_path = tmp_path / "mix.json"
        jobs = standard_job_mix(num_jobs=2, days=2, seed=0)
        save_job_mix_json(mix_path, jobs)
        csv_path = tmp_path / "trace.csv"
        code = main(["traces", "export", "--mix", str(mix_path),
                     "--job", jobs[0].name, "--out", str(csv_path)])
        assert code == 0
        np.testing.assert_array_equal(load_trace_csv(csv_path), jobs[0].rates_per_min)

    def test_export_unknown_job(self, tmp_path, capsys):
        mix_path = tmp_path / "mix.json"
        save_job_mix_json(mix_path, standard_job_mix(num_jobs=1, days=2))
        code = main(["traces", "export", "--mix", str(mix_path),
                     "--job", "ghost", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown job" in capsys.readouterr().err

    def test_export_requires_job_and_out(self, capsys):
        code = main(["traces", "export", "--jobs", "1"])
        assert code == 2


class TestForecast:
    def test_ar_forecast(self, capsys):
        code = main(["forecast", "--model", "ar", "--days", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rolling RMSE" in out
        assert "coverage" in out

    def test_unknown_model(self, capsys):
        code = main(["forecast", "--model", "crystal-ball"])
        assert code == 2
        assert "unknown forecaster" in capsys.readouterr().err

    def test_nhits_tiny(self, capsys):
        code = main(["forecast", "--model", "nhits", "--days", "2", "--epochs", "1"])
        assert code == 0
        assert "model=nhits" in capsys.readouterr().out

    def test_prophet(self, capsys):
        code = main(["forecast", "--model", "prophet", "--days", "3"])
        assert code == 0
        assert "model=prophet" in capsys.readouterr().out
