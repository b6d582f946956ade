"""Fixture-driven tests for every built-in analysis pass.

Each pass gets known-bad snippets (must flag) and known-good snippets
(must stay silent), linted in memory via ``ModuleContext.from_source`` --
no files, no project layout.  Suppression behavior is covered here too,
since it is part of each pass's user-facing contract.
"""

import textwrap

import pytest

from repro.analysis import ModuleContext, ProjectContext, get_pass_registry

SIM_MODULE = "repro.sim.fixture"
OUTSIDE_MODULE = "myplugin.util"


def lint(source, pass_id, *, module="", options=None):
    """Run one pass over a snippet, dropping inline-suppressed findings."""
    context = ModuleContext.from_source(textwrap.dedent(source), module=module)
    findings = get_pass_registry().run(pass_id, context, options)
    return [f for f in findings if not context.is_suppressed(f)]


# ---------------------------------------------------------- determinism


class TestDeterminism:
    def test_global_stdlib_random_flagged(self):
        findings = lint(
            """
            import random
            random.shuffle(items)
            """,
            "determinism",
        )
        assert len(findings) == 1
        assert "process-global RNG" in findings[0].message
        assert findings[0].line == 3

    def test_from_import_of_global_random_flagged(self):
        findings = lint(
            """
            from random import shuffle
            shuffle(items)
            """,
            "determinism",
        )
        assert len(findings) == 1

    def test_explicit_random_instance_allowed(self):
        assert not lint(
            """
            import random
            rng = random.Random(7)
            rng.shuffle(items)
            """,
            "determinism",
        )

    def test_numpy_global_rng_flagged(self):
        findings = lint(
            """
            import numpy as np
            x = np.random.rand(3)
            """,
            "determinism",
        )
        assert len(findings) == 1
        assert "global RNG" in findings[0].message

    def test_unseeded_default_rng_flagged(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            "determinism",
        )
        assert len(findings) == 1
        assert "OS entropy" in findings[0].message

    def test_seeded_default_rng_allowed(self):
        assert not lint(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            other = np.random.default_rng(seed=experiment_seed)
            """,
            "determinism",
        )

    def test_wall_clock_flagged_only_on_sim_path(self):
        source = """
            import time
            t = time.time()
        """
        assert len(lint(source, "determinism", module=SIM_MODULE)) == 1
        assert not lint(source, "determinism", module=OUTSIDE_MODULE)

    def test_datetime_now_flagged_on_sim_path(self):
        findings = lint(
            """
            from datetime import datetime
            stamp = datetime.now()
            """,
            "determinism",
            module=SIM_MODULE,
        )
        assert len(findings) == 1
        assert "wall-clock" in findings[0].message

    def test_wall_clock_flagged_in_router_package(self):
        # Routers and metrics collectors feed every report digest.
        findings = lint(
            """
            import time
            seed = int(time.time_ns())
            """,
            "determinism",
            module="repro.cluster.fixture",
        )
        assert len(findings) == 1
        assert "repro.cluster.fixture" in findings[0].message

    def test_wall_clock_flagged_in_native_loader(self):
        # The kernel loader decides which code builds every table and
        # routes every request chunk.
        findings = lint(
            """
            import time
            stamp = time.time()
            """,
            "determinism",
            module="repro.native",
        )
        assert len(findings) == 1
        assert "repro.native" in findings[0].message

    def test_perf_counter_allowed_on_sim_path(self):
        # Telemetry timers time solves, they never steer them.
        assert not lint(
            """
            import time
            start = time.perf_counter()
            """,
            "determinism",
            module=SIM_MODULE,
        )

    def test_module_scope_is_configurable(self):
        source = """
            import os
            token = os.urandom(8)
        """
        assert not lint(source, "determinism", module="other.pkg")
        assert lint(
            source,
            "determinism",
            module="other.pkg",
            options={"modules": ("other",)},
        )


# ---------------------------------------------------- ordered-iteration


class TestOrderedIteration:
    def test_for_loop_over_set_literal_name_flagged(self):
        findings = lint(
            """
            pending = {"a", "b"}
            for item in pending:
                handle(item)
            """,
            "ordered-iteration",
            module=SIM_MODULE,
        )
        assert len(findings) == 1
        assert "hash/arrival order" in findings[0].message

    def test_list_of_set_call_flagged(self):
        findings = lint(
            """
            def merge(parts):
                rows = list(set(parts))
                return rows
            """,
            "ordered-iteration",
            module=SIM_MODULE,
        )
        assert len(findings) == 1

    def test_join_over_set_flagged(self):
        findings = lint(
            """
            def render(tags):
                tags = frozenset(tags)
                return ", ".join(tags)
            """,
            "ordered-iteration",
            module=SIM_MODULE,
        )
        assert len(findings) == 1

    def test_set_algebra_flagged(self):
        findings = lint(
            """
            def diff(a, b):
                a = set(a)
                for name in a - b:
                    yield name
            """,
            "ordered-iteration",
            module=SIM_MODULE,
        )
        assert len(findings) == 1

    def test_sorted_over_set_allowed(self):
        assert not lint(
            """
            pending = {"a", "b"}
            for item in sorted(pending):
                handle(item)
            total = sum(pending_costs)
            ok = "a" in pending
            """,
            "ordered-iteration",
            module=SIM_MODULE,
        )

    def test_rebinding_to_non_set_clears_the_mark(self):
        assert not lint(
            """
            names = {"a", "b"}
            names = sorted(names)
            for n in names:
                handle(n)
            """,
            "ordered-iteration",
            module=SIM_MODULE,
        )

    def test_outside_merge_path_modules_silent(self):
        assert not lint(
            """
            pending = {"a", "b"}
            for item in pending:
                handle(item)
            """,
            "ordered-iteration",
            module=OUTSIDE_MODULE,
        )

    def test_dict_views_silent_by_default_flagged_in_strict_mode(self):
        source = """
            for key in table.keys():
                handle(key)
        """
        assert not lint(source, "ordered-iteration", module=SIM_MODULE)
        strict = lint(
            source,
            "ordered-iteration",
            module=SIM_MODULE,
            options={"flag_dict_views": True},
        )
        assert len(strict) == 1
        assert "strict mode" in strict[0].message


# ------------------------------------------------------ frozen-mutation


class TestFrozenMutation:
    def test_setattr_outside_hooks_flagged(self):
        findings = lint(
            """
            def rename(spec, name):
                object.__setattr__(spec, "name", name)
                return spec
            """,
            "frozen-mutation",
        )
        assert len(findings) == 1
        assert "dataclasses.replace" in findings[0].message

    def test_setattr_at_module_level_flagged(self):
        findings = lint("object.__setattr__(spec, 'x', 1)\n", "frozen-mutation")
        assert len(findings) == 1
        assert "module level" in findings[0].message

    def test_construction_hooks_allowed(self):
        assert not lint(
            """
            class Spec:
                def __post_init__(self):
                    object.__setattr__(self, "name", self.name.strip())

                def __setstate__(self, state):
                    object.__setattr__(self, "__dict__", state)
            """,
            "frozen-mutation",
        )

    def test_plain_setattr_not_flagged(self):
        # Only the object.__setattr__ backdoor defeats frozen=True.
        assert not lint(
            """
            def configure(thing):
                thing.value = 3
                setattr(thing, "other", 4)
            """,
            "frozen-mutation",
        )


# ---------------------------------------------------- registry-contract


class TestRegistryContract:
    def test_empty_description_flagged(self):
        findings = lint(
            """
            register_policy("greedy", description="")(make_greedy)
            """,
            "registry-contract",
        )
        assert len(findings) == 1
        assert "empty description" in findings[0].message

    def test_undocumented_decorated_function_flagged(self):
        findings = lint(
            """
            @register_pass("my-rule")
            def check(context, options):
                return []
            """,
            "registry-contract",
        )
        assert len(findings) == 1
        assert "no docstring" in findings[0].message

    def test_docstring_satisfies_doc_requirement(self):
        assert not lint(
            """
            @register_pass("my-rule")
            def check(context, options):
                \"\"\"Reject widgets.\"\"\"
                return []
            """,
            "registry-contract",
        )

    def test_unfrozen_config_type_flagged(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class Options:
                depth: int = 2

            @register_backend("toy", description="Toy.", config_type=Options)
            def make(options):
                return object()
            """,
            "registry-contract",
        )
        assert len(findings) == 1
        assert "not frozen" in findings[0].message

    def test_non_json_default_flagged(self):
        findings = lint(
            """
            import math
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Options:
                ceiling: float = math.inf

            @register_backend("toy", description="Toy.", config_type=Options)
            def make(options):
                return object()
            """,
            "registry-contract",
        )
        assert len(findings) == 1
        assert "JSON-representable" in findings[0].message

    def test_unsafe_default_factory_flagged(self):
        findings = lint(
            """
            from collections import OrderedDict
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class Options:
                table: dict = field(default_factory=OrderedDict)

            @register_backend("toy", description="Toy.", config_type=Options)
            def make(options):
                return object()
            """,
            "registry-contract",
        )
        assert len(findings) == 1
        assert "default_factory" in findings[0].message

    def test_well_formed_registration_clean(self):
        assert not lint(
            """
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class Options:
                depth: int = 2
                labels: tuple = field(default_factory=tuple)

            @register_backend("toy", description="A toy backend.",
                              config_type=Options)
            def make(options):
                return object()
            """,
            "registry-contract",
        )


# -------------------------------------------------------- spawn-safety


class TestSpawnSafety:
    def test_lambda_into_submit_flagged(self):
        findings = lint(
            """
            def run(executor, xs):
                return [executor.submit(lambda x: x + 1, x) for x in xs]
            """,
            "spawn-safety",
        )
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_nested_def_into_pool_flagged(self):
        findings = lint(
            """
            def run(pool, xs):
                def work(x):
                    return x + 1
                return pool.map(work, xs)
            """,
            "spawn-safety",
        )
        assert len(findings) == 1
        assert "move it to module level" in findings[0].message

    def test_lambda_initializer_flagged(self):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor
            ex = ProcessPoolExecutor(2, initializer=lambda: None)
            """,
            "spawn-safety",
        )
        assert len(findings) == 1
        assert "initializer" in findings[0].message

    def test_module_level_function_allowed(self):
        assert not lint(
            """
            def work(x):
                return x + 1

            def run(pool, xs):
                return pool.map(work, xs)
            """,
            "spawn-safety",
        )

    def test_non_pool_receivers_ignored(self):
        assert not lint(
            """
            def run(form, xs):
                return form.submit(lambda x: x, xs)
            """,
            "spawn-safety",
        )


# --------------------------------------------------------- rng-batching


class TestRngBatching:
    def test_scalar_draw_in_loop_flagged(self):
        findings = lint(
            """
            def offer_all(rng, arrivals):
                out = []
                for a in arrivals:
                    out.append(rng.random() < 0.5)
                return out
            """,
            "rng-batching",
            module=SIM_MODULE,
        )
        assert len(findings) == 1
        assert "pre-draw a batch" in findings[0].message

    def test_scalar_normal_through_self_rng_flagged(self):
        findings = lint(
            """
            class Router:
                def run(self, arrivals):
                    while arrivals:
                        jitter = self._rng.normal(1.0, 0.05)
                        arrivals.pop()
            """,
            "rng-batching",
            module="repro.cluster.fixture",
        )
        assert len(findings) == 1

    def test_batched_draws_and_loopless_draws_allowed(self):
        assert not lint(
            """
            def offer_all(rng, arrivals):
                draws = rng.random(len(arrivals))
                jitters = rng.normal(1.0, 0.05, size=len(arrivals))
                for a, d in zip(arrivals, draws):
                    serve(a, d)

            def one_offer(rng):
                return rng.random()  # not in a loop: one draw total
            """,
            "rng-batching",
            module=SIM_MODULE,
        )

    def test_outcome_dependent_methods_not_flagged(self):
        # exponential/uniform draws whose count depends on earlier
        # outcomes are the scalar loop's legitimate residue.
        assert not lint(
            """
            def failures(rng, n):
                while n > 0:
                    gap = rng.exponential(1.0)
                    n -= 1
            """,
            "rng-batching",
            module=SIM_MODULE,
        )

    def test_outside_hot_path_modules_silent(self):
        source = """
        def offer_all(rng, arrivals):
            for a in arrivals:
                serve(a, rng.random())
        """
        assert not lint(source, "rng-batching", module=OUTSIDE_MODULE)
        assert lint(source, "rng-batching", module=SIM_MODULE)

    def test_non_generator_receivers_ignored(self):
        assert not lint(
            """
            def run(matrix, arrivals):
                for a in arrivals:
                    x = matrix.normal(1.0, 0.5)
            """,
            "rng-batching",
            module=SIM_MODULE,
        )

    def test_suppression_and_options(self):
        source = """
        def offer_all(rng, arrivals):
            for a in arrivals:
                serve(a, rng.random())  # repro: allow(rng-batching) -- accept/reject chain
        """
        assert not lint(source, "rng-batching", module=SIM_MODULE)
        # Custom module scope via options.
        assert lint(
            source,
            "rng-batching",
            module=OUTSIDE_MODULE,
            options={"modules": ("myplugin",)},
        ) == []  # suppressed inline even under custom scope
        assert len(
            lint(
                """
                def offer_all(rng, arrivals):
                    for a in arrivals:
                        serve(a, rng.random())
                """,
                "rng-batching",
                module=OUTSIDE_MODULE,
                options={"modules": ("myplugin",)},
            )
        ) == 1


# ----------------------------------------------------------- perf-gate


class TestPerfGate:
    @staticmethod
    def project(tmp_path, *, gate_text, benches):
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "check_perf.py").write_text(gate_text)
        (tmp_path / "benchmarks").mkdir()
        for name, text in benches.items():
            (tmp_path / "benchmarks" / name).write_text(text)
        return ProjectContext(root=tmp_path)

    def test_ungated_baseline_flagged(self, tmp_path):
        project = self.project(
            tmp_path,
            gate_text='BASE = "results/BENCH_a.json"\n',
            benches={
                "bench_a.py": 'OUT = "results/BENCH_a.json"\n',
                "bench_b.py": 'OUT = "results/BENCH_b.json"\n',
            },
        )
        findings = get_pass_registry().run("perf-gate", project)
        assert len(findings) == 1
        assert "BENCH_b.json" in findings[0].message
        assert findings[0].path == "benchmarks/bench_b.py"

    def test_docstring_mentions_do_not_count_as_emission(self, tmp_path):
        project = self.project(
            tmp_path,
            gate_text="# gates nothing\n",
            benches={
                "bench_doc.py": '"""Narrates results/BENCH_ghost.json."""\n'
            },
        )
        assert not get_pass_registry().run("perf-gate", project)

    def test_fully_gated_project_clean(self, tmp_path):
        project = self.project(
            tmp_path,
            gate_text='GATES = ["results/BENCH_a.json"]\n',
            benches={"bench_a.py": 'OUT = "results/BENCH_a.json"\n'},
        )
        assert not get_pass_registry().run("perf-gate", project)

    def test_missing_gate_file_yields_nothing(self, tmp_path):
        assert not get_pass_registry().run(
            "perf-gate", ProjectContext(root=tmp_path)
        )


# --------------------------------------------------------- suppressions


class TestSuppressions:
    def test_inline_suppression_with_reason_covers_its_line(self):
        findings = lint(
            """
            import random
            random.shuffle(items)  # repro: allow(determinism) -- fixture shuffle, not sim state
            """,
            "determinism",
        )
        assert not findings

    def test_comment_only_suppression_covers_next_line(self):
        findings = lint(
            """
            import random
            # repro: allow(determinism) -- fixture shuffle, not sim state
            random.shuffle(items)
            """,
            "determinism",
        )
        assert not findings

    def test_suppression_is_per_pass(self):
        # An allow() naming another pass must not silence this one.
        findings = lint(
            """
            import random
            random.shuffle(items)  # repro: allow(spawn-safety) -- wrong pass id
            """,
            "determinism",
        )
        assert len(findings) == 1

    def test_reasonless_suppression_is_inert_and_reported(self):
        context = ModuleContext.from_source(
            textwrap.dedent(
                """
                import random
                random.shuffle(items)  # repro: allow(determinism)
                """
            )
        )
        # Inert: the determinism finding is NOT suppressed ...
        findings = get_pass_registry().run("determinism", context)
        assert [f for f in findings if not context.is_suppressed(f)]
        # ... and the malformed suppression is itself a finding.
        assert len(context.parse_findings) == 1
        assert context.parse_findings[0].pass_id == "suppression"
        assert "no reason" in context.parse_findings[0].message
