"""Tests of the benchmark harness itself (tiny ``--quick`` inputs, < 15 s).

They hold the harness to what a later perf PR relies on: names and units
are declared once and match ``BENCHMARK.json``; inputs follow the seed; the
oracle is live (a wrong expectation is reported as a failed operation);
spans nest under one run id; and ``peak_rss_mb`` is the workload child's.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCHMARKS = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from harness import cli, spec  # noqa: E402
from harness.protocol import (  # noqa: E402
    REPO_ROOT,
    Operations,
    Rounds,
    RunContext,
    percentile,
)
from harness.staged import check_target, learn_plan  # noqa: E402
from harness.tracing import Tracer  # noqa: E402
from harness.workloads import learn_table1, migrate_scale, relearn_warm  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --------------------------------------------------------------------------- #
# Declarations
# --------------------------------------------------------------------------- #


def test_names_units_and_manifest_follow_the_contract():
    manifest = spec.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["per_layer"]) <= 128
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert 1 <= manifest["run_seconds"] <= 60
    assert all(path.startswith("benchmarks/harness") for path in manifest["paths"])


def test_benchmark_json_is_the_rendered_declaration():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == spec.manifest()


# --------------------------------------------------------------------------- #
# Inputs follow the seed
# --------------------------------------------------------------------------- #


def test_same_seed_same_inputs_other_seed_other_inputs():
    from repro.datasets import dblp, imdb

    for module in (dblp, imdb):
        first = module.dataset(scale=12, seed=5).generate(12).content_fingerprint()
        again = module.dataset(scale=12, seed=5).generate(12).content_fingerprint()
        other = module.dataset(scale=12, seed=6).generate(12).content_fingerprint()
        assert first == again != other

    def names(tasks):
        return [task.name for task in tasks]

    for draw in (relearn_warm.draw_tasks, lambda seed: learn_table1.draw_tasks(seed, False)):
        assert names(draw(5)) == names(draw(5)) != names(draw(6))
    drawn = relearn_warm.draw_tasks(5)
    assert len(drawn) == 12 and len(set(names(drawn))) == 12
    assert all(task.num_columns >= 5 for task in drawn)
    assert len(learn_table1.draw_tasks(5, False)) == 98


# --------------------------------------------------------------------------- #
# The oracle is live
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def dblp_run():
    from repro.datasets import dblp
    from repro.runtime import MemoryBackend, execute_plan

    bundle = dblp.dataset(scale=6, seed=3)
    plan = learn_plan(dblp)
    backend = MemoryBackend()
    report = execute_plan(plan, bundle.generate(6), backend)
    return plan, backend, report.per_table_rows, bundle.ground_truth(6)


def test_a_wrong_expected_count_raises_failed_share(dblp_run):
    plan, backend, produced, truth = dblp_run
    good = Operations()
    check_target(good, "dblp", plan, produced, truth, backend)
    assert (good.attempted, good.failed) == (len(truth), 0)

    wrong = dict(truth, article=truth["article"] + 1)
    bad = Operations()
    check_target(bad, "dblp", plan, produced, wrong, backend)
    assert bad.failed == 1 and "article" in bad.failures[0]
    assert bad.failed / bad.attempted > good.failed / good.attempted

    # A recorded deviation is still checked, counted apart, and never hides
    # a mismatch on another table.
    known = Operations()
    check_target(known, "dblp", plan, produced, wrong, backend, known_deviations=("article",))
    assert (known.failed, known.known_deviations) == (0, 1)
    other = Operations()
    check_target(other, "dblp", plan, produced, wrong, backend, known_deviations=("journal",))
    assert (other.failed, other.known_deviations) == (1, 0)


def test_learn_oracle_runs_the_naive_interpreter():
    from repro.synthesis import DEFAULT_CONFIG, SynthesisResult, Synthesizer

    tasks = {task.name: task for task in learn_table1.draw_tasks(1, False)}
    task = next(t for t in tasks.values() if t.expressible and t.num_columns <= 2)
    result = Synthesizer(DEFAULT_CONFIG).synthesize(learn_table1.synthesis_task(task))
    operations = Operations()
    assert learn_table1.judge(operations, task, result) and operations.failed == 0

    # The same program against different example rows: rejected.
    altered = type(task)(task.name, task.format, task.tree, task.rows[:-1])
    assert not learn_table1.judge(operations, altered, result)
    assert operations.failed == 1

    # No program: a failure, except where the suite declares the task
    # inexpressible in the DSL.
    nothing = SynthesisResult(program=None, success=False, synthesis_time=0.0)
    learn_table1.judge(operations, task, nothing)
    assert operations.failed == 2
    inexpressible = next(t for t in tasks.values() if not t.expressible)
    learn_table1.judge(operations, inexpressible, nothing)
    assert (operations.attempted, operations.failed) == (4, 2)


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #


def test_spans_nest_share_a_run_id_and_fit_their_parent(tmp_path):
    tracer = Tracer(run_id="test-run")
    ctx = RunContext(seed=4, seconds=0.1, quick=True, tmp=str(tmp_path), tracer=tracer)
    result = migrate_scale.run(ctx)
    assert result.operations.failed == 0 and result.operations.attempted > 0

    spans = {span.span_id: span for span in tracer.spans}
    assert len(tracer.named("run")) == len(migrate_scale.QUICK_CELLS)
    assert {span.run_id for span in tracer.spans} == {"test-run"}
    slack = 1e-6
    for span in tracer.spans:
        assert span.end >= span.start
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start - slack <= span.start and span.end <= parent.end + slack
        covered = sum(child.duration for child in tracer.children(span))
        assert covered <= span.duration + slack
    for name in ("table", "optimizer.optimize.enumerate", "migration.engine.keygen",
                 "runtime.executor.merge", "runtime.backends.memory.insert"):
        assert tracer.named(name), name
    # Self times of a run add up to the run: nothing is counted twice or lost.
    for run in tracer.named("run"):
        assert sum(tracer.self_times(run).values()) == pytest.approx(run.duration)
    assert set(result.layers) <= set(spec.PER_LAYER_UNITS)
    events = tracer.chrome_trace()["traceEvents"]
    assert len(events) == len(tracer.spans) and all(e["ph"] == "X" for e in events)


# --------------------------------------------------------------------------- #
# Protocol pieces
# --------------------------------------------------------------------------- #


def test_rounds_stop_when_the_next_round_no_longer_fits():
    rounds = Rounds(seconds=10.0)
    for _ in rounds:
        rounds.spent(4.0)
    assert rounds.done == 2  # a third 4 s round would end at 12 s
    single = Rounds(seconds=1.0)
    for _ in single:
        single.spent(5.0)
    assert single.done == 1  # the minimum is always run
    assert percentile(list(range(1, 99)), 0.9) == 89
    assert percentile([3.0], 0.9) == 3.0


# --------------------------------------------------------------------------- #
# The command
# --------------------------------------------------------------------------- #


def test_pass_runs_in_a_child_and_reports_the_contract_shape():
    record = cli.run_pass("migrate_scale", seed=3, seconds=0.1, trace=False, quick=True)
    assert record["info"]["pid"] != os.getpid() == record["info"]["parent_pid"]
    assert record["end_to_end"]["peak_rss_mb"] > 10
    result = cli.contract_result(record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in spec.END_TO_END]
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0, name
    assert not os.path.exists(os.path.join(REPO_ROOT, ".bench_tmp"))


def test_command_fails_without_the_program_under_test(tmp_path):
    shutil.copytree(
        os.path.join(REPO_ROOT, "benchmarks", "harness"),
        tmp_path / "benchmarks" / "harness",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        spec.COMMAND + ["--workload", "migrate_scale", "--seed", "1", "--seconds", "1",
                        "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
