"""``learn_table1`` — the paper's first experiment: all 98 tasks, cold, serial.

Why it exists: synthesis time over the StackOverflow-style suite is the
number the paper sells first.  Predicate learning (``predicate_matrix``,
``set_cover``) does most of the work; the run side does none.  Every task
gets a fresh ``Synthesizer(DEFAULT_CONFIG, jobs=1)`` — no cache survives from
one task to the next — and the seed only shuffles the order the tasks run in.

An operation is a task.  It fails unless a program comes back **and** the
naive interpreter (``dsl.semantics.run_program`` — not the optimizer the run
side uses) reproduces the example rows.  The six tasks the suite itself
declares inexpressible in the DSL (the paper's 94 %: union columns, string
concatenation, aggregation) pass when the synthesizer reports no program,
and fail like any other if it returns a wrong one.

The three cells partition the tasks by target width: <=3, 4 and >=5 columns.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.benchmarks_suite import BenchmarkTask, load_suite
from repro.dsl.ast import Op
from repro.dsl.semantics import compare_values, run_program
from repro.synthesis import (
    DEFAULT_CONFIG,
    ColumnLearningError,
    ExamplePair,
    SynthesisContext,
    SynthesisResult,
    SynthesisTask,
    Synthesizer,
    learn_column_extractors,
)

from ..protocol import (
    Operations,
    RunContext,
    WorkloadResult,
    median,
    percentile,
    ratio,
    timed,
    untimed,
)
from ..tracing import Tracer

QUICK_TASKS = 10


def synthesis_task(task: BenchmarkTask) -> SynthesisTask:
    return SynthesisTask(
        examples=[ExamplePair(task.tree, [tuple(row) for row in task.rows])], name=task.name
    )


def draw_tasks(seed: int, quick: bool) -> List[BenchmarkTask]:
    """The suite in seeded order (quick: a seeded sample of it)."""
    tasks = load_suite()
    random.Random(seed).shuffle(tasks)
    return tasks[:QUICK_TASKS] if quick else tasks


def same_rows(produced: Sequence[tuple], expected: Sequence[tuple]) -> bool:
    """Set equality under the DSL's own value equality (3 equals "3")."""

    def contains(table: Sequence[tuple], row: tuple) -> bool:
        return any(
            len(other) == len(row)
            and all(compare_values(a, Op.EQ, b) for a, b in zip(row, other))
            for other in table
        )

    return all(contains(produced, row) for row in expected) and all(
        contains(expected, row) for row in produced
    )


def judge(operations: Operations, task: BenchmarkTask, result: SynthesisResult) -> bool:
    """Record one task's outcome; returns whether it was solved."""
    if result.program is None:
        operations.record(not task.expressible, f"{task.name}: no program ({result.message})")
        return False
    reproduced = same_rows(run_program(result.program, task.tree), task.rows)
    operations.record(reproduced, f"{task.name}: program does not reproduce the example")
    return reproduced


def cell_of(task: BenchmarkTask) -> int:
    return 0 if task.num_columns <= 3 else 1 if task.num_columns == 4 else 2


def run(ctx: RunContext) -> WorkloadResult:
    setup: List[float] = []
    tasks = untimed(setup, lambda: draw_tasks(ctx.seed, ctx.quick))
    jobs = untimed(setup, lambda: [synthesis_task(task) for task in tasks])
    operations = Operations()
    times: List[float] = []
    cells = [0.0, 0.0, 0.0]
    solved = 0
    for task, job in zip(tasks, jobs):
        if ctx.traced:
            seconds, result = _traced_task(ctx.tracer, task, job)
        else:
            seconds, result = timed(lambda: Synthesizer(DEFAULT_CONFIG, jobs=1).synthesize(job))
        times.append(seconds)
        cells[cell_of(task)] += seconds
        solved += judge(operations, task, result)

    wall = sum(times)
    outcome = WorkloadResult(
        cells=(cells[0], cells[1], cells[2]),
        wall_s=wall,
        ops=len(tasks),
        setup_units=[sum(setup)],
        operations=operations,
        info={"tasks": len(tasks), "solved": solved, "rounds": 1},
    )
    if ctx.traced:
        outcome.layers = learn_layers(ctx.tracer, times)
        outcome.layers["synthesis.synthesizer.solved"] = solved
        outcome.layers["workload.task_p90_s"] = percentile(times, 0.9)
    return outcome


# --------------------------------------------------------------------------- #
# Traced pass
# --------------------------------------------------------------------------- #


def _traced_task(tracer: Tracer, task: BenchmarkTask, job: SynthesisTask) -> Tuple[float, SynthesisResult]:
    """One task under a ``task`` span: the column learner called directly
    (the synthesizer reports no time for it), then the synthesis itself with
    the phase durations it reports about itself laid out as child spans."""
    with tracer.span("task", task=task.name, columns=task.num_columns):
        context = SynthesisContext()
        with tracer.span("synthesis.column_learner.learn"):
            for column in range(job.arity):
                examples = [(ex.tree, [row[column] for row in ex.rows]) for ex in job.examples]
                try:
                    found = learn_column_extractors(examples, DEFAULT_CONFIG, context)
                except ColumnLearningError:
                    break
                tracer.count("synthesis.column_learner.extractors", len(found))
        return traced_synthesis(tracer, lambda: Synthesizer(DEFAULT_CONFIG, jobs=1).synthesize(job))


def traced_synthesis(tracer: Tracer, call) -> Tuple[float, SynthesisResult]:
    with tracer.span("synthesis.synthesizer.synthesize") as span:
        seconds, result = timed(call)
        # ``timed`` collects before it clocks; the phases start after that.
        cursor = time.perf_counter() - seconds
        stats = result.stats
        if stats is not None:
            for name, duration in (
                ("synthesis.predicate_universe", stats.universe_seconds),
                ("synthesis.predicate_matrix", stats.bitmatrix_seconds),
                ("synthesis.set_cover", stats.cover_seconds),
            ):
                tracer.add(name, cursor, cursor + duration, reported_by="SynthesisStats")
                cursor += duration
            tracer.count("synthesis.predicate_universe.size", sum(stats.universe_sizes))
            for counter, value in stats.cache_counters.items():
                tracer.count("synthesis.context." + counter, value)
        tracer.count("synthesis.synthesizer.candidates_tried", result.candidates_tried)
        span.args["seconds"] = seconds
    return seconds, result


def learn_layers(tracer: Tracer, times: Sequence[float]) -> Dict[str, float]:
    """Learn-side per-layer metrics from a traced pass."""
    counts = tracer.counts
    column = tracer.total("synthesis.column_learner.learn")
    universe = tracer.total("synthesis.predicate_universe")
    matrix = tracer.total("synthesis.predicate_matrix")
    cover = tracer.total("synthesis.set_cover")
    synth = sum(times)

    def hit_rate(kind: str) -> float:
        hits = counts.get(f"synthesis.context.{kind}_hits", 0)
        return ratio(hits, hits + counts.get(f"synthesis.context.{kind}_misses", 0))

    return {
        "synthesis.column_learner.busy_s": column,
        "synthesis.column_learner.extractors": counts.get("synthesis.column_learner.extractors", 0),
        "synthesis.predicate_universe.busy_s": universe,
        "synthesis.predicate_universe.size": counts.get("synthesis.predicate_universe.size", 0),
        "synthesis.predicate_matrix.busy_s": matrix,
        "synthesis.set_cover.busy_s": cover,
        # What no phase accounts for: candidate enumeration, tuple
        # classification, the over-approximation check.  The column learner's
        # share is the direct call's time (the synthesizer reports none).
        "synthesis.synthesizer.other_s": synth - column - universe - matrix - cover,
        "synthesis.synthesizer.candidates_tried": counts.get(
            "synthesis.synthesizer.candidates_tried", 0
        ),
        "synthesis.synthesizer.task_p50_s": median(times),
        "synthesis.context.universe_hit_rate": hit_rate("universe"),
        "synthesis.context.chi_hit_rate": hit_rate("chi"),
        "synthesis.context.mask_hit_rate": hit_rate("mask"),
        # The traced pass adds the direct column-learner calls, nothing else.
        "workload.trace_overhead": ratio(column + synth, synth),
    }
