"""``relearn_warm`` — the learn layers through their caches instead of cold.

Why it exists: a cache change that helps the warm path and costs the cold
one (or the reverse) shows here and not in ``learn_table1``.  Two halves:

* **rehydrated context** — 12 of the >=5-column Table-1 tasks: cold synthesis
  and ``context_dumps`` are set-up; the timed part is ``context_loads`` plus
  synthesis on the rehydrated ``SynthesisContext``.  ``workload.warm_over_cold``
  is warm over cold for the same tasks (>= 1 today: the cache does not pay
  for its load).
* **incremental relearn** — DBLP, IMDB, Mondial, Yelp: a fresh
  ``ContextStore`` is primed with the spec minus one column (set-up), then
  ``learn_incremental`` of the full spec is timed, three times, each on its
  own copy of the primed store (median per spec).

The draw is fixed and the seed only shuffles its order, as in
``learn_table1``: the tasks cost 0.15–1.1 s each and rehydrating an XML
task's context costs relatively more than its JSON twin's, so a seeded draw
of 12 of 24 moved the warm time by 6 % with the code unchanged.  Nine
scenarios exist in both formats and alternate JSON/XML; of the four JSON-only
scenarios the first three are taken.  (``enrollment_v6`` is left to
``learn_table1``: its twins differ 3x.)

An operation is a task or a spec; it fails unless the warm program / plan
body is byte-identical to the cold one.

Cells: warm 12 tasks (timed) / the same 12 cold (measured during set-up) /
incremental relearn of the four specs (timed).  ``wall_s`` is the timed
part: cell 1 + cell 3.
"""

from __future__ import annotations

import json
import random
import shutil
from typing import Dict, List, Optional

from repro.benchmarks_suite import BenchmarkTask, load_suite
from repro.datasets import dblp, imdb, mondial, yelp
from repro.dsl.serialize import program_to_json
from repro.migration.engine import MigrationSpec, TableExampleSpec
from repro.relational.schema import DatabaseSchema, ForeignKey, TableSchema
from repro.runtime import ContextStore, MigrationPlan, learn_incremental
from repro.synthesis import (
    DEFAULT_CONFIG,
    SynthesisConfig,
    SynthesisResult,
    Synthesizer,
    context_dumps,
    context_loads,
)

from ..protocol import (
    Operations,
    OracleError,
    RunContext,
    WorkloadResult,
    median,
    ratio,
    scratch_dir,
    timed,
    untimed,
)
from .learn_table1 import learn_layers, synthesis_task, traced_synthesis

DATASETS = (("dblp", dblp), ("imdb", imdb), ("mondial", mondial), ("yelp", yelp))
QUICK_DATASETS = DATASETS[:1]
QUICK_TASKS = 2
UNPAIRED_DRAW = 3
RELEARN_REPETITIONS = 3
#: Left out of the draw (see the module docstring).
UNBALANCED_SCENARIOS = ("enrollment_5c_v6",)


# --------------------------------------------------------------------------- #
# The task draw
# --------------------------------------------------------------------------- #


def draw_tasks(seed: int, quick: bool = False) -> List[BenchmarkTask]:
    """The 12 tasks (fixed) in seeded order."""
    scenarios: Dict[str, Dict[str, BenchmarkTask]] = {}
    for task in load_suite():
        if task.num_columns >= 5 and task.expressible:
            fmt, scenario = task.name.split("_", 1)
            scenarios.setdefault(scenario, {})[fmt] = task
    paired = sorted(
        s for s, twins in scenarios.items()
        if len(twins) == 2 and s not in UNBALANCED_SCENARIOS
    )
    unpaired = sorted(s for s, twins in scenarios.items() if len(twins) == 1)
    drawn = [scenarios[s]["xml" if i % 2 else "json"] for i, s in enumerate(paired)]
    for scenario in unpaired[:UNPAIRED_DRAW]:
        drawn.extend(scenarios[scenario].values())
    random.Random(seed).shuffle(drawn)
    return drawn[:QUICK_TASKS] if quick else drawn


# --------------------------------------------------------------------------- #
# Spec editing: the full spec minus one data column
# --------------------------------------------------------------------------- #


def droppable_column(spec: MigrationSpec):
    """A (table, data column) whose removal keeps the schema valid."""
    referenced = {
        (fk.target_table, fk.target_column)
        for table in spec.schema.tables
        for fk in table.foreign_keys
    }
    for table in spec.schema.topological_order():
        keys = {fk.column for fk in table.foreign_keys} | {table.primary_key}
        data = table.data_columns()
        if len(data) < 2:
            continue
        for column in reversed(data):
            if column not in keys and (table.name, column) not in referenced:
                return table.name, column
    raise OracleError(f"{spec.schema.name}: no droppable column")


def without_column(spec: MigrationSpec, table_name: str, column: str) -> MigrationSpec:
    tables, examples = [], []
    for table in spec.schema.tables:
        rows = [tuple(row) for row in spec.example_for(table.name).rows]
        drop: Optional[int] = None
        if table.name == table_name:
            drop = table.column_names.index(column)
            rows = [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]
        tables.append(
            TableSchema(
                name=table.name,
                columns=[c for i, c in enumerate(table.columns) if i != drop],
                primary_key=table.primary_key,
                foreign_keys=[
                    ForeignKey(fk.column, fk.target_table, fk.target_column)
                    for fk in table.foreign_keys
                ],
                natural_keys=table.natural_keys,
            )
        )
        examples.append(TableExampleSpec(table=table.name, rows=rows))
    return MigrationSpec(
        schema=DatabaseSchema(name=spec.schema.name, tables=tables),
        example_tree=spec.example_tree,
        table_examples=examples,
    )


def plan_body(plan: MigrationPlan) -> str:
    """The plan minus provenance metadata — the byte-identity comparand."""
    return json.dumps(
        {k: v for k, v in plan.to_json().items() if k != "metadata"}, sort_keys=True
    )


def program_body(result: SynthesisResult) -> str:
    if result.program is None:
        return "unsolved"
    return json.dumps(program_to_json(result.program), sort_keys=True)


# --------------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------------- #


def run(ctx: RunContext) -> WorkloadResult:
    datasets = QUICK_DATASETS if ctx.quick else DATASETS
    migration_config = SynthesisConfig.for_migration()
    operations = Operations()
    setup: List[float] = []
    layers: Dict[str, float] = {}

    # ---- set-up: cold synthesis + dump; cold learn + primed stores --------
    tasks = untimed(setup, lambda: draw_tasks(ctx.seed, ctx.quick))
    jobs = [synthesis_task(task) for task in tasks]
    cold_seconds: List[float] = []
    cold_bodies: List[str] = []
    payloads: List[str] = []
    dump_seconds = 0.0
    for job in jobs:
        synthesizer = Synthesizer(DEFAULT_CONFIG, jobs=1)
        seconds, cold = timed(lambda: synthesizer.synthesize(job))
        cold_seconds.append(seconds)
        cold_bodies.append(program_body(cold))
        seconds, payload = timed(lambda: context_dumps(synthesizer.context, indent=0))
        dump_seconds += seconds
        payloads.append(payload)
    setup.append(sum(cold_seconds) + dump_seconds)

    with scratch_dir(ctx.tmp, "stores-") as directory:
        specs, stores, cold_plans = {}, {}, {}
        learn_seconds = 0.0
        for name, module in datasets:
            spec = specs[name] = module.dataset().migration_spec()
            seconds, cold_plans[name] = timed(lambda: MigrationPlan.learn(spec))
            learn_seconds += seconds
            stores[name] = f"{directory}/{name}"
            base = without_column(spec, *droppable_column(spec))
            untimed(
                setup,
                lambda: learn_incremental(base, ContextStore(stores[name]), config=migration_config),
            )
        setup.append(learn_seconds)

        # ---- timed: rehydrate + warm synthesis ----------------------------
        warm_seconds: List[float] = []
        synthesis_seconds: List[float] = []
        load_seconds = 0.0
        for task, job, payload, cold_body in zip(tasks, jobs, payloads, cold_bodies):
            seconds, context = timed(lambda: context_loads(payload, [task.tree]))
            load_seconds += seconds

            def warm_synthesis():
                return Synthesizer(DEFAULT_CONFIG, context=context, jobs=1).synthesize(job)

            if ctx.traced:
                warm, result = traced_synthesis(ctx.tracer, warm_synthesis)
            else:
                warm, result = timed(warm_synthesis)
            synthesis_seconds.append(warm)
            warm_seconds.append(seconds + warm)
            operations.record(
                program_body(result) == cold_body,
                f"{task.name}: warm program differs from the cold one",
            )

        # ---- timed: incremental relearn of the full spec ------------------
        # Each repetition relearns on its own copy of the primed store (a
        # relearn writes to it); the cell is half a second and does file I/O,
        # so a single sample is at the mercy of one slow write.
        relearn_seconds: List[float] = []
        reused = total = 0
        for name, _ in datasets:
            samples: List[float] = []
            for repetition in range(1 if ctx.quick else RELEARN_REPETITIONS):
                copy = shutil.copytree(stores[name], f"{stores[name]}-{repetition}")
                seconds, (plan, report) = timed(
                    lambda: learn_incremental(specs[name], ContextStore(copy), config=migration_config)
                )
                samples.append(seconds)
                if report.cold:
                    raise OracleError(f"{name}: the primed store was not used as a base")
                operations.record(
                    plan_body(plan) == plan_body(cold_plans[name]),
                    f"{name}: incremental plan differs from the cold plan",
                )
            relearn_seconds.append(median(samples))
            reused += len(report.tables_reused)
            total += report.tables_total
            if ctx.traced:
                for counter, value in report.cache_counters.items():
                    ctx.tracer.count("synthesis.context." + counter, value)

    warm_total, cold_total, relearn_total = sum(warm_seconds), sum(cold_seconds), sum(relearn_seconds)
    if ctx.traced:
        layers = learn_layers(ctx.tracer, synthesis_seconds)
        layers.update({
            "synthesis.serialize.dump_s": dump_seconds,
            "synthesis.serialize.load_s": load_seconds,
            "synthesis.serialize.bytes": sum(len(p.encode("utf-8")) for p in payloads),
            "migration.engine.learn_s": learn_seconds,
            "runtime.incremental.relearn_s": relearn_total,
            "runtime.incremental.tables_reused_share": ratio(reused, total),
            "workload.warm_over_cold": ratio(warm_total, cold_total),
        })
    return WorkloadResult(
        cells=(warm_total, cold_total, relearn_total),
        wall_s=warm_total + relearn_total,
        ops=len(tasks) + len(datasets),
        setup_units=[sum(setup)],
        operations=operations,
        layers=layers,
        info={
            "tasks": [task.name for task in tasks],
            "datasets": [name for name, _ in datasets],
            "rounds": 1,
        },
    )
