"""The run side, stage by stage, and the oracle for a migrated target.

The traced pass replaces each fused pipeline (``execute_plan``,
``stream_execute``) by the same public calls with every intermediate
materialised — one span per call, parent = table span, parent = run/chunk
span — so a layer's time can be read off without instrumenting ``src/``:

    tree.tag_index()                       hdt.tree.tag_index
    compile_plan_executions(plan)          optimizer.optimize.compile
    list(iter_execute_nodes(...))          optimizer.optimize.enumerate
    list(iter_generate_table_rows(...))    migration.engine.keygen
    list(merger.iter_merge(...)) + absorb  runtime.executor.merge
    backend.insert_rows(table, rows)       runtime.backends.<name>.insert
    backend.finalize()                     runtime.backends.<name>.finalize

Materialising costs time the fused pipeline does not spend; the traced pass
reports that as ``workload.trace_overhead``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Sequence

from repro.hdt.tree import HDT
from repro.migration.engine import iter_generate_table_rows
from repro.optimizer.optimize import ExecutionPlan, iter_execute_nodes
from repro.runtime import (
    ChunkMerger,
    ExecutionBackend,
    MigrationPlan,
    canonical_table_rows,
    verify_backend,
)
from repro.runtime.executor import compile_plan_executions

from .protocol import Operations, ratio
from .tracing import GC_SPAN, Tracer

BACKEND_LAYERS = {
    "MemoryBackend": "memory",
    "SQLiteBackend": "sqlite",
    "ColumnarBackend": "columnar",
    "NullBackend": "null",
}


def backend_layer(backend: ExecutionBackend) -> str:
    return "runtime.backends." + BACKEND_LAYERS[type(backend).__name__]


def staged_tables(
    tracer: Tracer,
    plan: MigrationPlan,
    executions: Dict[str, ExecutionPlan],
    tree: HDT,
    merger: ChunkMerger,
    backend: ExecutionBackend,
    per_table_rows: Dict[str, int],
) -> None:
    """Every table of the plan over one tree (a document or a chunk)."""
    layer = backend_layer(backend)
    with tracer.span("hdt.tree.tag_index"):
        tree.tag_index()
    tracer.count("hdt.tree.nodes", tree.size())
    for table_schema in plan.execution_order():
        name = table_schema.name
        table_plan = plan.table_plan(name)
        execution = executions[name]
        with tracer.span("table", table=name):
            with tracer.span("optimizer.optimize.enumerate"):
                node_rows = list(
                    iter_execute_nodes(table_plan.program, tree, execution=execution)
                )
            partial = execution.stats.get("partial_tuples", 0)
            tracer.count("optimizer.optimize.partial_tuples", partial)
            tracer.count("optimizer.optimize.rows_yielded", len(node_rows))
            key_aliases: Dict[str, str] = {}
            with tracer.span("migration.engine.keygen"):
                rows = list(
                    iter_generate_table_rows(
                        table_schema,
                        table_plan.data_columns,
                        table_plan.foreign_key_rules,
                        node_rows,
                        key_aliases=key_aliases,
                    )
                )
            tracer.count("migration.engine.rows_out", len(rows))
            tracer.count("migration.engine.aliases", len(key_aliases))
            with tracer.span("runtime.executor.merge"):
                merged = list(merger.iter_merge(name, rows))
                merger.absorb_aliases(name, key_aliases)
            tracer.count("runtime.executor.rows_in", len(rows))
            tracer.count("runtime.executor.rows_kept", len(merged))
            with tracer.span(layer + ".insert"):
                inserted = backend.insert_rows(name, merged)
            tracer.count(layer + ".rows", inserted)
            per_table_rows[name] = per_table_rows.get(name, 0) + inserted


def staged_execute(
    tracer: Tracer,
    plan: MigrationPlan,
    tree: HDT,
    backend: ExecutionBackend,
    **run_args: object,
) -> Dict[str, int]:
    """``execute_plan``, stage by stage, under one ``run`` span."""
    per_table_rows: Dict[str, int] = {}
    with tracer.span("run", **run_args):
        backend.begin(plan.schema)
        merger = ChunkMerger(plan.schema)
        with tracer.span("optimizer.optimize.compile"):
            executions = compile_plan_executions(plan)
        staged_tables(tracer, plan, executions, tree, merger, backend, per_table_rows)
        with tracer.span(backend_layer(backend) + ".finalize"):
            backend.finalize()
    return per_table_rows


def staged_stream(
    tracer: Tracer,
    plan: MigrationPlan,
    chunks: Iterable,
    backend: ExecutionBackend,
    *,
    parse_layer: Optional[str] = None,
    **run_args: object,
) -> Dict[str, int]:
    """Serial ``stream_execute``, stage by stage; ``parse_layer`` names the
    span charged with producing each chunk (parsing, for a file source)."""
    per_table_rows: Dict[str, int] = {}
    iterator = iter(chunks)
    with tracer.span("run", **run_args):
        backend.begin(plan.schema)
        merger = ChunkMerger(plan.schema)
        with tracer.span("optimizer.optimize.compile"):
            executions = compile_plan_executions(plan)
        while True:
            with tracer.span("runtime.streaming.chunk") as chunk_span:
                with tracer.span(parse_layer or "runtime.streaming.next_chunk"):
                    chunk = next(iterator, None)
                if chunk is not None:
                    staged_tables(
                        tracer, plan, executions, chunk.tree, merger, backend, per_table_rows
                    )
            if chunk is None:
                chunk_span.name = "runtime.streaming.end_of_stream"
                break
        with tracer.span(backend_layer(backend) + ".finalize"):
            backend.finalize()
    return per_table_rows


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The run-side per-layer metrics a tracer's spans and counts support."""
    own = tracer.self_times()
    counts = tracer.counts
    out: Dict[str, float] = {
        "hdt.tree.tag_index_s": own.get("hdt.tree.tag_index", 0.0),
        "hdt.tree.nodes": counts.get("hdt.tree.nodes", 0),
        "optimizer.optimize.compile_s": own.get("optimizer.optimize.compile", 0.0),
        "optimizer.optimize.enumerate_s": own.get("optimizer.optimize.enumerate", 0.0),
        "optimizer.optimize.partial_tuples": counts.get("optimizer.optimize.partial_tuples", 0),
        "optimizer.optimize.rows_yielded": counts.get("optimizer.optimize.rows_yielded", 0),
        "migration.engine.keygen_s": own.get("migration.engine.keygen", 0.0),
        "migration.engine.rows_out": counts.get("migration.engine.rows_out", 0),
        "migration.engine.aliases": counts.get("migration.engine.aliases", 0),
        "runtime.executor.merge_s": own.get("runtime.executor.merge", 0.0),
        "runtime.executor.gc_s": own.get(GC_SPAN, 0.0),
        "runtime.executor.gc_gen2_runs": sum(
            1 for s in tracer.named(GC_SPAN) if s.args.get("generation") == 2
        ),
    }
    rows_in = counts.get("runtime.executor.rows_in", 0)
    out["runtime.executor.rows_dropped_share"] = ratio(
        rows_in - counts.get("runtime.executor.rows_kept", 0), rows_in
    )
    written = sum(counts.get(f"runtime.backends.{b}.rows", 0) for b in BACKEND_LAYERS.values())
    out["optimizer.optimize.tuples_per_row"] = ratio(
        out["optimizer.optimize.partial_tuples"], written
    )
    for name in BACKEND_LAYERS.values():
        layer = f"runtime.backends.{name}"
        busy = own.get(layer + ".insert", 0.0)
        out[layer + ".insert_rows_per_s"] = ratio(counts.get(layer + ".rows", 0), busy)
        if name in ("sqlite", "columnar"):
            out[layer + ".finalize_s"] = own.get(layer + ".finalize", 0.0)
    chunk_spans = tracer.named("runtime.streaming.chunk")
    out["runtime.streaming.chunks"] = len(chunk_spans)
    out["runtime.streaming.chunk_s"] = ratio(
        sum(s.duration for s in chunk_spans), len(chunk_spans)
    )
    return out


def unattributed_share(tracer: Tracer) -> float:
    """Share of the ``run`` spans no layer span accounts for (run/table/chunk
    bookkeeping: ``begin``, loop overhead, list hand-over)."""
    runs = tracer.named("run")
    total = sum(s.duration for s in runs)
    kept = 0.0
    for run in runs:
        own = tracer.self_times(run)
        kept += sum(own.get(n, 0.0) for n in ("run", "table", "runtime.streaming.chunk",
                                               "runtime.streaming.end_of_stream"))
    return ratio(kept, total)


# --------------------------------------------------------------------------- #
# Oracle: a migrated target against the simulator's own tables
# --------------------------------------------------------------------------- #


def check_target(
    operations: Operations,
    label: str,
    plan: MigrationPlan,
    per_table_rows: Dict[str, int],
    truth: Dict[str, int],
    backend: Optional[ExecutionBackend] = None,
    known_deviations: Sequence[str] = (),
) -> None:
    """One operation per table of one run.

    A table fails when ``verify_backend`` finds a primary/foreign-key
    violation in the produced target or when its row count differs from the
    simulator's ground truth (``records_to_tables(make_records(scale,
    seed))`` — derived from the records, not from the executor).  Tables
    named in ``known_deviations`` are still checked, but a *count* mismatch
    there is counted as a known deviation instead of a failure (see README,
    baseline findings).
    """
    integrity: Dict[str, str] = {}
    if backend is not None:
        for check in verify_backend(backend, plan.schema).tables:
            if not check.passed:
                integrity[check.table] = "; ".join(check.problems[:2])
    for table in plan.schema.tables:
        name = table.name
        if name in integrity:
            operations.record(False, f"{label}/{name}: {integrity[name]}")
            continue
        produced, expected = per_table_rows.get(name), truth.get(name)
        operations.record(
            produced == expected,
            f"{label}/{name}: {produced} rows, ground truth {expected}",
            known=name in known_deviations,
        )


def target_digest(plan: MigrationPlan, backend: ExecutionBackend) -> str:
    """Digest of the target's canonical rows (surrogate keys renamed)."""
    rows = {t.name: backend.fetch_rows(t.name) for t in plan.schema.tables}
    canonical = canonical_table_rows(plan.schema, rows)
    digest = hashlib.sha256()
    for table in plan.schema.tables:
        digest.update(table.name.encode("utf-8"))
        for row in canonical[table.name]:
            digest.update(repr(row).encode("utf-8"))
    return digest.hexdigest()


def learn_plan(dataset_module) -> MigrationPlan:
    """A cold learn of the dataset's full plan from its example document."""
    return MigrationPlan.learn(dataset_module.dataset().migration_spec())
