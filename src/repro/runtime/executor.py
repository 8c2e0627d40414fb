"""Plan execution: the fused per-table pipeline and cross-batch merging.

The runtime separates *what to compute* (a :class:`MigrationPlan`) from
*where the rows go* (an :class:`~repro.runtime.backends.base.ExecutionBackend`
— see :mod:`repro.runtime.backends` for the protocol, the shipped
memory/SQLite/columnar implementations and the name registry).

:func:`run_chunk` is the one execution kernel — how one chunk of a document
becomes rows in a sink: every table's program runs with the
cross-product-free optimizer, keys are generated exactly as the one-shot
engine does, and rows are emitted in foreign-key dependency order.  Three
drivers call it: :func:`execute_plan` (whole tree = one chunk) and
:func:`repro.runtime.streaming.stream_execute` (bounded memory, chunk after
chunk) share the serial driver :func:`run_serial`; :func:`repro.runtime.
sharded.shard_execute` runs it per record shard in worker processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..hdt.node import Scalar
from ..hdt.tree import HDT
from ..migration.engine import consumed_projection, iter_generate_table_rows
from ..optimizer.optimize import ExecutionPlan, iter_execute_nodes
from ..optimizer.optimize import plan as compile_program
from ..relational.database import Database
from ..relational.schema import DatabaseSchema, TableSchema
from .backends.base import ExecutionBackend, Row
from .backends.memory import MemoryBackend
from .plan import MigrationPlan, TablePlan

__all__ = [
    "ExecutionBackend",
    "MemoryBackend",
    "Row",
    "ChunkMerger",
    "ExecutionReport",
    "compile_plan_executions",
    "stream_table_rows",
    "run_chunk",
    "run_serial",
    "execute_plan",
    "canonical_table_rows",
    "canonical_database_rows",
]


@dataclass
class _TableMergeState:
    seen_keys: set = field(default_factory=set)
    seen_rows: set = field(default_factory=set)
    content_to_pk: Dict[Tuple[Scalar, ...], Optional[str]] = field(default_factory=dict)
    aliases: Dict[str, str] = field(default_factory=dict)


class ChunkMerger:
    """Deduplicate rows and reconcile surrogate keys across row batches.

    Content deduplication can *drop* a surrogate-keyed row whose key other
    rows still reference — within one document when a program relates columns
    by data value (so distinct node tuples denote the same logical row), and
    across streaming chunks when the same logical row is rebuilt from
    different freshly-parsed nodes.  The merger keeps the first key for each
    logical row, records aliases for every dropped key, and rewrites later
    foreign-key references through the alias table.  Batches must arrive
    table-by-table in foreign-key dependency order (referenced tables first);
    one merger instance accumulates state over all batches of one execution.
    """

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._tables = {t.name: t for t in schema.tables}
        self._state = {t.name: _TableMergeState() for t in schema.tables}

    def iter_merge(self, table_name: str, rows: Iterable[Row]) -> Iterator[Row]:
        """Stream-filter rows to the ones that should actually be inserted.

        Accepts any row iterable — in particular the lazy stream of
        :func:`~repro.migration.engine.iter_generate_table_rows` — so the
        whole per-table pipeline runs in fixed memory.  For surrogate-key
        tables, call :meth:`absorb_aliases` with the generator's collected
        ``key_aliases`` *after* the stream is exhausted (and before the next
        table is merged, so later foreign-key references resolve).
        """
        table = self._tables[table_name]
        if table.natural_keys:
            return self._iter_merge_natural(table, rows)
        return self._iter_merge_surrogate(table, rows)

    def absorb_aliases(self, table_name: str, key_aliases: Dict[str, str]) -> None:
        """Record the surrogate keys a row generator dropped within its batch.

        Keys dropped *within* the batch alias to a kept key of the same
        batch, which may itself have been aliased to an earlier batch's key
        during :meth:`iter_merge` — compose the two mappings.
        """
        state = self._state[table_name]
        for dropped, kept in key_aliases.items():
            state.aliases[dropped] = state.aliases.get(kept, kept)

    def key_aliases(self, table: str) -> Dict[str, str]:
        """Surrogate keys dropped so far, mapped to the keys that replaced them."""
        return self._state[table].aliases

    # ------------------------------------------------------------- internals
    def _iter_merge_natural(self, table: TableSchema, rows: Iterable[Row]) -> Iterator[Row]:
        state = self._state[table.name]
        if table.primary_key is not None:
            pk_index = table.column_names.index(table.primary_key)
            for row in rows:
                if row[pk_index] in state.seen_keys:
                    continue
                state.seen_keys.add(row[pk_index])
                yield row
            return
        for row in rows:
            if row in state.seen_rows:
                continue
            state.seen_rows.add(row)
            yield row

    def _iter_merge_surrogate(self, table: TableSchema, rows: Iterable[Row]) -> Iterator[Row]:
        state = self._state[table.name]
        names = table.column_names
        pk_index = names.index(table.primary_key) if table.primary_key is not None else None
        fk_targets = [
            (names.index(fk.column), fk.target_table)
            for fk in table.foreign_keys
            if not self._tables[fk.target_table].natural_keys
        ]
        for row in rows:
            values = list(row)
            for fk_index, target in fk_targets:
                value = values[fk_index]
                if value is not None:
                    values[fk_index] = self._state[target].aliases.get(value, value)
            pk = values[pk_index] if pk_index is not None else None
            content = tuple(v for i, v in enumerate(values) if i != pk_index)
            if content in state.content_to_pk:
                known = state.content_to_pk[content]
                if pk is not None and known is not None:
                    state.aliases[pk] = known
                continue
            state.content_to_pk[content] = pk
            yield tuple(values)


#: Backend class → registry name, for report serialization.  Kept here (not
#: in the backends package) so ``to_json`` needs no registry import.
_BACKEND_CLASS_NAMES = {
    "MemoryBackend": "memory",
    "SQLiteBackend": "sqlite",
    "ColumnarBackend": "columnar",
    "DuckDBBackend": "duckdb",
    "NullBackend": "null",
}

REPORT_KIND = "repro_execution_report"


@dataclass
class ExecutionReport:
    """What happened during one plan execution."""

    backend: ExecutionBackend
    per_table_rows: Dict[str, int] = field(default_factory=dict)
    execution_time: float = 0.0
    chunks: int = 1
    shards: int = 1

    shards_executed: int = 0
    """Shards actually mapped this run (< ``shards`` after a resume)."""

    shards_resumed: int = 0
    """Shards skipped because a checkpointed spill already covered them."""

    shards_retried: int = 0
    """Shard attempts re-dispatched by the supervisor (crash/timeout/transient)."""

    shards_failed: int = 0
    """Shards that exhausted their retries (the run degraded; see below)."""

    shard_failures: List[dict] = field(default_factory=list)
    """Structured :class:`~repro.runtime.supervisor.ShardFailure` records
    (as dicts) for every permanently-failed shard, in shard order."""

    dry_run: bool = False
    """True when rows were counted but never written (``--dry-run``)."""

    transport: str = "local"
    """Which :class:`~repro.runtime.transport.ShardTransport` ran the map
    stage (``"local"`` for in-process/subprocess shards, ``"socket"`` for
    remote workers; whole-tree and streamed runs report ``"local"``)."""

    @property
    def total_rows(self) -> int:
        return sum(self.per_table_rows.values())

    @property
    def backend_name(self) -> str:
        """The registry name of the backend rows landed in (e.g. ``"sqlite"``)."""
        class_name = type(self.backend).__name__
        return _BACKEND_CLASS_NAMES.get(class_name, class_name)

    def to_json(self) -> dict:
        """The report as a JSON-serializable dict — one schema for the CLI's
        ``--report-json`` and the service's ``GET /jobs/<id>/report``."""
        return {
            "kind": REPORT_KIND,
            "backend": self.backend_name,
            "per_table_rows": dict(self.per_table_rows),
            "total_rows": self.total_rows,
            "execution_time_s": self.execution_time,
            "chunks": self.chunks,
            "shards": self.shards,
            "shards_executed": self.shards_executed,
            "shards_resumed": self.shards_resumed,
            "shards_retried": self.shards_retried,
            "shards_failed": self.shards_failed,
            "shard_failures": [dict(failure) for failure in self.shard_failures],
            "dry_run": self.dry_run,
            "transport": self.transport,
        }


def compile_plan_executions(plan: MigrationPlan) -> Dict[str, ExecutionPlan]:
    """Compile every table's program once (CNF, pushdown/join split, fusable
    analysis under the table's consumed projection).

    The compiled :class:`ExecutionPlan` is reusable across documents and
    chunks — the streaming path compiles per plan, not per chunk.
    """
    executions: Dict[str, ExecutionPlan] = {}
    for table_schema in plan.schema.tables:
        table_plan = plan.table_plan(table_schema.name)
        projection = consumed_projection(
            table_schema, table_plan.data_columns, table_plan.program.arity
        )
        executions[table_schema.name] = compile_program(table_plan.program, projection)
    return executions


def stream_table_rows(
    table_schema: TableSchema,
    table_plan: TablePlan,
    tree: HDT,
    merger: ChunkMerger,
    key_aliases: Dict[str, str],
    execution: ExecutionPlan,
) -> Iterator[Row]:
    """The fully-fused per-table pipeline, as one lazy row stream.

    ``iter_execute_nodes`` (projection-aware hash joins, fused dedup) →
    ``iter_generate_table_rows`` (key generation + content dedup, recording
    dropped-key aliases into ``key_aliases``) → ``ChunkMerger.iter_merge``
    (cross-batch dedup and foreign-key rewriting).  Nothing is materialized;
    the caller must exhaust the stream and then pass ``key_aliases`` to
    :meth:`ChunkMerger.absorb_aliases` (:func:`run_chunk` does both).
    ``execution`` is the table's entry of :func:`compile_plan_executions`.
    """
    node_rows = iter_execute_nodes(table_plan.program, tree, execution=execution)
    rows = iter_generate_table_rows(
        table_schema,
        table_plan.data_columns,
        table_plan.foreign_key_rules,
        node_rows,
        key_aliases=key_aliases,
    )
    return merger.iter_merge(table_schema.name, rows)


def run_chunk(
    plan: MigrationPlan,
    executions: Dict[str, ExecutionPlan],
    tree: HDT,
    merger: ChunkMerger,
    emit: Callable[[str, Iterator[Row]], object],
) -> None:
    """How one chunk of a document becomes rows in a sink — the one kernel
    under whole-tree, streamed and sharded execution.

    For each table in foreign-key dependency order: build the fused row
    stream, hand it to ``emit(table_name, rows)`` (which must exhaust it),
    then fold the keys the stream dropped into ``merger`` so the next table's
    foreign-key references resolve.  ``merger`` carries the state across the
    chunks of one execution; ``executions`` is
    :func:`compile_plan_executions` of ``plan``.
    """
    for table_schema in plan.execution_order():
        name = table_schema.name
        key_aliases: Dict[str, str] = {}
        emit(
            name,
            stream_table_rows(
                table_schema, plan.table_plan(name), tree, merger, key_aliases, executions[name]
            ),
        )
        merger.absorb_aliases(name, key_aliases)


def run_serial(
    plan: MigrationPlan,
    trees: Iterable[HDT],
    backend: Optional[ExecutionBackend] = None,
) -> ExecutionReport:
    """The serial driver: begin → every tree through :func:`run_chunk` →
    finalize, all in this process.

    :func:`execute_plan` is the one-tree case and
    :func:`~repro.runtime.streaming.stream_execute` the many-chunk case.  Any
    failure aborts the backend: ``close()`` before ``finalize()`` lets it
    release resources and scrub this run's partial output (``close()`` is
    idempotent, so callers that also clean up are unaffected).
    """
    backend = backend if backend is not None else MemoryBackend()
    start = time.perf_counter()
    counts = {t.name: 0 for t in plan.schema.tables}
    report = ExecutionReport(backend=backend, per_table_rows=counts, chunks=0)

    def emit(table_name: str, rows: Iterator[Row]) -> None:
        counts[table_name] += backend.insert_rows(table_name, rows)

    try:
        backend.begin(plan.schema)
        merger = ChunkMerger(plan.schema)
        executions = compile_plan_executions(plan)  # once per plan, not per chunk
        for tree in trees:
            run_chunk(plan, executions, tree, merger, emit)
            report.chunks += 1
        backend.finalize()
    except BaseException:
        try:
            backend.close()
        except Exception:
            pass  # the failure being propagated is the one worth reporting
        raise
    report.execution_time = time.perf_counter() - start
    return report


def execute_plan(
    plan: MigrationPlan,
    dataset: HDT,
    backend: Optional[ExecutionBackend] = None,
) -> ExecutionReport:
    """Execute a plan on a fully-materialized document.

    Every table runs as a generator pipeline: node tuples stream out of the
    fused executor, through key generation and merging, straight into the
    backend — peak memory is the column scans plus hash indexes (linear in
    the document), never an intermediate tuple list.

    Returns an :class:`ExecutionReport`; the populated storage is reachable
    through ``report.backend`` (e.g. ``report.backend.database`` for the
    memory backend).

    Examples
    --------
    >>> from repro.datasets import dblp
    >>> from repro.runtime import MigrationPlan, execute_plan
    >>> bundle = dblp.dataset(scale=2)
    >>> plan = MigrationPlan.learn(bundle.migration_spec())
    >>> report = execute_plan(plan, bundle.generate(2))
    >>> report.per_table_rows["journal"]
    1
    """
    return run_serial(plan, (dataset,), backend)


def canonical_table_rows(
    schema: DatabaseSchema, rows_by_table: Dict[str, Sequence[Row]]
) -> Dict[str, List[Row]]:
    """Rows with surrogate keys renamed to deterministic first-occurrence ids.

    Surrogate keys are injective but arbitrary (they embed process-local node
    uids), so two runs of the same migration produce equal databases only *up
    to a renaming* of the generated keys.  This helper applies that renaming:
    each generated key becomes ``"<table>:<n>"`` in order of first appearance,
    and foreign-key columns are rewritten through the same mapping.  Natural
    -key tables are returned untouched.  Two executions are equivalent iff
    their canonical forms are equal.
    """
    by_name = {t.name: t for t in schema.tables}
    renaming: Dict[str, Dict[Scalar, str]] = {t.name: {} for t in schema.tables}
    canonical: Dict[str, List[Row]] = {}
    for table_schema in schema.topological_order():
        rows = list(rows_by_table.get(table_schema.name, []))
        if table_schema.natural_keys:
            canonical[table_schema.name] = rows
            continue
        names = table_schema.column_names
        pk_index = (
            names.index(table_schema.primary_key)
            if table_schema.primary_key is not None
            else None
        )
        fk_indices = {
            names.index(fk.column): fk.target_table for fk in table_schema.foreign_keys
        }
        out: List[Row] = []
        for row in rows:
            new_row = list(row)
            if pk_index is not None:
                mapping = renaming[table_schema.name]
                if row[pk_index] not in mapping:
                    mapping[row[pk_index]] = f"{table_schema.name}:{len(mapping)}"
                new_row[pk_index] = mapping[row[pk_index]]
            for index, target in fk_indices.items():
                value = row[index]
                if value is None:
                    continue
                target_schema = by_name[target]
                if target_schema.natural_keys:
                    continue
                new_row[index] = renaming[target].get(value, value)
            out.append(tuple(new_row))
        canonical[table_schema.name] = out
    return canonical


def canonical_database_rows(database: Database) -> Dict[str, List[Row]]:
    """Canonical form (see :func:`canonical_table_rows`) of a loaded database."""
    return canonical_table_rows(
        database.schema,
        {name: table.rows for name, table in database.tables.items()},
    )
