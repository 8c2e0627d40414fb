"""Whole-database migration (Section 6 and the Table 2 experiment).

The synthesis algorithm of Section 5 converts one document into one relational
table.  To migrate a dataset into a complete database, Mitra is invoked once
per target table and a post-processing step generates primary and foreign keys
so that the resulting database satisfies its key constraints.

This module orchestrates that process:

* :class:`TableExampleSpec` — the per-table input-output example.  Example rows
  follow the target schema's column order; primary- and foreign-key cells
  carry *symbolic labels* (e.g. ``"p1"``) that tie referencing rows to
  referenced rows, while data cells carry actual values from the example
  document, exactly like the examples a user would write.
* :class:`MigrationSpec` — the target schema plus one example document shared
  by the per-table examples.
* :class:`MigrationEngine` — synthesizes one program per table (data columns
  only) and learns foreign-key link rules from the example labels
  (:mod:`repro.migration.keys`).
* :func:`iter_generate_table_rows` — the key-generation step that turns a
  program's node tuples into schema-ordered rows.

Running the learned programs on a full dataset is the runtime's job:
:meth:`repro.runtime.plan.MigrationPlan.from_programs` packages them as a plan
and :func:`repro.runtime.executor.execute_plan` loads it into a backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..dsl.ast import Program
from ..dsl.semantics import NodeTuple
from ..hdt.node import Scalar
from ..hdt.tree import HDT
from ..optimizer.optimize import (
    DATA,
    IGNORED,
    TupleProjection,
    execute_nodes,
)
from ..relational.schema import DatabaseSchema, TableSchema
from ..synthesis.config import SynthesisConfig
from ..synthesis.predicate_learner import rows_equal
from ..synthesis.synthesizer import (
    ExamplePair,
    SynthesisResult,
    SynthesisTask,
    Synthesizer,
    resolve_jobs,
    synthesis_pool,
    worker_state,
)
from .keys import ForeignKeyRule, key_of, learn_link_rules


class MigrationError(Exception):
    """Raised when a table's program or key rules cannot be learned."""


#: Zero-duration placeholder for per-table timing when synthesis ran inline.
_NO_RESULT = SynthesisResult(program=None, success=False, synthesis_time=0.0)


def iter_generate_table_rows(
    schema: TableSchema,
    data_columns: Sequence[str],
    foreign_key_rules: Sequence[ForeignKeyRule],
    node_rows: Iterable[NodeTuple],
    *,
    key_aliases: Optional[Dict[str, str]] = None,
) -> Iterator[Tuple[Scalar, ...]]:
    """Stream a program's node tuples into schema-ordered, deduplicated rows.

    This is the single implementation of the paper's key-generation step
    (Section 6): natural-key tables take every column directly from the
    document (deduplicated on the primary key, or on the whole row when the
    table has no primary key); surrogate-key tables derive the primary key
    from the defining node tuple via :func:`~repro.migration.keys.key_of` and
    foreign keys via the learned :class:`ForeignKeyRule`s.

    ``node_rows`` may be any iterable — in particular the lazy tuple stream
    of :func:`repro.optimizer.optimize.iter_execute_nodes` — and rows are
    yielded as soon as they are decided, so the whole pipeline from document
    to backend runs in fixed memory.  For surrogate-key tables, pass a
    ``key_aliases`` dictionary to collect the keys dropped by content
    deduplication (each maps to the key that was kept); the mapping is
    complete once the generator is exhausted.
    """
    column_names = schema.column_names
    data_indices = {name: index for index, name in enumerate(data_columns)}
    fk_rules = {rule.column: rule for rule in foreign_key_rules}
    seen_keys: set = set()
    if schema.natural_keys:
        seen_rows: set = set()
        pk_index = (
            column_names.index(schema.primary_key)
            if schema.primary_key is not None
            else None
        )
        for node_row in node_rows:
            row = tuple(node_row[data_indices[name]].data for name in column_names)
            if pk_index is not None:
                pk_value = row[pk_index]
                if pk_value in seen_keys:
                    continue
                seen_keys.add(pk_value)
            elif row in seen_rows:
                continue
            else:
                seen_rows.add(row)
            yield row
        return
    seen_content: Dict[Tuple[Scalar, ...], str] = {}
    for node_row in node_rows:
        primary_key = key_of(node_row)
        if schema.primary_key is not None:
            if primary_key in seen_keys:
                continue
            seen_keys.add(primary_key)
        row: List[Scalar] = []
        for name in column_names:
            if name == schema.primary_key:
                row.append(primary_key)
            elif name in fk_rules:
                row.append(fk_rules[name].foreign_key_for(node_row))
            else:
                row.append(node_row[data_indices[name]].data)
        # Distinct node tuples can denote the same logical row when the
        # filter predicate relates columns by data value rather than node
        # identity; collapse them so the surrogate key stays one-per-row.
        content = tuple(
            value for name, value in zip(column_names, row) if name != schema.primary_key
        )
        if content in seen_content:
            if key_aliases is not None and schema.primary_key is not None:
                key_aliases[primary_key] = seen_content[content]
            continue
        seen_content[content] = primary_key
        yield tuple(row)


def consumed_projection(
    schema: TableSchema, data_columns: Sequence[str], arity: int
) -> Optional[TupleProjection]:
    """How :func:`iter_generate_table_rows` consumes a table's node tuples.

    Natural-key tables read only the *data* of the columns named in the
    schema (any extra program columns are never read), so the executor may
    collapse value-join groups to per-value representatives — the fused dedup
    that keeps e.g. the DBLP author link tables linear — and, when the table
    has a primary key, yield only the first tuple per key value (``key``), as
    this generator keeps only that one.  Surrogate-key tables
    consume node *identity* (the primary key hashes every node's uid and the
    dropped-key alias bookkeeping must see every collapsed tuple), so they
    get ``None`` — the exact tuple-level semantics.
    """
    if not schema.natural_keys:
        return None
    used = {
        index
        for index, name in enumerate(data_columns)
        if name in schema.column_names
    }
    return TupleProjection(
        tuple(DATA if index in used else IGNORED for index in range(arity)),
        key=None if schema.primary_key is None else data_columns.index(schema.primary_key),
    )


@dataclass
class TableExampleSpec:
    """Input-output example for one target table.

    ``rows`` follow the schema's column order.  Cells in the primary-key column
    and in foreign-key columns are symbolic labels; all other cells are data
    values appearing in the example document.
    """

    table: str
    rows: List[Tuple[Scalar, ...]]


@dataclass
class MigrationSpec:
    """A complete migration problem: schema, example document, per-table examples."""

    schema: DatabaseSchema
    example_tree: HDT
    table_examples: List[TableExampleSpec]

    def example_for(self, table: str) -> TableExampleSpec:
        for spec in self.table_examples:
            if spec.table == table:
                return spec
        raise MigrationError(f"no example provided for table {table!r}")


@dataclass
class TableProgram:
    """Everything learned for one target table."""

    schema: TableSchema
    program: Program
    synthesis: SynthesisResult
    data_columns: List[str]
    foreign_key_rules: List[ForeignKeyRule] = field(default_factory=list)
    label_to_nodes: Dict[Scalar, NodeTuple] = field(default_factory=dict)


def _table_data_rows(
    spec: MigrationSpec, table_schema: TableSchema
) -> List[Tuple[Scalar, ...]]:
    """The example rows projected onto the table's data columns."""
    example = spec.example_for(table_schema.name)
    data_columns = table_schema.data_columns()
    if not data_columns:
        raise MigrationError(
            f"table {table_schema.name!r} has no data columns to learn from"
        )
    column_names = table_schema.column_names
    data_indices = [column_names.index(c) for c in data_columns]
    return [tuple(row[i] for i in data_indices) for row in example.rows]


def _table_synthesis_task(
    spec: MigrationSpec, table_schema: TableSchema
) -> SynthesisTask:
    """The per-table synthesis problem: data columns of the example rows."""
    return SynthesisTask(
        examples=[ExamplePair(spec.example_tree, _table_data_rows(spec, table_schema))],
        name=f"table:{table_schema.name}",
    )


def _synthesize_table_worker(
    payload: Tuple[str, List[Tuple[Scalar, ...]]]
) -> Tuple[str, SynthesisResult]:
    """Process-pool entry point: synthesize one table's program.

    Runs in a :func:`~repro.synthesis.synthesizer.synthesis_pool` worker,
    against the worker's copy of the example tree and its long-lived
    synthesizer, whose caches every table the worker handles shares; only
    the (picklable) :class:`SynthesisResult` travels back.  Example-row
    alignment and foreign-key learning stay in the parent, where node
    identities refer to the parent's tree.
    """
    name, data_rows = payload
    synthesizer, (tree,) = worker_state()
    task = SynthesisTask(
        examples=[ExamplePair(tree, data_rows)], name=f"table:{name}"
    )
    return name, synthesizer.synthesize(task)


class MigrationEngine:
    """Synthesize a program and key rules for every table of a target schema.

    The default configuration is :meth:`SynthesisConfig.for_migration`, which
    disables constant predicates: the hidden links of normalized database
    schemas are structural, and tiny per-table examples would otherwise make
    constant comparisons look spuriously attractive to the Occam's-razor
    ranking.

    ``jobs`` controls per-table synthesis parallelism: tables are independent
    synthesis problems, so with ``jobs > 1`` they are fanned out over a
    :func:`~repro.synthesis.synthesizer.synthesis_pool` (``jobs=0`` uses the
    CPU count).  Key-rule learning runs in the parent afterwards — it aligns
    example rows against the parent's tree — and the learned programs are
    identical to a serial run.  When only one table needs synthesis, the
    worker budget is spent *inside* the synthesizer instead: its candidate
    table extractors are evaluated in parallel (see
    :class:`~repro.synthesis.synthesizer.Synthesizer`), again with
    byte-identical results.

    The ``reuse`` arguments of :meth:`learn` skip synthesis for tables whose
    cached programs are still valid — the substrate of
    :func:`repro.runtime.incremental.learn_incremental`.
    """

    def __init__(
        self,
        config: Optional[SynthesisConfig] = None,
        *,
        jobs: int = 1,
    ) -> None:
        self.config = config if config is not None else SynthesisConfig.for_migration()
        self.workers = resolve_jobs(jobs)
        self.synthesizer = Synthesizer(self.config)

    # ------------------------------------------------------------ synthesis
    def learn(
        self,
        spec: MigrationSpec,
        *,
        reuse: Optional[Dict[str, object]] = None,
        reuse_keys: Optional[set] = None,
    ) -> Tuple[Dict[str, TableProgram], Dict[str, float]]:
        """Learn a program and key rules for every table of the target schema.

        ``reuse`` maps table names to cached executable artifacts (anything
        with ``program``, ``data_columns`` and ``foreign_key_rules``, e.g. a
        :class:`~repro.runtime.plan.TablePlan`) whose programs are known to be
        re-learnable bit-for-bit — synthesis is skipped for them.  Tables also
        listed in ``reuse_keys`` keep their cached foreign-key rules; the rest
        re-run the (cheap) key-learning step against the example tree, which
        is required whenever a referenced table's program changed.  The
        example-row → node-tuple alignments are always recomputed so that
        fresh tables can learn foreign keys *into* reused ones.
        """
        reuse = reuse or {}
        reuse_keys = reuse_keys or set()
        results = self._synthesis_results(spec, skip=set(reuse))
        programs: Dict[str, TableProgram] = {}
        per_table_time: Dict[str, float] = {}
        for table_schema in spec.schema.topological_order():
            start = time.perf_counter()
            if table_schema.name in reuse:
                programs[table_schema.name] = self._reuse_table(
                    spec,
                    table_schema,
                    reuse[table_schema.name],
                    table_schema.name in reuse_keys,
                    programs,
                )
            else:
                programs[table_schema.name] = self._learn_table(
                    spec, table_schema, programs, results.get(table_schema.name)
                )
            per_table_time[table_schema.name] = (
                time.perf_counter() - start
            ) + results.get(table_schema.name, _NO_RESULT).synthesis_time
        return programs, per_table_time

    def _synthesis_results(
        self, spec: MigrationSpec, skip: Optional[set] = None
    ) -> Dict[str, SynthesisResult]:
        """Phase 1: per-table program synthesis, serial or process-parallel."""
        if self.workers == 1:
            return {}
        tables = [
            table_schema
            for table_schema in spec.schema.topological_order()
            if not skip or table_schema.name not in skip
        ]
        if not tables:
            return {}
        if len(tables) == 1:
            # A table-level pool is useless for a single table; fan out over
            # its candidate table extractors instead.  The candidate stage is
            # deterministic, so the program is identical to a serial run.
            synthesizer = Synthesizer(
                self.config, context=self.synthesizer.context, jobs=self.workers
            )
            table_schema = tables[0]
            return {
                table_schema.name: synthesizer.synthesize(
                    _table_synthesis_task(spec, table_schema)
                )
            }
        payloads = [
            (table_schema.name, _table_data_rows(spec, table_schema))
            for table_schema in tables
        ]
        results: Dict[str, SynthesisResult] = {}
        with synthesis_pool(
            [spec.example_tree], self.config, min(self.workers, len(tables))
        ) as pool:
            for name, result in pool.map(_synthesize_table_worker, payloads):
                results[name] = result
        return results

    def _reuse_table(
        self,
        spec: MigrationSpec,
        table_schema: TableSchema,
        cached,
        keys_reused: bool,
        learned: Dict[str, TableProgram],
    ) -> TableProgram:
        """Rebuild a :class:`TableProgram` from a cached plan entry.

        The program (the expensive artifact) is taken as-is; the example-row
        alignment is recomputed against *this* process's example tree so node
        identities line up for any key learning that still has to run —
        either this table's own (when ``keys_reused`` is false) or that of a
        fresh table referencing this one.
        """
        result = SynthesisResult(
            program=cached.program,
            success=True,
            synthesis_time=0.0,
            message="reused from cached plan",
        )
        table_program = TableProgram(
            schema=table_schema,
            program=cached.program,
            synthesis=result,
            data_columns=list(cached.data_columns),
        )
        if not table_schema.natural_keys:
            example = spec.example_for(table_schema.name)
            column_names = table_schema.column_names
            data_indices = [
                column_names.index(c) for c in table_program.data_columns
            ]
            table_program.label_to_nodes = self._match_example_rows(
                spec, table_schema, example, cached.program, data_indices
            )
            if keys_reused:
                table_program.foreign_key_rules = list(cached.foreign_key_rules)
            else:
                table_program.foreign_key_rules = self._learn_foreign_keys(
                    spec, table_schema, example, table_program, learned
                )
        return table_program

    def _learn_table(
        self,
        spec: MigrationSpec,
        table_schema: TableSchema,
        learned: Dict[str, TableProgram],
        result: Optional[SynthesisResult] = None,
    ) -> TableProgram:
        example = spec.example_for(table_schema.name)
        data_columns = table_schema.data_columns()
        column_names = table_schema.column_names
        data_indices = [column_names.index(c) for c in data_columns]
        if not data_columns:
            raise MigrationError(
                f"table {table_schema.name!r} has no data columns to learn from"
            )

        if result is None:
            task = _table_synthesis_task(spec, table_schema)
            result = self.synthesizer.synthesize(task)
        if not result.success or result.program is None:
            raise MigrationError(
                f"failed to synthesize a program for table {table_schema.name!r}: "
                f"{result.message}"
            )

        table_program = TableProgram(
            schema=table_schema,
            program=result.program,
            synthesis=result,
            data_columns=data_columns,
        )
        if not table_schema.natural_keys:
            table_program.label_to_nodes = self._match_example_rows(
                spec, table_schema, example, result.program, data_indices
            )
            table_program.foreign_key_rules = self._learn_foreign_keys(
                spec, table_schema, example, table_program, learned
            )
        return table_program

    def _match_example_rows(
        self,
        spec: MigrationSpec,
        table_schema: TableSchema,
        example: TableExampleSpec,
        program: Program,
        data_indices: List[int],
    ) -> Dict[Scalar, NodeTuple]:
        """Associate each example row's primary-key label with its node tuple."""
        node_rows = execute_nodes(program, spec.example_tree)
        label_to_nodes: Dict[Scalar, NodeTuple] = {}
        if table_schema.primary_key is None:
            return label_to_nodes
        pk_index = table_schema.column_names.index(table_schema.primary_key)
        used: set = set()
        for row in example.rows:
            expected = tuple(row[i] for i in data_indices)
            label = row[pk_index]
            for position, node_row in enumerate(node_rows):
                if position in used:
                    continue
                produced = tuple(node.data for node in node_row)
                if rows_equal(produced, expected):
                    label_to_nodes[label] = node_row
                    used.add(position)
                    break
        return label_to_nodes

    def _learn_foreign_keys(
        self,
        spec: MigrationSpec,
        table_schema: TableSchema,
        example: TableExampleSpec,
        table_program: TableProgram,
        learned: Dict[str, TableProgram],
    ) -> List[ForeignKeyRule]:
        """Learn one :class:`ForeignKeyRule` per foreign-key column of the table."""
        rules: List[ForeignKeyRule] = []
        column_names = table_schema.column_names
        pk_index = (
            column_names.index(table_schema.primary_key)
            if table_schema.primary_key is not None
            else None
        )
        for fk in table_schema.foreign_keys:
            target_program = learned.get(fk.target_table)
            if target_program is None:
                raise MigrationError(
                    f"table {table_schema.name!r} references {fk.target_table!r}, "
                    "which has not been learned yet (schema is not topologically ordered)"
                )
            fk_index = column_names.index(fk.column)
            pairs: List[Tuple[NodeTuple, NodeTuple]] = []
            for row in example.rows:
                fk_label = row[fk_index]
                if fk_label is None:
                    continue
                if pk_index is None:
                    continue
                own_label = row[pk_index]
                own_nodes = table_program.label_to_nodes.get(own_label)
                target_nodes = target_program.label_to_nodes.get(fk_label)
                if own_nodes is None or target_nodes is None:
                    raise MigrationError(
                        f"could not align example rows for foreign key "
                        f"{table_schema.name}.{fk.column} -> {fk.target_table}"
                    )
                pairs.append((own_nodes, target_nodes))
            links = learn_link_rules(pairs)
            if links is None:
                raise MigrationError(
                    f"failed to learn link rules for foreign key "
                    f"{table_schema.name}.{fk.column} -> {fk.target_table}"
                )
            rules.append(ForeignKeyRule(fk.column, fk.target_table, links))
        return rules
