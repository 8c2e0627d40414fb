"""The :class:`MigrationPlan` artifact — "learn once, run on the full dataset".

A plan bundles everything a migration needs at *execution* time and nothing it
only needs at *learning* time: the target :class:`DatabaseSchema`, one
synthesized :class:`~repro.dsl.ast.Program` per table, the per-table data
columns, and the learned :class:`~repro.migration.keys.ForeignKeyRule`s.
Synthesis artifacts (example alignments, search statistics) are deliberately
dropped, so a plan is small, JSON-serializable and independent of the example
document it was learned from.

Plans are the currency of the runtime layer: :func:`MigrationPlan.learn`
produces one, :mod:`repro.runtime.plan_cache` stores them on disk keyed by a
spec fingerprint, and :mod:`repro.runtime.executor` /
:mod:`repro.runtime.streaming` execute them against fresh datasets without
ever touching the synthesizer again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import __version__
from ..dsl.ast import Program
from ..dsl.serialize import (
    SerializationError,
    foreign_key_rule_from_json,
    foreign_key_rule_to_json,
    program_from_json,
    program_to_json,
    schema_from_json,
    schema_to_json,
)
from ..migration.engine import MigrationEngine, MigrationSpec, TableProgram
from ..migration.keys import ForeignKeyRule
from ..relational.schema import DatabaseSchema, TableSchema

PLAN_FORMAT_VERSION = 1


@dataclass
class TablePlan:
    """The executable artifact for one target table."""

    table: str
    program: Program
    data_columns: List[str]
    foreign_key_rules: List[ForeignKeyRule] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "program": program_to_json(self.program),
            "data_columns": list(self.data_columns),
            "foreign_key_rules": [foreign_key_rule_to_json(r) for r in self.foreign_key_rules],
        }

    @staticmethod
    def from_json(payload: dict) -> "TablePlan":
        return TablePlan(
            table=payload["table"],
            program=program_from_json(payload["program"]),
            data_columns=list(payload["data_columns"]),
            foreign_key_rules=[
                foreign_key_rule_from_json(r) for r in payload.get("foreign_key_rules", [])
            ],
        )


@dataclass
class MigrationPlan:
    """A complete, durable migration program for one target database."""

    schema: DatabaseSchema
    tables: Dict[str, TablePlan]
    source_format: Optional[str] = None
    """``"xml"`` or ``"json"`` when known — used by the CLI to pick a parser."""

    metadata: Dict[str, str] = field(default_factory=dict)
    """Free-form provenance (spec fingerprint, creation tool, ...)."""

    def __post_init__(self) -> None:
        missing = [t.name for t in self.schema.tables if t.name not in self.tables]
        if missing:
            raise SerializationError(f"plan is missing programs for tables: {missing}")

    # ------------------------------------------------------------- queries
    def table_plan(self, name: str) -> TablePlan:
        return self.tables[name]

    def execution_order(self) -> List[TableSchema]:
        """Table schemas in foreign-key dependency order."""
        return self.schema.topological_order()

    def content_fingerprint(self) -> str:
        """A stable digest of the plan's executable content.

        Covers the schema, every program, the data columns and the key rules
        — everything that determines what an execution produces — but not
        free-form ``metadata`` or the generator version, so re-learning an
        unchanged spec keeps the fingerprint stable.  The sharded runtime
        stamps it into shard spill manifests so a reducer can never merge
        worker output produced by a different plan
        (:mod:`repro.runtime.sharded`).
        """
        payload = self.to_json()
        payload.pop("metadata", None)
        payload.pop("generator", None)
        rendered = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:16]

    def restrict(self, table_names) -> "MigrationPlan":
        """A sub-plan migrating only the given tables.

        The subset must be closed under foreign-key references (schema
        validation raises otherwise).  Useful for partial migrations and for
        excluding tables whose synthesized programs are too expensive for a
        given execution budget.
        """
        names = set(table_names)
        unknown = names - set(self.schema.table_names)
        if unknown:
            raise SerializationError(f"unknown tables in restriction: {sorted(unknown)}")
        sub_schema = DatabaseSchema(
            name=self.schema.name,
            tables=[t for t in self.schema.tables if t.name in names],
        )
        return MigrationPlan(
            schema=sub_schema,
            tables={name: self.tables[name] for name in self.tables if name in names},
            source_format=self.source_format,
            metadata={**self.metadata, "restricted_to": ",".join(sorted(names))},
        )

    # ------------------------------------------------------------ learning
    @staticmethod
    def learn(
        spec: MigrationSpec,
        engine: Optional[MigrationEngine] = None,
        *,
        jobs: int = 1,
    ) -> "MigrationPlan":
        """Run synthesis once and package the result as a durable plan.

        ``jobs`` fans independent per-table synthesis out over processes when
        no explicit engine is given (``0`` = CPU count); the learned plan is
        identical regardless of parallelism.  To re-synthesize only the
        tables an edit affected, use
        :func:`repro.runtime.incremental.learn_incremental`, which learns the
        byte-identical plan.

        Example
        -------
        >>> from repro.datasets import dblp
        >>> plan = MigrationPlan.learn(dblp.dataset().migration_spec())
        >>> sorted(plan.tables)[:2]
        ['article', 'article_author']
        """
        engine = engine if engine is not None else MigrationEngine(jobs=jobs)
        programs, _ = engine.learn(spec)
        return MigrationPlan.from_programs(spec.schema, programs)

    @staticmethod
    def from_programs(
        schema: DatabaseSchema, programs: Dict[str, TableProgram]
    ) -> "MigrationPlan":
        """Package the output of :meth:`MigrationEngine.learn` as a plan."""
        return MigrationPlan(
            schema=schema,
            tables={
                name: TablePlan(
                    table=name,
                    program=tp.program,
                    data_columns=list(tp.data_columns),
                    foreign_key_rules=list(tp.foreign_key_rules),
                )
                for name, tp in programs.items()
            },
        )

    # ------------------------------------------------------- serialization
    def to_json(self) -> dict:
        return {
            "kind": "migration_plan",
            "version": PLAN_FORMAT_VERSION,
            "generator": f"repro {__version__}",
            "schema": schema_to_json(self.schema),
            "source_format": self.source_format,
            "metadata": dict(self.metadata),
            "tables": [self.tables[t.name].to_json() for t in self.schema.tables],
        }

    @staticmethod
    def from_json(payload: dict) -> "MigrationPlan":
        if not isinstance(payload, dict) or payload.get("kind") != "migration_plan":
            raise SerializationError("payload is not a serialized migration plan")
        version = payload.get("version", PLAN_FORMAT_VERSION)
        if version > PLAN_FORMAT_VERSION:
            raise SerializationError(
                f"plan format version {version} is newer than supported "
                f"({PLAN_FORMAT_VERSION})"
            )
        tables = [TablePlan.from_json(t) for t in payload["tables"]]
        return MigrationPlan(
            schema=schema_from_json(payload["schema"]),
            tables={t.table: t for t in tables},
            source_format=payload.get("source_format"),
            metadata=dict(payload.get("metadata", {})),
        )

    def dumps(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @staticmethod
    def loads(text: str) -> "MigrationPlan":
        return MigrationPlan.from_json(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())
            handle.write("\n")

    @staticmethod
    def load(path: str) -> "MigrationPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return MigrationPlan.loads(handle.read())
