"""The spec-diff layer: what changed between two migration specs?

Schemas evolve one table or column at a time, but the plan cache is
all-or-nothing: any edit changes the spec fingerprint and forces a full
re-synthesis.  This module compares an edited spec against a cached one and
computes, per table, exactly how much of the cached plan is still valid:

* **program reuse** — a table's synthesized program depends only on the
  example tree and the table's *data rows* (the example rows projected onto
  its data columns).  If those are unchanged, the cold synthesis would
  reproduce the cached program bit for bit, so the program is reused.
* **key reuse** — a table's foreign-key rules additionally depend on its full
  example rows (the symbolic key labels) and on the ``label → node tuple``
  alignments of every table it references.  They are reused only when the
  table *and all its FK targets* are unchanged (modulo renaming); otherwise
  the cheap key-learning step reruns while the expensive program synthesis is
  still skipped.

Renames are detected structurally: a table that disappeared under its old
name is matched to a new table with identical columns, keys and example rows
(foreign-key targets compared through the rename map, so renaming a *target*
does not invalidate its referrers).  The same reasoning powers the
"key rules changed" case — adding or dropping a foreign key changes a
table's data columns only if the FK column was previously a data column, so
program reuse is decided by data-row equality, never by schema syntax.

Because every reuse decision mirrors an invariant of the learner ("same
task → same program"), an incremental learn assembled from this diff is
**byte-identical** to a cold learn of the edited spec — the property enforced
by ``tests/test_incremental.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..hdt.node import Scalar
from ..migration.engine import MigrationSpec
from ..migration.keys import ForeignKeyRule
from ..relational.schema import DatabaseSchema, TableSchema
from .plan import MigrationPlan, TablePlan

Row = Tuple[Scalar, ...]

#: Table statuses, from most to least reusable.
UNCHANGED = "unchanged"
RENAMED = "renamed"
CHANGED = "changed"
ADDED = "added"


@dataclass
class TableChange:
    """The diff verdict for one table of the *edited* spec."""

    table: str
    status: str
    source: Optional[str] = None
    """The cached table this one maps to (``None`` for added tables)."""

    reuse_program: bool = False
    """The cached program would be re-learned identically — skip synthesis."""

    reuse_keys: bool = False
    """The cached foreign-key rules are still valid — skip key learning too."""


@dataclass
class SpecDiff:
    """A complete comparison of an edited spec against a cached one."""

    tables: Dict[str, TableChange]
    """Verdict per table of the edited spec, keyed by (new) table name."""

    removed: List[str] = field(default_factory=list)
    """Cached tables with no counterpart in the edited spec."""

    # ------------------------------------------------------------- queries
    def names_with_status(self, status: str) -> List[str]:
        return [name for name, c in self.tables.items() if c.status == status]

    @property
    def added(self) -> List[str]:
        return self.names_with_status(ADDED)

    @property
    def changed(self) -> List[str]:
        return self.names_with_status(CHANGED)

    @property
    def unchanged(self) -> List[str]:
        return self.names_with_status(UNCHANGED)

    @property
    def renamed(self) -> Dict[str, str]:
        """``new name → old name`` for every detected rename."""
        return {
            name: change.source
            for name, change in self.tables.items()
            if change.status == RENAMED and change.source is not None
        }

    @property
    def reusable_programs(self) -> int:
        return sum(1 for c in self.tables.values() if c.reuse_program)

    def identical(self) -> bool:
        """True when nothing needs re-learning (every table fully reused)."""
        return not self.removed and all(
            c.status == UNCHANGED and c.reuse_keys for c in self.tables.values()
        )

    def summary(self) -> str:
        """One-line human summary for CLI cache-hit reporting."""
        total = len(self.tables)
        parts = [f"{self.reusable_programs}/{total} programs reused"]
        if self.renamed:
            parts.append(f"{len(self.renamed)} renamed")
        if self.added:
            parts.append(f"{len(self.added)} added")
        if self.changed:
            parts.append(f"{len(self.changed)} changed")
        if self.removed:
            parts.append(f"{len(self.removed)} removed")
        return ", ".join(parts)


# --------------------------------------------------------------------------- #
# Normalization helpers
# --------------------------------------------------------------------------- #


def _rows_key(rows: Sequence[Row]) -> str:
    """Exact (repr-level) row-list identity — ``True`` and ``1`` stay distinct,
    matching how :func:`~repro.runtime.plan_cache.spec_fingerprint` hashes rows."""
    return repr([tuple(row) for row in rows])


def _data_rows_key(table: TableSchema, rows: Sequence[Row]) -> Optional[str]:
    """The rows projected onto the table's data columns — the synthesis task."""
    names = table.column_names
    try:
        indices = [names.index(c) for c in table.data_columns()]
    except ValueError:  # pragma: no cover - schema validation prevents this
        return None
    return repr([tuple(row[i] for i in indices) for row in rows])


def _columns_shape(table: TableSchema) -> Tuple:
    """Column layout including names (renaming a column is a change)."""
    return tuple((c.name, c.dtype, c.nullable) for c in table.columns)


def _keys_shape(table: TableSchema, rename: Dict[str, str]) -> Tuple:
    """Key structure with FK targets mapped through ``old → new`` renames."""
    return (
        table.primary_key,
        table.natural_keys,
        tuple(
            (fk.column, rename.get(fk.target_table, fk.target_table), fk.target_column)
            for fk in table.foreign_keys
        ),
    )


def _match_shape(table: TableSchema) -> Tuple:
    """Rename-candidate signature: everything except the name and FK targets."""
    return (
        _columns_shape(table),
        table.primary_key,
        table.natural_keys,
        tuple((fk.column, fk.target_column) for fk in table.foreign_keys),
    )


# --------------------------------------------------------------------------- #
# The diff
# --------------------------------------------------------------------------- #


def diff_specs(
    old_schema: DatabaseSchema,
    old_examples: Dict[str, List[Row]],
    new_spec: MigrationSpec,
) -> SpecDiff:
    """Compare an edited spec against a cached (schema, example-rows) snapshot.

    The example *tree* is assumed identical — the caller
    (:class:`~repro.runtime.context_store.ContextStore`) only pairs specs with
    the same example-tree fingerprint.
    """
    new_schema = new_spec.schema
    new_examples = {
        example.table: example.rows for example in new_spec.table_examples
    }
    old_tables = {t.name: t for t in old_schema.tables}
    new_tables = {t.name: t for t in new_schema.tables}

    # Pass 1: pair tables — same name first, then structural rename matching
    # among the leftovers (unique signature + example-row matches only).
    source_of: Dict[str, str] = {
        name: name for name in new_tables if name in old_tables
    }
    spare_old = [name for name in old_tables if name not in new_tables]
    spare_new = [name for name in new_tables if name not in old_tables]
    for new_name in spare_new:
        new_table = new_tables[new_name]
        rows = new_examples.get(new_name, [])
        candidates = [
            old_name
            for old_name in spare_old
            if _match_shape(old_tables[old_name]) == _match_shape(new_table)
            and _rows_key(old_examples.get(old_name, [])) == _rows_key(rows)
        ]
        if len(candidates) == 1:
            source_of[new_name] = candidates[0]
            spare_old.remove(candidates[0])

    rename = {old: new for new, old in source_of.items()}

    # Pass 2: classify each paired table with FK targets mapped through the
    # complete rename map (a renamed *target* must not dirty its referrers).
    changes: Dict[str, TableChange] = {}
    for new_name, new_table in new_tables.items():
        old_name = source_of.get(new_name)
        if old_name is None:
            changes[new_name] = TableChange(table=new_name, status=ADDED)
            continue
        old_table = old_tables[old_name]
        old_rows = old_examples.get(old_name, [])
        new_rows = new_examples.get(new_name, [])
        equivalent = (
            _columns_shape(old_table) == _columns_shape(new_table)
            and _keys_shape(old_table, rename) == _keys_shape(new_table, {})
            and _rows_key(old_rows) == _rows_key(new_rows)
        )
        if equivalent:
            status = UNCHANGED if old_name == new_name else RENAMED
            changes[new_name] = TableChange(
                table=new_name, status=status, source=old_name, reuse_program=True
            )
        else:
            reuse_program = _data_rows_key(old_table, old_rows) == _data_rows_key(
                new_table, new_rows
            )
            changes[new_name] = TableChange(
                table=new_name,
                status=CHANGED,
                source=old_name,
                reuse_program=reuse_program,
            )

    # Pass 3: key reuse — the table and every FK target must be equivalent.
    stable = {
        name for name, c in changes.items() if c.status in (UNCHANGED, RENAMED)
    }
    for new_name in stable:
        targets = {fk.target_table for fk in new_tables[new_name].foreign_keys}
        changes[new_name].reuse_keys = targets.issubset(stable)

    removed = sorted(set(old_tables) - set(source_of.values()))
    return SpecDiff(tables=changes, removed=removed)


def reusable_plans(
    diff: SpecDiff, old_plan: MigrationPlan, new_schema: DatabaseSchema
) -> Tuple[Dict[str, TablePlan], Set[str]]:
    """Turn a diff into the ``reuse`` arguments of :meth:`MigrationEngine.learn`.

    Returns ``(reuse, reuse_keys)``: per reusable table a :class:`TablePlan`
    carrying the cached program (renamed tables get their foreign-key rules'
    ``target_table`` rewritten through the rename map), and the subset of
    table names whose key rules are reused verbatim — the engine re-learns
    keys for the rest.
    """
    rename = {old: new for new, old in diff.renamed.items()}
    reuse: Dict[str, TablePlan] = {}
    reuse_keys: Set[str] = set()
    for name, change in diff.tables.items():
        if not change.reuse_program or change.source is None:
            continue
        cached = old_plan.tables.get(change.source)
        if cached is None:
            continue
        rules: List[ForeignKeyRule] = []
        if change.reuse_keys:
            rules = [
                ForeignKeyRule(
                    column=rule.column,
                    target_table=rename.get(rule.target_table, rule.target_table),
                    links=list(rule.links),
                )
                for rule in cached.foreign_key_rules
            ]
            reuse_keys.add(name)
        reuse[name] = TablePlan(
            table=name,
            program=cached.program,
            data_columns=new_schema.table(name).data_columns(),
            foreign_key_rules=rules,
        )
    return reuse, reuse_keys
