"""The learn cache: an on-disk store of spec snapshots.

Every learn goes through this store — ``repro learn|migrate|verify``, a
service job, or a library call to
:func:`~repro.runtime.incremental.learn_incremental`.  A **spec snapshot** is
one completed learn: the spec's learnable content (schema, example rows) plus
the learned plan, addressed by the spec fingerprint and the configuration
fingerprint, and bucketed by the example tree's fingerprint.  A learn asks
the store twice:

* **exact hit** — :meth:`ContextStore.load_snapshot` reads the one file
  :meth:`ContextStore.snapshot_path` names for (spec, configuration); its
  plan is the answer, with no synthesis and no diff against other
  snapshots;
* **near hit** — :meth:`ContextStore.best_base` diffs the spec against every
  snapshot of the same example document and configuration
  (:mod:`repro.runtime.spec_diff`) and picks the one whose table programs
  and key rules are most reusable.

Synthesis learned under other search bounds is never reused, and the full
dataset never participates in any fingerprint, so one snapshot serves any
number of documents with the learned shape.

The store is failure-oblivious: corrupt or unreadable entries read as
misses (and are removed), writes go through a write-then-rename so an
interrupted run never leaves a truncated file, and the worst possible
outcome of any store problem is one redundant synthesis.

Example — the interactive schema-design loop this store serves::

    from repro.runtime import ContextStore, learn_incremental

    store = ContextStore(".repro-cache")
    plan, report = learn_incremental(spec, store)          # cold: full learn
    # ... user adds one table to the spec ...
    plan, report = learn_incremental(edited, store)        # warm: 1 table
    assert report.tables_synthesized == ["new_table"]
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dsl.serialize import (
    scalar_from_json,
    scalar_to_json,
    schema_from_json,
    schema_to_json,
)
from ..hdt.tree import HDT
from ..migration.engine import MigrationSpec
from ..relational.schema import DatabaseSchema
from ..synthesis.config import SynthesisConfig
from ..synthesis.serialize import config_fingerprint
from .durable import write_durably
from .plan import MigrationPlan
from .spec_diff import SpecDiff, diff_specs

DEFAULT_CACHE_DIR = ".repro-cache"

SNAPSHOT_FORMAT_VERSION = 1


def spec_fingerprint(spec: MigrationSpec) -> str:
    """A stable hex digest identifying a migration spec's *learnable content*:
    target schema, example document and example rows."""
    digest = hashlib.sha256()
    digest.update(
        json.dumps(schema_to_json(spec.schema), sort_keys=True).encode("utf-8")
    )
    for item in spec.example_tree.fingerprint_items():
        digest.update(item.encode("utf-8"))
        digest.update(b"\n")
    for example in spec.table_examples:
        digest.update(example.table.encode("utf-8"))
        digest.update(repr(example.rows).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class SpecSnapshot:
    """One completed learn: the spec's learnable content plus its plan."""

    fingerprint: str
    tree_fingerprint: str
    config_fingerprint: str
    schema: DatabaseSchema
    examples: Dict[str, List[tuple]]
    plan: MigrationPlan
    path: str = ""


class ContextStore:
    """A directory of spec snapshots.

    Layout::

        <dir>/specs/<tree fp prefix>/<spec fp>.<config fp prefix>.spec.json

    Examples
    --------
    >>> import tempfile
    >>> from repro.datasets import dblp
    >>> from repro.runtime import learn_incremental
    >>> spec = dblp.dataset(scale=2).migration_spec()
    >>> config = SynthesisConfig.for_migration()
    >>> store = ContextStore(tempfile.mkdtemp())
    >>> store.load_snapshot(spec, config) is None          # cold: a miss
    True
    >>> plan, report = learn_incremental(spec, store, config=config)
    >>> store.load_snapshot(spec, config).plan.tables.keys() == plan.tables.keys()
    True
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR) -> None:
        self.directory = directory

    def _specs_dir(self, tree_fingerprint: str) -> str:
        return os.path.join(self.directory, "specs", tree_fingerprint[:16])

    def snapshot_path(self, spec: MigrationSpec, config: SynthesisConfig) -> str:
        """Snapshots are keyed by (spec, config): learned programs depend on
        the search bounds, so the same spec learned under two configurations
        must produce two snapshots."""
        tree_fp = spec.example_tree.content_fingerprint()
        return os.path.join(
            self._specs_dir(tree_fp),
            f"{spec_fingerprint(spec)}.{config_fingerprint(config)[:16]}.spec.json",
        )

    def record_spec(
        self, spec: MigrationSpec, plan: MigrationPlan, config: SynthesisConfig
    ) -> str:
        """Snapshot a completed learn; returns the path."""
        payload = {
            "kind": "spec_snapshot",
            "version": SNAPSHOT_FORMAT_VERSION,
            "spec_fingerprint": spec_fingerprint(spec),
            "tree_fingerprint": spec.example_tree.content_fingerprint(),
            "config_fingerprint": config_fingerprint(config),
            "schema": schema_to_json(spec.schema),
            "examples": {
                example.table: [
                    [scalar_to_json(value) for value in row] for row in example.rows
                ]
                for example in spec.table_examples
            },
            "plan": plan.to_json(),
        }
        path = self.snapshot_path(spec, config)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        text = json.dumps(payload, sort_keys=True)
        write_durably(path, lambda handle: handle.write(text + "\n"))
        return path

    def load_snapshot(
        self, spec: MigrationSpec, config: SynthesisConfig
    ) -> Optional[SpecSnapshot]:
        """The exact hit: the snapshot of this very spec under this very
        configuration, read from the one file :meth:`snapshot_path` names, or
        ``None`` on a miss."""
        path = self.snapshot_path(spec, config)
        if not os.path.exists(path):
            return None
        return _read_snapshot(
            path, spec.example_tree.content_fingerprint(), config_fingerprint(config)
        )

    def snapshots_for(self, tree: HDT, config: SynthesisConfig) -> List[SpecSnapshot]:
        """Snapshots sharing the tree's fingerprint *and* the configuration,
        most recent first.  Programs learned under different search bounds
        are never candidates for reuse (the diff layer's byte-identity
        argument — "same task, same config → same program" — would not
        hold), so config mismatches are filtered here; snapshots without a
        recorded config (older format) are skipped the same way."""
        tree_fp = tree.content_fingerprint()
        directory = self._specs_dir(tree_fp)
        if not os.path.isdir(directory):
            return []
        config_fp = config_fingerprint(config)
        entries = sorted(
            (entry for entry in os.listdir(directory) if entry.endswith(".spec.json")),
            key=lambda entry: os.path.getmtime(os.path.join(directory, entry)),
            reverse=True,
        )
        snapshots = (
            _read_snapshot(os.path.join(directory, entry), tree_fp, config_fp)
            for entry in entries
        )
        return [snapshot for snapshot in snapshots if snapshot is not None]

    def best_base(
        self, spec: MigrationSpec, config: SynthesisConfig
    ) -> Optional[Tuple[SpecSnapshot, SpecDiff]]:
        """The snapshot that maximizes reuse for this spec, with its diff.

        Only snapshots learned under the same configuration participate.
        Ties break toward the most recent snapshot; a base from which nothing
        is reusable is no base at all (``None``).
        """
        best: Optional[Tuple[SpecSnapshot, SpecDiff]] = None
        best_score = 0
        for snapshot in self.snapshots_for(spec.example_tree, config):
            diff = diff_specs(snapshot.schema, snapshot.examples, spec)
            score = 2 * diff.reusable_programs + sum(
                1 for change in diff.tables.values() if change.reuse_keys
            )
            if score > best_score:
                best, best_score = (snapshot, diff), score
        return best


def _read_snapshot(path: str, tree_fp: str, config_fp: str) -> Optional[SpecSnapshot]:
    """The snapshot at ``path`` if it was learned on this tree under this
    configuration.  An unreadable or malformed file is removed and reads as
    a miss, like any other."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("kind") != "spec_snapshot":
            raise ValueError("not a spec snapshot")
        if payload.get("tree_fingerprint") != tree_fp:
            return None  # 16-char prefix collision: different document
        if payload.get("config_fingerprint") != config_fp:
            return None  # learned under different search bounds
        return SpecSnapshot(
            fingerprint=payload["spec_fingerprint"],
            tree_fingerprint=payload["tree_fingerprint"],
            config_fingerprint=payload["config_fingerprint"],
            schema=schema_from_json(payload["schema"]),
            examples={
                table: [tuple(scalar_from_json(value) for value in row) for row in rows]
                for table, rows in payload["examples"].items()
            },
            plan=MigrationPlan.from_json(payload["plan"]),
            path=path,
        )
    except Exception:
        try:
            os.remove(path)
        except OSError:
            pass
        return None
