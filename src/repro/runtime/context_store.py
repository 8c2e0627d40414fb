"""Content-addressed on-disk store for incremental synthesis state.

Sits next to the spec-hash plan cache and persists the two artifacts the
plan cache cannot express:

* **contexts** — serialized :class:`~repro.synthesis.context.SynthesisContext`
  caches (:mod:`repro.synthesis.serialize`), addressed by the content
  fingerprints of their example trees plus the configuration fingerprint.
  A later learn over the *same document* rehydrates per-tree facts, learned
  column-extractor lists, χi sets and predicate universes even when the
  target schema changed — exactly the caches that survive a spec edit.
* **spec snapshots** — the (schema, example rows, learned plan) of every
  completed learn, addressed by the spec fingerprint and bucketed by the
  example tree's fingerprint.  These are what the diff layer
  (:mod:`repro.runtime.spec_diff`) compares an edited spec against to decide
  which cached table programs are still valid.

Like the plan cache, the store is failure-oblivious: corrupt or unreadable
entries read as misses (and are removed), writes go through a
write-then-rename so interrupted runs never leave truncated files, and the
worst possible outcome of any store problem is one redundant synthesis.

Example — the interactive schema-design loop this store enables::

    from repro.runtime import ContextStore, learn_incremental

    store = ContextStore(".repro-cache/context")
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
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.serialize import (
    SerializationError,
    scalar_from_json,
    scalar_to_json,
    schema_from_json,
    schema_to_json,
)
from ..hdt.tree import HDT
from ..migration.engine import MigrationSpec
from ..relational.schema import DatabaseSchema
from ..synthesis.config import SynthesisConfig
from ..synthesis.context import SynthesisContext
from ..synthesis.serialize import (
    config_fingerprint,
    deserialize_context,
    serialize_context,
)
from .plan import MigrationPlan
from .plan_cache import DEFAULT_CACHE_DIR, spec_fingerprint
from .spec_diff import SpecDiff, diff_specs

DEFAULT_CONTEXT_DIR = os.path.join(DEFAULT_CACHE_DIR, "context")

SNAPSHOT_FORMAT_VERSION = 1


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


def _atomic_write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    temporary = f"{path}.tmp.{os.getpid()}"
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")
    os.replace(temporary, path)


class ContextStore:
    """A directory of context payloads and spec snapshots.

    Layout::

        <dir>/contexts/<context key>.ctx.json
        <dir>/specs/<tree fp prefix>/<spec fp>.spec.json
    """

    def __init__(self, directory: str = DEFAULT_CONTEXT_DIR) -> None:
        self.directory = directory

    # ------------------------------------------------------------- contexts
    def context_key(self, trees: Sequence[HDT], config: SynthesisConfig) -> str:
        """The content address of a context: its trees plus the search bounds."""
        digest = hashlib.sha256()
        for fingerprint in sorted(t.content_fingerprint() for t in trees):
            digest.update(fingerprint.encode("utf-8"))
        digest.update(config_fingerprint(config).encode("utf-8"))
        return digest.hexdigest()

    def context_path(self, key: str) -> str:
        return os.path.join(self.directory, "contexts", f"{key}.ctx.json")

    def load_context(
        self, trees: Sequence[HDT], config: SynthesisConfig
    ) -> Optional[SynthesisContext]:
        """The stored context for these trees and bounds, or ``None`` on a miss."""
        path = self.context_path(self.context_key(trees, config))
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            return deserialize_context(payload, trees)
        except (OSError, ValueError, SerializationError):
            # Unreadable, not JSON, or not a current-format context: a miss.
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def store_context(self, context: SynthesisContext) -> Optional[str]:
        """Persist a context under its content address; returns the file path.

        A context that has seen no trees, or is not bound to a configuration,
        has nothing worth addressing — ``None`` is returned and nothing is
        written.
        """
        trees = context.trees()
        config = context.config
        if not trees or config is None:
            return None
        path = self.context_path(self.context_key(trees, config))
        _atomic_write(path, json.dumps(serialize_context(context), sort_keys=True))
        return path

    # ------------------------------------------------------------ snapshots
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
        """Snapshot a completed learn for future diffing; returns the path."""
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
        _atomic_write(path, json.dumps(payload, sort_keys=True))
        return path

    def snapshots_for(self, tree: HDT, config: SynthesisConfig) -> List[SpecSnapshot]:
        """Snapshots sharing the tree's fingerprint *and* the configuration,
        most recent first.  Programs learned under different search bounds
        are never candidates for reuse (the diff layer's byte-identity
        argument — "same task, same config → same program" — would not
        hold), so config mismatches are filtered here; snapshots without a
        recorded config (older format) are skipped the same way."""
        directory = self._specs_dir(tree.content_fingerprint())
        if not os.path.isdir(directory):
            return []
        tree_fp = tree.content_fingerprint()
        config_fp = config_fingerprint(config)
        snapshots: List[SpecSnapshot] = []
        entries = sorted(
            (entry for entry in os.listdir(directory) if entry.endswith(".spec.json")),
            key=lambda entry: os.path.getmtime(os.path.join(directory, entry)),
            reverse=True,
        )
        for entry in entries:
            path = os.path.join(directory, entry)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if payload.get("kind") != "spec_snapshot":
                    raise ValueError("not a spec snapshot")
                if payload.get("tree_fingerprint") != tree_fp:
                    continue  # 16-char prefix collision: different document
                if payload.get("config_fingerprint") != config_fp:
                    continue  # learned under different search bounds
                snapshots.append(
                    SpecSnapshot(
                        fingerprint=payload["spec_fingerprint"],
                        tree_fingerprint=payload["tree_fingerprint"],
                        config_fingerprint=payload["config_fingerprint"],
                        schema=schema_from_json(payload["schema"]),
                        examples={
                            table: [
                                tuple(scalar_from_json(value) for value in row)
                                for row in rows
                            ]
                            for table, rows in payload["examples"].items()
                        },
                        plan=MigrationPlan.from_json(payload["plan"]),
                        path=path,
                    )
                )
            except Exception:
                try:
                    os.remove(path)
                except OSError:
                    pass
        return snapshots

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
