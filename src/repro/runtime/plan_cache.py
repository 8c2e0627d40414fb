"""On-disk plan cache keyed by a fingerprint of the migration spec.

Synthesis is the expensive step of the pipeline — seconds to minutes per
table — while plan execution is linear in the data.  The cache makes the
"learn once" economics real for repeated CLI invocations: a
:class:`~repro.migration.engine.MigrationSpec` is fingerprinted over its
target schema, example document and example tables, and the learned
:class:`~repro.runtime.plan.MigrationPlan` is stored as JSON under that
fingerprint.  Any change to the spec (schema, example document content or
example rows) changes the fingerprint and forces a fresh synthesis; the full
dataset never participates in the fingerprint, so one plan serves any number
of documents with the learned shape.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from ..dsl.serialize import schema_to_json
from ..migration.engine import MigrationSpec
from .durable import write_durably
from .plan import MigrationPlan

DEFAULT_CACHE_DIR = ".repro-cache"


def spec_fingerprint(spec: MigrationSpec) -> str:
    """A stable hex digest identifying a migration spec's *learnable content*."""
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


class PlanCache:
    """A directory of ``<fingerprint>.plan.json`` files.

    Examples
    --------
    >>> import tempfile
    >>> from repro.datasets import dblp
    >>> spec = dblp.dataset(scale=2).migration_spec()
    >>> cache = PlanCache(tempfile.mkdtemp())
    >>> cache.load(spec) is None                # cold: a miss
    True
    >>> path = cache.store(spec, MigrationPlan.learn(spec))
    >>> cache.load(spec) is not None            # warm: served from disk
    True
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR) -> None:
        self.directory = directory

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{fingerprint}.plan.json")

    def load(self, spec: MigrationSpec) -> Optional[MigrationPlan]:
        """The cached plan for this spec, or ``None`` on a miss.

        A corrupt or unreadable cache file is treated as a miss (and removed)
        rather than an error: the cache must never be able to wedge the
        pipeline — the worst case is one redundant synthesis run.
        """
        path = self.path_for(spec_fingerprint(spec))
        if not os.path.exists(path):
            return None
        try:
            return MigrationPlan.load(path)
        except Exception:
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def store(self, spec: MigrationSpec, plan: MigrationPlan) -> str:
        """Persist a plan under the spec's fingerprint; returns the file path."""
        fingerprint = spec_fingerprint(spec)
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(fingerprint)
        plan.metadata.setdefault("spec_fingerprint", fingerprint)
        write_durably(path, lambda handle: handle.write(plan.dumps() + "\n"))
        return path
