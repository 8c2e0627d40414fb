"""The one learn path: synthesize only what the spec store cannot answer.

Every learn — ``repro learn|migrate|verify``, a service job, or a library
call — is :func:`learn_incremental` against a
:class:`~repro.runtime.context_store.ContextStore` (or against no store at
all, for ``--no-cache``).  It asks the store in order:

1. **exact hit** — a snapshot of this very spec under this configuration:
   its plan is returned as it is, after reading one file;
2. **near hit** — the best stored snapshot of the same example document
   (:meth:`~repro.runtime.context_store.ContextStore.best_base`), diffed
   against the spec (:func:`~repro.runtime.spec_diff.diff_specs`) to find
   tables whose programs — and possibly key rules — are still valid; only
   the other tables are synthesized (fanned out over ``jobs`` workers);
3. **miss** — a cold learn of every table.

A near hit or a miss records the new spec + plan as a snapshot for the next
edit.  The learned plan is **byte-identical** to a cold learn of the spec
(same pretty-printed programs, same θ-cost, same key rules): every reuse
decision mirrors a determinism invariant of the learner, never a heuristic.
See ``docs/runtime.md`` for the architecture; the benchmark's
``relearn_warm`` workload times the near-hit relearn.

Example::

    from repro.datasets import dblp
    from repro.runtime import ContextStore, learn_incremental

    store = ContextStore(".repro-cache")
    spec = dblp.dataset().migration_spec()
    plan, report = learn_incremental(spec, store)     # cold
    plan, report = learn_incremental(spec, store)     # exact hit: everything reused
    assert report.tables_synthesized == []
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..migration.engine import MigrationEngine, MigrationSpec
from ..synthesis.config import SynthesisConfig
from ..synthesis.synthesizer import SynthesisStats
from .context_store import ContextStore, spec_fingerprint
from .plan import MigrationPlan
from .spec_diff import SpecDiff, diff_specs, reusable_plans


@dataclass
class IncrementalReport:
    """What a learn reused, re-learned and why."""

    spec_fingerprint: str
    base_fingerprint: Optional[str] = None
    """Spec fingerprint of the snapshot the diff ran against (``None`` = cold;
    equal to ``spec_fingerprint`` on an exact hit)."""

    diff: Optional[SpecDiff] = None
    tables_total: int = 0
    tables_synthesized: List[str] = field(default_factory=list)
    tables_reused: List[str] = field(default_factory=list)
    tables_keys_reused: List[str] = field(default_factory=list)
    learn_seconds: float = 0.0
    cache_counters: Dict[str, int] = field(default_factory=dict)
    """Candidate-level cache hit/miss counters accumulated over the learn
    (universe/χi/bitmatrix — see
    :attr:`~repro.synthesis.context.SynthesisContext.COUNTERS`)."""

    synthesis_stats: Dict[str, SynthesisStats] = field(default_factory=dict)
    """Per synthesized table: the synthesizer's diagnostics (``learn --verbose``)."""

    @property
    def cold(self) -> bool:
        return self.base_fingerprint is None

    @property
    def exact(self) -> bool:
        return self.base_fingerprint == self.spec_fingerprint

    def describe(self) -> str:
        """Multi-line reuse summary printed by ``repro learn|migrate``."""
        lines: List[str] = []
        if self.cold:
            lines.append("  base spec: none (cold learn, all tables synthesized)")
        else:
            assert self.diff is not None
            lines.append(
                f"  base spec: {self.base_fingerprint[:12]} ({self.diff.summary()})"
            )
        reused = len(self.tables_reused)
        lines.append(
            f"  tables: {len(self.tables_synthesized)} synthesized, "
            f"{reused}/{self.tables_total} programs reused, "
            f"{len(self.tables_keys_reused)} key rules reused"
        )
        if self.tables_synthesized:
            lines.append(f"  synthesized: {', '.join(self.tables_synthesized)}")
        counters = {**_EMPTY_COUNTERS, **self.cache_counters}
        if any(counters.values()):
            lines.append(
                "  candidate caches: universe {universe_hits}h/{universe_misses}m, "
                "χi {chi_hits}h/{chi_misses}m, "
                "bitmatrix {mask_hits}h/{mask_misses}m".format(**counters)
            )
        return "\n".join(lines)


_EMPTY_COUNTERS = {
    "universe_hits": 0,
    "universe_misses": 0,
    "chi_hits": 0,
    "chi_misses": 0,
    "mask_hits": 0,
    "mask_misses": 0,
}


def learn_incremental(
    spec: MigrationSpec,
    store: Optional[ContextStore],
    *,
    config: Optional[SynthesisConfig] = None,
    jobs: int = 1,
) -> "tuple[MigrationPlan, IncrementalReport]":
    """Learn a plan, reusing as much of the store as the spec allows.

    ``config`` defaults to :meth:`SynthesisConfig.for_migration` (the engine
    default); snapshots are keyed by the configuration, so switching bounds
    never reuses programs learned under others.  ``jobs`` fans the
    re-synthesized tables out over worker processes.  ``store=None`` is a
    cold learn that reads and writes nothing.
    """
    config = config if config is not None else SynthesisConfig.for_migration()
    fingerprint = spec_fingerprint(spec)
    report = IncrementalReport(
        spec_fingerprint=fingerprint, tables_total=spec.schema.num_tables
    )
    if store is None:
        base = None
    else:
        exact = store.load_snapshot(spec, config)
        if exact is not None:
            report.base_fingerprint = fingerprint
            report.diff = diff_specs(exact.schema, exact.examples, spec)
            report.tables_reused = sorted(spec.schema.table_names)
            report.tables_keys_reused = sorted(spec.schema.table_names)
            return exact.plan, report
        base = store.best_base(spec, config)

    reuse, reuse_keys = {}, set()
    if base is not None:
        snapshot, diff = base
        report.base_fingerprint = snapshot.fingerprint
        report.diff = diff
        reuse, reuse_keys = reusable_plans(diff, snapshot.plan, spec.schema)

    engine = MigrationEngine(config, jobs=jobs)
    start = time.perf_counter()
    programs, _ = engine.learn(spec, reuse=reuse, reuse_keys=reuse_keys)
    report.learn_seconds = time.perf_counter() - start
    report.cache_counters = dict(engine.synthesizer.context.counters)
    report.tables_reused = sorted(reuse)
    report.tables_keys_reused = sorted(reuse_keys)
    report.tables_synthesized = sorted(set(programs) - set(reuse))
    report.synthesis_stats = {
        name: programs[name].synthesis.stats
        for name in report.tables_synthesized
        if programs[name].synthesis.stats is not None
    }

    plan = MigrationPlan.from_programs(spec.schema, programs)
    plan.metadata["spec_fingerprint"] = fingerprint
    if report.base_fingerprint is not None:
        plan.metadata["incremental_base"] = report.base_fingerprint
    if store is not None:
        store.record_spec(spec, plan, config)
    return plan, report
