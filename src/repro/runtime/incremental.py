"""Incremental learning: synthesize only what a spec edit actually changed.

This is the runtime's answer to the interactive schema-design loop.  A cold
:func:`learn_incremental` behaves like :meth:`MigrationPlan.learn` and leaves
two artifacts behind in a :class:`~repro.runtime.context_store.ContextStore`:
a snapshot of the spec with its plan, and the serialized synthesis context.
Every later call against the *same example document*:

1. rehydrates the persisted :class:`~repro.synthesis.context.SynthesisContext`
   (per-tree facts, column-extractor lists, χi sets, predicate universes);
2. diffs the edited spec against the best stored snapshot
   (:func:`~repro.runtime.spec_diff.diff_specs`) to find tables whose
   programs — and possibly key rules — are still valid;
3. re-synthesizes only the affected tables (seeding ``--jobs`` workers from
   the same payload), reusing everything else from the cached plan;
4. records the new spec + plan + context for the next edit.

The learned plan is **byte-identical** to a cold learn of the edited spec
(same pretty-printed programs, same θ-cost, same key rules): every reuse
decision mirrors a determinism invariant of the learner, never a heuristic.
See ``docs/runtime.md`` for the architecture; the benchmark's
``relearn_warm`` workload times the incremental relearn.

Example::

    from repro.datasets import dblp
    from repro.runtime import ContextStore, learn_incremental

    store = ContextStore("/tmp/ctx")
    spec = dblp.dataset().migration_spec()
    plan, report = learn_incremental(spec, store)     # cold
    plan, report = learn_incremental(spec, store)     # warm: everything reused
    assert report.tables_synthesized == []
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..migration.engine import MigrationEngine, MigrationSpec
from ..synthesis.config import SynthesisConfig
from .context_store import ContextStore
from .plan import MigrationPlan
from .plan_cache import spec_fingerprint
from .spec_diff import SpecDiff, reusable_plans


@dataclass
class IncrementalReport:
    """What an incremental learn reused, re-learned and why."""

    spec_fingerprint: str
    base_fingerprint: Optional[str] = None
    """Spec fingerprint of the snapshot the diff ran against (``None`` = cold)."""

    diff: Optional[SpecDiff] = None
    context_hit: bool = False
    context_stats: Dict[str, int] = field(default_factory=dict)
    tables_total: int = 0
    tables_synthesized: List[str] = field(default_factory=list)
    tables_reused: List[str] = field(default_factory=list)
    tables_keys_reused: List[str] = field(default_factory=list)
    learn_seconds: float = 0.0
    cache_counters: Dict[str, int] = field(default_factory=dict)
    """Candidate-level cache hit/miss counters accumulated over the learn
    (universe/χi/bitmatrix — see
    :attr:`~repro.synthesis.context.SynthesisContext.COUNTERS`)."""

    @property
    def cold(self) -> bool:
        return self.base_fingerprint is None

    def describe(self) -> str:
        """Multi-line cache-hit summary printed by ``repro learn|migrate``."""
        lines: List[str] = []
        if self.context_hit:
            context = (
                "hit ({column_results} column lists, {chi} χi sets, "
                "{universes} universes)".format(**{**_EMPTY_STATS, **self.context_stats})
            )
        elif not self.tables_synthesized:
            context = "not needed (no tables re-synthesized)"
        else:
            context = "miss"
        lines.append(f"  context cache: {context}")
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


_EMPTY_STATS = {"trees": 0, "column_results": 0, "chi": 0, "universes": 0}
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
    store: ContextStore,
    *,
    config: Optional[SynthesisConfig] = None,
    jobs: int = 1,
) -> "tuple[MigrationPlan, IncrementalReport]":
    """Learn a plan, reusing as much persisted state as the edit allows.

    ``config`` defaults to :meth:`SynthesisConfig.for_migration` (the engine
    default); the context entry is keyed by the configuration, so switching
    bounds never reuses stale caches.  ``jobs`` fans the re-synthesized
    tables out over worker processes seeded from the persisted context.
    """
    config = config if config is not None else SynthesisConfig.for_migration()
    fingerprint = spec_fingerprint(spec)
    report = IncrementalReport(
        spec_fingerprint=fingerprint, tables_total=spec.schema.num_tables
    )

    reuse, reuse_keys = {}, set()
    base = store.best_base(spec, config)
    if base is not None:
        snapshot, diff = base
        report.base_fingerprint = snapshot.fingerprint
        report.diff = diff
        reuse, reuse_keys = reusable_plans(diff, snapshot.plan, spec.schema)

    # The persisted context only helps tables that actually re-synthesize;
    # when the diff covers everything, skip the (de)serialization round trip
    # entirely — an exact re-learn then costs only the diff and key checks.
    needs_synthesis = {t.name for t in spec.schema.tables} - set(reuse)
    context = None
    if needs_synthesis:
        context = store.load_context([spec.example_tree], config)
        report.context_hit = context is not None
        if context is not None:
            report.context_stats = context.stats()

    engine = MigrationEngine(config, jobs=jobs, context=context)
    start = time.perf_counter()
    programs, _ = engine.learn(spec, reuse=reuse, reuse_keys=reuse_keys)
    report.learn_seconds = time.perf_counter() - start
    report.cache_counters = dict(engine.synthesizer.context.counters)
    report.tables_reused = sorted(reuse)
    report.tables_keys_reused = sorted(reuse_keys)
    report.tables_synthesized = sorted(set(programs) - set(reuse))

    plan = MigrationPlan.from_programs(spec.schema, programs)
    plan.metadata["spec_fingerprint"] = fingerprint
    if report.base_fingerprint is not None:
        plan.metadata["incremental_base"] = report.base_fingerprint
    store.record_spec(spec, plan, config)
    if needs_synthesis:
        store.store_context(engine.synthesizer.context)
    return plan, report
