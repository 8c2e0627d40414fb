"""``migrate_scale`` — the full 9-table DBLP plan, whole-tree, into memory.

Why it exists: ROADMAP's "rows/s falls with scale" fact.  Trees are built
in memory and land in ``MemoryBackend``, so parsing and storage do nothing;
tuple enumeration, key generation and ``ChunkMerger`` do all of it.  The
three cells are the three document sizes; ``workload.scale_flatness`` is
rows/s at the largest over rows/s at the smallest (1.0 = linear).

The two passes use different sizes.  A whole-tree run is bound by memory
traffic (tree walk, allocation, collector), which is what a busy neighbour
on a shared host slows: the same code reads 15-20 % slower for a minute,
and no statistic inside a 20 s run removes that.  The timed cells of the
untraced pass therefore stop at 10 000 records, where a run is short enough
to be repeated ten times; the traced pass, whose numbers carry no bound,
keeps the 50 000-record document and reports the flatness and the layer
times there.
"""

from __future__ import annotations

import gc
from typing import Dict, List

from repro.datasets import dblp
from repro.runtime import MemoryBackend, execute_plan

from ..protocol import (
    Operations,
    RunContext,
    WorkloadResult,
    median,
    ratio,
    timed,
    untimed,
)
from ..staged import (
    check_target,
    layer_metrics,
    learn_plan,
    staged_execute,
    unattributed_share,
)

#: (scale, repetitions per round); a DBLP document has 5 records per scale
#: unit, so these are 2 500 / 5 000 / 10 000 records ...
CELLS = ((500, 5), (1000, 3), (2000, 2))
#: ... and 2 500 / 10 000 / 50 000 in the traced pass (a single round).
TRACED_CELLS = ((500, 5), (2000, 3), (10000, 1))
QUICK_CELLS = ((20, 2), (40, 1), (80, 1))


def run(ctx: RunContext) -> WorkloadResult:
    cells = QUICK_CELLS if ctx.quick else TRACED_CELLS if ctx.traced else CELLS
    bundles = {scale: dblp.dataset(scale=scale, seed=ctx.seed) for scale, _ in cells}
    truths = {scale: bundles[scale].ground_truth(scale) for scale, _ in cells}
    rows = {scale: sum(truths[scale].values()) for scale, _ in cells}
    operations = Operations()
    times: Dict[int, List[float]] = {scale: [] for scale, _ in cells}
    setup_units: List[float] = []

    rounds = ctx.rounds()
    for _ in rounds:
        setup: List[float] = []
        plan = untimed(setup, lambda: learn_plan(dblp))
        spent = 0.0
        for scale, repetitions in cells:
            for _ in range(repetitions):
                tree = untimed(setup, lambda: bundles[scale].generate(scale))
                backend = MemoryBackend()
                seconds, report = timed(lambda: execute_plan(plan, tree, backend))
                times[scale].append(seconds)
                spent += seconds
                check_target(
                    operations, f"dblp@{scale}", plan, report.per_table_rows,
                    truths[scale], backend,
                )
                del tree, backend, report
        setup_units.append(sum(setup))
        rounds.spent(spent)

    medians = [median(times[scale]) for scale, _ in cells]
    wall = sum(medians)
    total_rows = sum(rows.values())
    (small, _), (large, _) = cells[0], cells[-1]
    flatness = ratio(ratio(rows[large], medians[-1]), ratio(rows[small], medians[0]))
    result = WorkloadResult(
        cells=(medians[0], medians[1], medians[2]),
        wall_s=wall,
        ops=total_rows,
        setup_units=setup_units,
        operations=operations,
        info={
            "records": {str(scale): 5 * scale for scale, _ in cells},
            "rows": {str(scale): rows[scale] for scale, _ in cells},
            "times": {str(scale): times[scale] for scale, _ in cells},
            "rounds": rounds.done,
        },
    )
    if ctx.traced:
        result.layers = _traced(ctx, cells, bundles, truths, operations, wall)
        result.layers["workload.scale_flatness"] = flatness
    return result


def _traced(ctx, cells, bundles, truths, operations, fused_wall) -> Dict[str, float]:
    tracer = ctx.tracer
    plan = learn_plan(dblp)
    for scale, _ in cells:
        tree = bundles[scale].generate(scale)
        backend = MemoryBackend()
        gc.collect()
        with tracer.gc_spans():
            counts = staged_execute(tracer, plan, tree, backend, dataset="dblp", scale=scale)
        check_target(operations, f"dblp@{scale}/staged", plan, counts, truths[scale], backend)
        del tree, backend
    layers = layer_metrics(tracer)
    layers["workload.trace_overhead"] = ratio(tracer.total("run"), fused_wall)
    layers["workload.unattributed_share"] = unattributed_share(tracer)

    # First execution on a tree against a repeat on the same tree: the lazy
    # per-tree indexes (TagIndex, uid index) are what a repeat does not pay.
    small = cells[0][0]
    tree = bundles[small].generate(small)
    cold, _ = timed(lambda: execute_plan(plan, tree, MemoryBackend()))
    warm, _ = timed(lambda: execute_plan(plan, tree, MemoryBackend()))
    layers["runtime.executor.cold_over_warm"] = ratio(cold, warm)
    return layers
