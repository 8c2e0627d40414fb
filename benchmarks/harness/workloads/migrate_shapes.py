"""``migrate_shapes`` — the other three Table-2 documents, whole-tree, into
columnar JSON files.

Why it exists: IMDB, Yelp and Mondial were never timed.  IMDB and Yelp are
value-join bound (``partial_tuples`` grows with records squared), Mondial is
wide (25 tables).  Yelp is also run streamed (``iter_tree_chunks(doc, 500)``
into ``NullBackend``): the same joins per chunk are several times cheaper,
so a join fix that only helps whole-tree shows as a change in one and not
the other.  IMDB and Mondial are *not* streamed: their plans are not
record-local and ``stream_execute`` returns fewer rows than the whole tree —
the traced pass measures that share (``runtime.streaming.nonlocal_row_share``)
instead of timing a wrong answer.

The three cells are the IMDB, Yelp and Mondial whole-tree runs; ``wall_s``
adds the streamed Yelp run.
"""

from __future__ import annotations

import gc
import os
from typing import Dict, List

from repro.datasets import imdb, mondial, yelp
from repro.runtime import (
    ColumnarBackend,
    NullBackend,
    execute_plan,
    iter_tree_chunks,
    stream_execute,
)

from ..protocol import (
    Operations,
    OracleError,
    RunContext,
    WorkloadResult,
    median,
    ratio,
    scratch_dir,
    timed,
    untimed,
)
from ..staged import (
    check_target,
    layer_metrics,
    learn_plan,
    staged_execute,
    staged_stream,
    unattributed_share,
)

#: (name, simulator, scale) — 2 410 / 6 250 / 2 008 records.
DOCUMENTS = (("imdb", imdb, 300), ("yelp", yelp, 600), ("mondial", mondial, 2000))
QUICK_DOCUMENTS = (("imdb", imdb, 10), ("yelp", yelp, 10), ("mondial", mondial, 10))
STREAM_CHUNK, QUICK_STREAM_CHUNK = 500, 20
#: Scale at which the IMDB streaming non-equivalence is measured.
NONLOCAL_SCALE, QUICK_NONLOCAL_SCALE = 150, 10

#: Tables whose row count is known to differ from the simulator's ground
#: truth (README, baseline findings): the learned ``river_source`` /
#: ``river_estuary`` programs emit 2–10 % more rows from scale 300 up.
KNOWN_DEVIATIONS = {"mondial": ("river_source", "river_estuary")}


def dataset_seed(name: str, scale: int, seed: int) -> int:
    """The simulator seed a run seed stands for.

    IMDB only: the learned ``movie_director`` program joins through the
    episode ``number`` column, and the executor starts its join from the
    smaller column — so documents with fewer episodes than movies enumerate
    ~800 000 partial tuples for that table and documents with more ~3 600
    (README, baseline findings).  Episodes are 3 per series on average and
    movies 3 per scale unit, so the seed flips a fair coin between two
    regimes ~15 % apart.  The cell is conditioned on the quadratic regime —
    the one the ROADMAP asks to explain — by taking the first derived seed
    whose *document* has that property; otherwise the seed, not the code,
    would decide the time.
    """
    if name != "imdb":
        return seed
    for candidate in range(seed * 64, seed * 64 + 64):
        records = imdb.make_records(scale, candidate)
        if sum(len(s["episodes"]) for s in records["series"]) < len(records["movies"]):
            return candidate
    raise OracleError(f"no IMDB document with fewer episodes than movies for seed {seed}")


def run(ctx: RunContext) -> WorkloadResult:
    documents = QUICK_DOCUMENTS if ctx.quick else DOCUMENTS
    chunk = QUICK_STREAM_CHUNK if ctx.quick else STREAM_CHUNK
    scales = {name: scale for name, _, scale in documents}
    bundles = {
        name: module.dataset(scale=scale, seed=dataset_seed(name, scale, ctx.seed))
        for name, module, scale in documents
    }
    truths = {name: bundles[name].ground_truth(scale) for name, _, scale in documents}
    operations = Operations()
    times: Dict[str, List[float]] = {name: [] for name, _, _ in documents}
    times["yelp-streamed"] = []
    setup_units: List[float] = []
    plans = {}

    rounds = ctx.rounds()
    for round_index in rounds:
        setup: List[float] = []
        spent = 0.0
        with scratch_dir(ctx.tmp, f"round{round_index}-") as directory:
            for name, module, scale in documents:
                plan = plans[name] = untimed(setup, lambda: learn_plan(module))
                tree = untimed(setup, lambda: bundles[name].generate(scale))
                backend = ColumnarBackend(os.path.join(directory, name), file_format="json")
                seconds, report = timed(lambda: execute_plan(plan, tree, backend))
                times[name].append(seconds)
                spent += seconds
                check_target(
                    operations, name, plan, report.per_table_rows, truths[name], backend,
                    KNOWN_DEVIATIONS.get(name, ()),
                )
                backend.close()
                del tree, backend, report
            tree = untimed(setup, lambda: bundles["yelp"].generate(scales["yelp"]))
            seconds, report = timed(
                lambda: stream_execute(plans["yelp"], iter_tree_chunks(tree, chunk), NullBackend())
            )
            times["yelp-streamed"].append(seconds)
            spent += seconds
            check_target(
                operations, "yelp-streamed", plans["yelp"], report.per_table_rows, truths["yelp"]
            )
            del tree, report
        setup_units.append(sum(setup))
        rounds.spent(spent)

    medians = [median(times[name]) for name, _, _ in documents]
    wall = sum(medians) + median(times["yelp-streamed"])
    rows = sum(sum(truths[name].values()) for name, _, _ in documents)
    rows += sum(truths["yelp"].values())
    result = WorkloadResult(
        cells=(medians[0], medians[1], medians[2]),
        wall_s=wall,
        ops=rows,
        setup_units=setup_units,
        operations=operations,
        info={
            "scales": scales,
            "yelp_streamed_s": median(times["yelp-streamed"]),
            "repetitions": {name: len(values) for name, values in times.items()},
            "rounds": rounds.done,
        },
    )
    if ctx.traced:
        result.layers = _traced(ctx, documents, chunk, bundles, truths, plans, operations, wall)
    return result


def _traced(ctx, documents, chunk, bundles, truths, plans, operations, fused_wall):
    tracer = ctx.tracer
    with scratch_dir(ctx.tmp, "staged-") as directory:
        for name, _, scale in documents:
            tree = bundles[name].generate(scale)
            backend = ColumnarBackend(os.path.join(directory, name), file_format="json")
            gc.collect()
            with tracer.gc_spans():
                counts = staged_execute(tracer, plans[name], tree, backend, dataset=name, scale=scale)
            check_target(
                operations, f"{name}/staged", plans[name], counts, truths[name], backend,
                KNOWN_DEVIATIONS.get(name, ()),
            )
            backend.close()
            del tree, backend
        scale = next(scale for name, _, scale in documents if name == "yelp")
        tree = bundles["yelp"].generate(scale)
        gc.collect()
        with tracer.gc_spans():
            counts = staged_stream(
                tracer, plans["yelp"], iter_tree_chunks(tree, chunk), NullBackend(),
                dataset="yelp", scale=scale, driver="streamed",
            )
        check_target(operations, "yelp-streamed/staged", plans["yelp"], counts, truths["yelp"])
        del tree
    layers = layer_metrics(tracer)
    layers["workload.trace_overhead"] = ratio(tracer.total("run"), fused_wall)
    layers["workload.unattributed_share"] = unattributed_share(tracer)

    # IMDB's plan relates records to each other, so chunked execution loses
    # rows; measured (not timed) so the README's claim stays checkable.
    scale = QUICK_NONLOCAL_SCALE if ctx.quick else NONLOCAL_SCALE
    bundle = imdb.dataset(scale=scale, seed=ctx.seed)
    streamed = stream_execute(
        plans["imdb"], iter_tree_chunks(bundle.generate(scale), chunk), NullBackend()
    )
    layers["runtime.streaming.nonlocal_row_share"] = ratio(
        streamed.total_rows, sum(bundle.ground_truth(scale).values())
    )
    return layers
