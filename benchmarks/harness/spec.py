"""Declarations: workloads, metrics, bounds — the content of ``BENCHMARK.json``.

Everything a later PR compares against is named here once; ``manifest()``
renders it in the schema the benchmark contract prescribes and
``run.py --write-manifest`` writes it to the repo root.  The glossary
(one sentence per name) lives in ``README.md`` next to this file.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

COMMAND = ["python3", "benchmarks/harness/run.py"]
PATHS = ["benchmarks/harness"]

#: How long one run measures.  A workload starts another round of its cells
#: only while the next round still fits; ``learn_table1`` has a single round
#: (one pass over the 98 tasks) that is longer than this on a 2-core box.
RUN_SECONDS = 14


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float = 0.0


WORKLOADS: List[Workload] = [
    Workload(
        "learn_table1",
        "All 98 Table-1 tasks, cold and serial: predicate learning does the work, "
        "the run side none. Cells: tasks with <=3 / 4 / >=5 columns.",
    ),
    Workload(
        "relearn_warm",
        "The learn layers through their caches: rehydrated context + warm synth, "
        "incremental relearn of 4 specs. Cells: warm 12 tasks / same 12 cold / relearn.",
    ),
    Workload(
        "migrate_scale",
        "Full DBLP plan whole-tree into memory at 2 500 / 5 000 / 10 000 records (the "
        "cells; traced: up to 50 000): enumeration, keygen, merge dominate; no parsing, no storage.",
    ),
    Workload(
        "migrate_file",
        "25 000-record DBLP XML file to a SQLite file: parse, spill, transport, "
        "insert, index DDL. Cells: streamed / 2 local shards / 2 socket workers.",
    ),
    Workload(
        "migrate_shapes",
        "The other Table-2 documents whole-tree into columnar JSON. Cells: IMDB and "
        "Yelp (value-join bound) / Mondial (25 tables wide); plus Yelp streamed.",
    ),
]

#: Every workload reports every end-to-end metric (the contract requires
#: it), so the workload-specific times are the three ``cellN_s`` slots; the
#: ``why`` of each workload names its cells.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("cell1_s", "s", "lower", 0.25),
    Metric("cell2_s", "s", "lower", 0.25),
    Metric("cell3_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
]

_S, _N, _R = "s", "count", "ratio"
_LO, _HI = "lower", "higher"

#: Layer = module path under ``src/repro/``.  A workload that does not
#: reach a layer reports 0 for it ("no move expected").
PER_LAYER: List[Metric] = [
    # ------------------------------------------------------------- learn
    Metric("synthesis.column_learner.busy_s", _S, _LO),
    Metric("synthesis.column_learner.extractors", _N, _LO),
    Metric("synthesis.predicate_universe.busy_s", _S, _LO),
    Metric("synthesis.predicate_universe.size", _N, _LO),
    Metric("synthesis.predicate_matrix.busy_s", _S, _LO),
    Metric("synthesis.set_cover.busy_s", _S, _LO),
    Metric("synthesis.synthesizer.other_s", _S, _LO),
    Metric("synthesis.synthesizer.candidates_tried", _N, _LO),
    Metric("synthesis.synthesizer.task_p50_s", _S, _LO),
    Metric("synthesis.synthesizer.solved", _N, _HI),
    Metric("synthesis.context.universe_hit_rate", _R, _HI),
    Metric("synthesis.context.chi_hit_rate", _R, _HI),
    Metric("synthesis.context.mask_hit_rate", _R, _HI),
    Metric("synthesis.serialize.dump_s", _S, _LO),
    Metric("synthesis.serialize.load_s", _S, _LO),
    Metric("synthesis.serialize.bytes", "B", _LO),
    Metric("migration.engine.learn_s", _S, _LO),
    Metric("runtime.incremental.relearn_s", _S, _LO),
    Metric("runtime.incremental.tables_reused_share", _R, _HI),
    # --------------------------------------------------------------- run
    Metric("hdt.xml_plugin.parse_s", _S, _LO),
    Metric("hdt.xml_plugin.parse_mb_per_s", "MB/s", _HI),
    Metric("hdt.xml_plugin.record_index_s", _S, _LO),
    Metric("hdt.tree.tag_index_s", _S, _LO),
    Metric("hdt.tree.nodes", _N, _LO),
    Metric("optimizer.optimize.compile_s", _S, _LO),
    Metric("optimizer.optimize.enumerate_s", _S, _LO),
    Metric("optimizer.optimize.partial_tuples", _N, _LO),
    Metric("optimizer.optimize.rows_yielded", _N, _LO),
    Metric("optimizer.optimize.tuples_per_row", _R, _LO),
    Metric("migration.engine.keygen_s", _S, _LO),
    Metric("migration.engine.rows_out", _N, _LO),
    Metric("migration.engine.aliases", _N, _LO),
    Metric("runtime.executor.merge_s", _S, _LO),
    Metric("runtime.executor.rows_dropped_share", _R, _LO),
    Metric("runtime.executor.cold_over_warm", _R, _LO),
    Metric("runtime.executor.gc_s", _S, _LO),
    Metric("runtime.executor.gc_gen2_runs", _N, _LO),
    Metric("runtime.streaming.chunk_s", _S, _LO),
    Metric("runtime.streaming.chunks", _N, _LO),
    Metric("runtime.streaming.nonlocal_row_share", _R, _HI),
    Metric("runtime.sharded.count_records_s", _S, _LO),
    Metric("runtime.sharded.map_s", _S, _LO),
    Metric("runtime.sharded.reduce_s", _S, _LO),
    Metric("runtime.sharded.spill_write_s", _S, _LO),
    Metric("runtime.sharded.spill_replay_s", _S, _LO),
    Metric("runtime.sharded.spill_bytes", "B", _LO),
    Metric("runtime.supervisor.attempts", _N, _LO),
    Metric("runtime.supervisor.retries", _N, _LO),
    Metric("runtime.transport.local.map_s", _S, _LO),
    Metric("runtime.transport.socket.map_s", _S, _LO),
    Metric("runtime.worker.shards_served", _N, _HI),
    Metric("runtime.backends.memory.insert_rows_per_s", "rows/s", _HI),
    Metric("runtime.backends.sqlite.insert_rows_per_s", "rows/s", _HI),
    Metric("runtime.backends.sqlite.finalize_s", _S, _LO),
    Metric("runtime.backends.sqlite.bytes_per_row", "B", _LO),
    Metric("runtime.backends.columnar.insert_rows_per_s", "rows/s", _HI),
    Metric("runtime.backends.columnar.finalize_s", _S, _LO),
    Metric("runtime.backends.null.insert_rows_per_s", "rows/s", _HI),
    Metric("runtime.verify.verify_s", _S, _LO),
    # ------------------------------------- per workload, from the traced run
    Metric("workload.trace_overhead", _R, _LO),
    Metric("workload.unattributed_share", _R, _LO),
    Metric("workload.failed_share", _R, _LO),
    Metric("workload.known_deviations", _N, _LO),
    Metric("workload.task_p90_s", _S, _LO),
    Metric("workload.warm_over_cold", _R, _LO),
    Metric("workload.scale_flatness", _R, _HI),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]
END_TO_END_UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {m.name: m.unit for m in PER_LAYER}


def manifest() -> dict:
    """``BENCHMARK.json``, exactly the keys the contract prescribes."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
