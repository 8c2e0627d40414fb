"""Benchmark R1: the migration runtime — backends and execution strategies.

Measures rows/sec on a scaled synthetic DBLP dataset along two axes:

* **backend**: in-memory :class:`Database` vs a real SQLite database
  (``executemany`` batched inserts, WAL-style loading configuration);
* **strategy**: whole-tree execution vs streaming (chunked) execution, plus
  the multiprocessing fan-out across chunks.

The plan is learned once per session and runs **unrestricted** — all nine
DBLP tables, author link tables included.  Those tables join on position
*values* and used to be quadratic in the record count (earlier revisions
restricted the plan to its linear tables); the fused-dedup streaming executor
collapses value-join groups before enumeration, so the full plan is linear.

Besides the pytest-benchmark numbers, a JSON perf record is written to
``benchmarks/runtime_perf.json`` so that runs can be compared across commits.
See ``benchmarks/bench_executor.py`` for the cross-PR executor trajectory
record (``BENCH_PR2.json``).
"""

import json
import os
import time

import pytest

from repro.datasets import dblp
from repro.runtime import (
    MemoryBackend,
    MigrationPlan,
    SQLiteBackend,
    execute_plan,
    iter_tree_chunks,
    stream_execute,
)

SCALE = 2000  # 10k records
CHUNK_SIZE = 1000

_RECORD_PATH = os.path.join(os.path.dirname(__file__), "runtime_perf.json")
_RECORDS = {}


@pytest.fixture(scope="module")
def bundle():
    return dblp.dataset(scale=SCALE)


@pytest.fixture(scope="module")
def plan(bundle):
    return MigrationPlan.learn(bundle.migration_spec())  # full plan, no restrict()


@pytest.fixture(scope="module")
def document(bundle):
    return bundle.generate(SCALE)


def _record(name, report):
    _RECORDS[name] = {
        "rows": report.total_rows,
        "seconds": round(report.execution_time, 4),
        "rows_per_sec": round(report.total_rows / max(report.execution_time, 1e-9)),
        "chunks": report.chunks,
    }


@pytest.fixture(scope="module", autouse=True)
def write_perf_record():
    yield
    if _RECORDS:
        payload = {
            "benchmark": "runtime",
            "dataset": "DBLP",
            "scale": SCALE,
            "records": 5 * SCALE,
            "chunk_size": CHUNK_SIZE,
            "tables": "all",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "results": _RECORDS,
        }
        with open(_RECORD_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)


def test_whole_tree_memory_backend(benchmark, plan, document):
    report = benchmark.pedantic(
        execute_plan, args=(plan, document), kwargs={"backend": MemoryBackend()},
        rounds=1, iterations=1,
    )
    assert report.total_rows > 0
    _record("whole_tree_memory", report)


def test_whole_tree_sqlite_backend(benchmark, plan, document, tmp_path):
    backend = SQLiteBackend(str(tmp_path / "dblp.db"))
    report = benchmark.pedantic(
        execute_plan, args=(plan, document), kwargs={"backend": backend},
        rounds=1, iterations=1,
    )
    backend.close()
    assert report.total_rows > 0
    _record("whole_tree_sqlite", report)


def test_streaming_memory_backend(benchmark, plan, document):
    def run():
        return stream_execute(plan, iter_tree_chunks(document, CHUNK_SIZE))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.chunks > 1
    _record("streaming_memory", report)


def test_streaming_sqlite_backend(benchmark, plan, document, tmp_path):
    def run():
        backend = SQLiteBackend(str(tmp_path / "dblp_stream.db"))
        report = stream_execute(plan, iter_tree_chunks(document, CHUNK_SIZE), backend)
        backend.close()
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.chunks > 1
    _record("streaming_sqlite", report)
