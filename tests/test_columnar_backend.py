"""Tests for the columnar execution backend and the backend registry."""

import json
import os

import pytest

from repro.datasets import dblp
from repro.runtime import MemoryBackend, MigrationPlan, execute_plan
from repro.runtime.backends import (
    HAVE_DUCKDB,
    HAVE_PYARROW,
    ColumnarBackend,
    ColumnarBackendError,
    DuckDBBackendError,
    available_backends,
    create_backend,
    load_table_rows,
)
from repro.runtime.backends.columnar import MANIFEST_NAME
from repro.relational import ColumnDef, DatabaseSchema, TableSchema


@pytest.fixture(scope="module")
def dblp_plan():
    return MigrationPlan.learn(dblp.dataset(scale=3).migration_spec())


def _simple_schema():
    return DatabaseSchema(
        name="db",
        tables=[
            TableSchema(
                "t",
                [ColumnDef("a", "text"), ColumnDef("n", "integer")],
                natural_keys=True,
            )
        ],
    )


# --------------------------------------------------------------------------- #
# In-memory batches
# --------------------------------------------------------------------------- #


def test_columnar_matches_memory_backend(dblp_plan):
    document = dblp.dataset(scale=10).generate(10)
    memory = execute_plan(dblp_plan, document, MemoryBackend()).backend
    columnar = execute_plan(dblp_plan, document, ColumnarBackend()).backend
    for table in dblp_plan.schema.table_names:
        # Both store Python values verbatim, so rows agree exactly —
        # including surrogate keys (same process, same node uids).
        assert columnar.fetch_rows(table) == memory.fetch_rows(table)
        assert columnar.row_count(table) == len(memory.fetch_rows(table))


def test_batch_sealing():
    backend = ColumnarBackend(batch_size=3)
    backend.begin(_simple_schema())
    assert backend.insert_rows("t", [("r%d" % i, i) for i in range(8)]) == 8
    # Mid-execution reads include the open batch.
    assert len(backend.fetch_rows("t")) == 8
    backend.finalize()
    batches = backend.batches("t")
    assert [b.num_rows for b in batches] == [3, 3, 2]
    assert [row for b in batches for row in b.rows()] == backend.fetch_rows("t")


def test_insert_arity_mismatch_and_unknown_table():
    backend = ColumnarBackend()
    backend.begin(_simple_schema())
    with pytest.raises(ColumnarBackendError, match="arity"):
        backend.insert_rows("t", [("only-one-cell",)])
    with pytest.raises(ColumnarBackendError, match="unknown table"):
        backend.insert_rows("nope", [("a", 1)])


def test_finalize_requires_begin():
    with pytest.raises(ColumnarBackendError, match="begin"):
        ColumnarBackend().finalize()


# --------------------------------------------------------------------------- #
# File output: JSON-columns fallback (always available)
# --------------------------------------------------------------------------- #


def test_json_columns_roundtrip(tmp_path):
    out = str(tmp_path / "out")
    backend = ColumnarBackend(out, batch_size=2, file_format="json")
    backend.begin(_simple_schema())
    rows = [("a", 1), ("b", 2), ("c", None)]
    backend.insert_rows("t", rows)
    backend.finalize()
    manifest = json.loads(open(os.path.join(out, MANIFEST_NAME)).read())
    assert manifest["format"] == "json"
    assert manifest["tables"]["t"]["rows"] == 3
    assert manifest["tables"]["t"]["columns"] == ["a", "n"]
    assert load_table_rows(out, "t") == rows
    with pytest.raises(ColumnarBackendError, match="not in"):
        load_table_rows(out, "unknown")


def test_load_table_rows_without_manifest(tmp_path):
    with pytest.raises(ColumnarBackendError, match="cannot read"):
        load_table_rows(str(tmp_path), "t")


def test_default_format_matches_environment():
    assert ColumnarBackend().file_format == ("arrow" if HAVE_PYARROW else "json")


def test_unknown_file_format_rejected():
    with pytest.raises(ColumnarBackendError, match="unknown file format"):
        ColumnarBackend(file_format="orc")


@pytest.mark.skipif(HAVE_PYARROW, reason="pyarrow installed: arrow formats work")
def test_arrow_formats_fail_early_without_pyarrow():
    for fmt in ("arrow", "parquet"):
        with pytest.raises(ColumnarBackendError, match="needs pyarrow"):
            ColumnarBackend(file_format=fmt)


@pytest.mark.skipif(not HAVE_PYARROW, reason="pyarrow not installed")
@pytest.mark.parametrize("fmt", ["arrow", "parquet"])
def test_arrow_family_roundtrip(tmp_path, fmt):  # pragma: no cover - needs pyarrow
    out = str(tmp_path / fmt)
    backend = ColumnarBackend(out, batch_size=2, file_format=fmt)
    backend.begin(_simple_schema())
    rows = [("a", 1), ("b", 2), ("c", None)]
    backend.insert_rows("t", rows)
    backend.finalize()
    assert load_table_rows(out, "t") == rows


# --------------------------------------------------------------------------- #
# File-backed runs stream sealed batches out of memory
# --------------------------------------------------------------------------- #


def _write_rows(directory, rows, *, batch_size=4):
    backend = ColumnarBackend(str(directory), batch_size=batch_size, file_format="json")
    backend.begin(_simple_schema())
    backend.insert_rows("t", rows)
    backend.finalize()
    return backend


def test_spill_streams_sealed_batches_out_of_memory(tmp_path):
    backend = ColumnarBackend(
        str(tmp_path / "out"), batch_size=2, file_format="json"
    )
    backend.begin(_simple_schema())
    backend.insert_rows("t", [("r%d" % i, i) for i in range(7)])
    # Sealed batches went straight to the writer — nothing retained.
    assert backend._buffers["t"].batches == []
    assert backend.row_count("t") == 7
    # Mid-run reads of spilled data are a clear error, not silent truncation.
    with pytest.raises(ColumnarBackendError, match="spilled to disk"):
        backend.fetch_rows("t")
    with pytest.raises(ColumnarBackendError, match="streamed to disk"):
        backend.batches("t")
    backend.finalize()
    # After finalize, fetch_rows answers from the finished files.
    assert backend.fetch_rows("t") == [("r%d" % i, i) for i in range(7)]


# --------------------------------------------------------------------------- #
# Dictionary encoding
# --------------------------------------------------------------------------- #


def test_dictionary_roundtrip_keeps_every_row(tmp_path):
    # None-heavy, single-distinct and mixed columns decode row-for-row
    # whether or not the heuristic dictionary-encodes their batch.
    rows = (
        [("only", None)] * 5
        + [(None, 1), (None, 2), ("only", 3)]
        + [("x%d" % i, i) for i in range(4)]
    )
    _write_rows(tmp_path, rows)
    assert load_table_rows(str(tmp_path), "t") == rows
    # The single-distinct batch stores codes; the all-distinct one a plain list.
    batches = json.loads((tmp_path / "t.columns.json").read_text())["batches"]
    assert batches[0][0] == {"d": ["only"], "c": [0, 0, 0, 0]}
    assert batches[-1][0] == ["x0", "x1", "x2", "x3"]


def test_dictionary_auto_heuristic():
    from repro.runtime.backends.columnar import _should_dict_encode

    assert _should_dict_encode(["a"] * 8)  # single distinct value
    assert _should_dict_encode(["a", "a", "b", "b"])  # half distinct
    assert not _should_dict_encode(["a", "b", "c"])  # all distinct
    assert not _should_dict_encode([])


# --------------------------------------------------------------------------- #
# Abort cleanup: close() before finalize() scrubs partial output
# --------------------------------------------------------------------------- #


def test_abort_removes_partial_files(tmp_path):
    from repro.runtime.backends.columnar import read_table_rows

    out = tmp_path / "out"
    backend = ColumnarBackend(str(out), batch_size=2, file_format="json")
    backend.begin(_simple_schema())
    backend.insert_rows("t", [("a", 1), ("b", 2), ("c", 3)])  # seals a batch
    backend.close()  # abort: no finalize happened
    assert os.listdir(out) == []  # no partial table file, no manifest
    with pytest.raises(ColumnarBackendError, match="cannot read"):
        read_table_rows(str(out), _simple_schema())
    backend.close()  # idempotent


def test_close_after_finalize_keeps_output(tmp_path):
    out = tmp_path / "out"
    backend = _write_rows(out, [("a", 1)])
    backend.close()
    assert load_table_rows(str(out), "t") == [("a", 1)]


def test_sharded_reduce_failure_leaves_clean_directory(tmp_path, monkeypatch):
    """A reduce-stage crash (truncate_spill-style: the replayed stream dies
    mid-batch) must abort the streaming columnar backend — the output
    directory ends up empty instead of holding a manifest that points at
    unreadable half-written batch files."""
    import repro.runtime.sharded as sharded_module
    from repro.runtime.backends.columnar import read_table_rows
    from repro.runtime.sharded import ShardError, shard_execute

    real_iter_spill = sharded_module.iter_spill

    def dying_replay(path, **kwargs):
        iterator = real_iter_spill(path, **kwargs)
        yield next(iterator)
        raise ShardError("spill truncated mid-replay (injected)")

    monkeypatch.setattr(sharded_module, "iter_spill", dying_replay)
    plan = MigrationPlan.learn(dblp.dataset(scale=3).migration_spec())
    out = tmp_path / "columnar"
    backend = ColumnarBackend(str(out), batch_size=4, file_format="json")
    with pytest.raises(ShardError, match="injected"):
        shard_execute(plan, dblp.dataset(scale=3).generate(6), backend, shards=2, workers=1)
    assert os.listdir(out) == []
    with pytest.raises(ColumnarBackendError, match="cannot read"):
        read_table_rows(str(out), plan.schema)


@pytest.mark.parametrize("path", ["whole", "streamed", "sharded"])
def test_backend_failure_mid_run_leaves_clean_directory(tmp_path, path):
    """The abort contract is one contract: a backend that fails mid-run is
    closed before the error propagates, on every execution path, so none of
    this run's half-written files stay in the output directory."""
    from repro.runtime import iter_tree_chunks, shard_execute, stream_execute

    class FailingBackend(ColumnarBackend):
        inserts = 0

        def insert_rows(self, table, rows):
            self.inserts += 1
            if self.inserts == 3:
                raise OSError("disk full (injected)")
            return super().insert_rows(table, rows)

    plan = MigrationPlan.learn(dblp.dataset(scale=3).migration_spec())
    document = dblp.dataset(scale=3).generate(6)
    out = tmp_path / "columnar"
    backend = FailingBackend(str(out), batch_size=4, file_format="json")
    with pytest.raises(OSError, match="injected"):
        if path == "whole":
            execute_plan(plan, document, backend)
        elif path == "streamed":
            stream_execute(plan, iter_tree_chunks(document, 5), backend)
        else:
            shard_execute(plan, document, backend, shards=2, workers=1)
    assert os.listdir(out) == []


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #


def test_registry_names_and_dispatch(tmp_path):
    assert available_backends() == ("memory", "sqlite", "columnar", "duckdb")
    assert type(create_backend("memory")).__name__ == "MemoryBackend"
    sqlite = create_backend("sqlite", str(tmp_path / "x.db"))
    assert type(sqlite).__name__ == "SQLiteBackend"
    columnar = create_backend("columnar", str(tmp_path / "dir"), batch_size=4)
    assert isinstance(columnar, ColumnarBackend)
    assert columnar.batch_size == 4


def test_registry_rejects_bad_combinations(tmp_path):
    with pytest.raises(ValueError, match="unknown backend"):
        create_backend("orc")
    with pytest.raises(ValueError, match="no output path"):
        create_backend("memory", str(tmp_path / "x"))
    with pytest.raises(ValueError, match="needs an output path"):
        create_backend("sqlite")
    with pytest.raises(ValueError, match="needs an output path"):
        create_backend("duckdb")


def test_duckdb_registered_but_guarded(tmp_path):
    # duckdb is always a *recognized* name; without the library installed,
    # construction fails with a pointer at the extra instead of "unknown".
    assert "duckdb" in available_backends()
    if not HAVE_DUCKDB:
        with pytest.raises(DuckDBBackendError, match="pip install repro\\[duckdb\\]"):
            create_backend("duckdb", str(tmp_path / "x.duckdb"))
