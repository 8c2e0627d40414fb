"""Columnar execution backend: column-major batches, Arrow IPC / Parquet files.

Analytical consumers (DuckDB, pandas, Spark, a data lake) want columns, not
SQL inserts.  This backend accumulates each table's rows as **column-major
batches** (one python list per column, sealed every ``batch_size`` rows) and,
when given an output directory, lands them as:

* **Arrow IPC** (``<table>.arrow``) or **Parquet** (``<table>.parquet``)
  when ``pyarrow`` is importable — install with ``pip install repro[columnar]``;
* a **pure-python JSON-columns** format (``<table>.columns.json``) otherwise,
  so the backend (and the tier-1 test suite) never depends on ``pyarrow``.

File-backed runs **stream**: each sealed batch is appended to its table's
file writer the moment it fills, so no table's full column set ever lives in
memory — a sharded run's reducer output flows straight from ``insert_rows``
into the batch writers.  Repeated text columns are
**dictionary-encoded**: a JSON-columns batch's text column whose distinct
count is at most half its length is stored as a distinct-value list plus
integer codes; Arrow and Parquet files dictionary-encode every text column.

Either way a ``manifest.json`` records the format, per-table files, row
counts and column names; :func:`load_table_rows` reads any of the three
formats back into row tuples.  In-memory runs (no directory) remain fully
readable through :meth:`ColumnarBackend.fetch_rows`, which is what the
parity checks and benchmarks use; file-backed runs answer :meth:`fetch_rows`
from the finished files after :meth:`finalize`.

If a file-backed run aborts (``close()`` before ``finalize()``), the backend
closes its writers and removes every partial file it created — a degraded
sharded run never leaves a manifest pointing at unreadable files.

Column types follow the relational schema (``text`` / ``integer`` / ``real``);
primary- and foreign-key columns arrive already reconciled by the execution
pipeline (the backend performs no constraint checking of its own — pair it
with the memory or SQLite backend when validation is the point).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from ...relational.schema import DatabaseSchema, TableSchema
from .base import ExecutionBackend, Row

try:  # pragma: no cover - exercised only where pyarrow is installed
    import pyarrow as _pa
except ImportError:  # pragma: no cover - the tier-1 environment
    _pa = None

HAVE_PYARROW = _pa is not None

#: File formats the backend can land; ``arrow`` and ``parquet`` need pyarrow.
FILE_FORMATS = ("arrow", "parquet", "json")

MANIFEST_NAME = "manifest.json"


class ColumnarBackendError(Exception):
    """Raised when columnar landing fails (bad format, unwritable files, ...)."""


@dataclass
class ColumnBatch:
    """One sealed column-major batch: ``columns[i][j]`` = column i of row j."""

    columns: List[list]

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def rows(self) -> Iterable[Row]:
        return zip(*self.columns) if self.columns else iter(())


class _TableBuffer:
    """Accumulates one table's rows column-wise, sealing full batches.

    With an ``on_seal`` sink, sealed batches stream out immediately and are
    **not** retained — the file-backed path; without one they accumulate in
    ``batches`` — the in-memory path.
    """

    def __init__(self, column_names: List[str], batch_size: int, on_seal=None) -> None:
        self.column_names = column_names
        self.batch_size = batch_size
        self.on_seal = on_seal
        self.batches: List[ColumnBatch] = []
        self._open: List[list] = [[] for _ in column_names]
        self.total_rows = 0

    def append(self, row: Row) -> None:
        if len(row) != len(self._open):
            raise ColumnarBackendError(
                f"row arity {len(row)} != {len(self._open)} columns"
            )
        for column, value in zip(self._open, row):
            column.append(value)
        self.total_rows += 1
        if len(self._open[0]) >= self.batch_size:
            self.seal()

    def seal(self) -> None:
        if self._open and self._open[0]:
            batch = ColumnBatch(self._open)
            self._open = [[] for _ in self.column_names]
            if self.on_seal is not None:
                self.on_seal(batch)
            else:
                self.batches.append(batch)


# --------------------------------------------------------------------------- #
# Dictionary encoding
# --------------------------------------------------------------------------- #


def _should_dict_encode(cells: list) -> bool:
    """Encode a text-column batch as dictionary+codes?  It pays for itself
    when at most half the cells are distinct (a single-distinct-value column
    always encodes)."""
    return bool(cells) and len(set(cells)) <= max(1, len(cells) // 2)


def _dict_encode_column(cells: list) -> Dict[str, list]:
    """One column as ``{"d": distinct values, "c": codes}`` (first-seen order)."""
    values: list = []
    codes: List[int] = []
    index: dict = {}
    for value in cells:
        code = index.get(value)
        if code is None:
            code = len(values)
            index[value] = code
            values.append(value)
        codes.append(code)
    return {"d": values, "c": codes}


def _decode_json_column(entry: Union[list, dict]) -> list:
    """A JSON-columns column entry back to a plain value list."""
    if isinstance(entry, dict):
        values = entry["d"]
        return [values[code] for code in entry["c"]]
    return entry


# --------------------------------------------------------------------------- #
# Streaming file writers — one per table; a file-backed run feeds each
# batch through its table's writer the moment the batch seals.
# --------------------------------------------------------------------------- #


class _JsonColumnsWriter:
    """Incremental JSON-columns writer: batches append as they seal."""

    def __init__(self, path: str, table_schema: TableSchema) -> None:
        self.path = path
        self.rows_written = 0
        self._text = [column.dtype == "text" for column in table_schema.columns]
        self._first = True
        self._handle = open(path, "w", encoding="utf-8")
        names = json.dumps(list(table_schema.column_names))
        self._handle.write(
            '{"kind": "repro_json_columns", "columns": ' + names + ', "batches": ['
        )

    def write_batch(self, batch: ColumnBatch) -> None:
        encoded = []
        for is_text, cells in zip(self._text, batch.columns):
            if is_text and _should_dict_encode(cells):
                encoded.append(_dict_encode_column(cells))
            else:
                encoded.append(cells)
        if not self._first:
            self._handle.write(", ")
        self._first = False
        json.dump(encoded, self._handle)
        self.rows_written += batch.num_rows

    def close(self) -> None:
        self._handle.write('], "rows": %d}\n' % self.rows_written)
        self._handle.close()

    def abort(self) -> None:
        try:
            self._handle.close()
        except Exception:
            pass


class _ArrowIpcWriter:  # pragma: no cover - needs pyarrow
    """Arrow IPC file writer; text columns dictionary-encoded with deltas.

    Each batch's dictionary prefix-extends the previous one (a growing
    value→code map per column), so the stream is written with
    ``emit_dictionary_deltas`` and every record batch shares one coherent
    dictionary per field.
    """

    def __init__(self, path: str, table: str, table_schema: TableSchema) -> None:
        assert _pa is not None
        self.path = path
        self.table = table
        self.rows_written = 0
        type_map = {"text": _pa.string(), "integer": _pa.int64(), "real": _pa.float64()}
        fields = []
        for column in table_schema.columns:
            dtype = type_map[column.dtype]
            if column.dtype == "text":
                dtype = _pa.dictionary(_pa.int32(), _pa.string())
            fields.append(_pa.field(column.name, dtype, nullable=True))
        self._schema = _pa.schema(fields)
        self._plain_types = [type_map[c.dtype] for c in table_schema.columns]
        self._is_text = [c.dtype == "text" for c in table_schema.columns]
        self._dict_values: Dict[int, list] = {}
        self._dict_index: Dict[int, dict] = {}
        self._sink = _pa.OSFile(path, "wb")
        options = _pa.ipc.IpcWriteOptions(emit_dictionary_deltas=True)
        self._writer = _pa.ipc.new_file(self._sink, self._schema, options=options)

    def _array(self, index: int, cells: list):
        if self._is_text[index]:
            values = self._dict_values.setdefault(index, [])
            codes_for = self._dict_index.setdefault(index, {})
            codes: List[Optional[int]] = []
            for value in cells:
                if value is None:
                    codes.append(None)
                    continue
                code = codes_for.get(value)
                if code is None:
                    code = len(values)
                    codes_for[value] = code
                    values.append(value)
                codes.append(code)
            return _pa.DictionaryArray.from_arrays(
                _pa.array(codes, type=_pa.int32()),
                _pa.array(values, type=_pa.string()),
            )
        try:
            return _pa.array(cells, type=self._plain_types[index])
        except (_pa.ArrowInvalid, _pa.ArrowTypeError) as error:
            name = self._schema.field(index).name
            raise ColumnarBackendError(
                f"column {self.table}.{name} does not fit declared type "
                f"{self._plain_types[index]}: {error}"
            ) from error

    def write_batch(self, batch: ColumnBatch) -> None:
        arrays = [self._array(i, cells) for i, cells in enumerate(batch.columns)]
        self._writer.write_batch(
            _pa.RecordBatch.from_arrays(arrays, schema=self._schema)
        )
        self.rows_written += batch.num_rows

    def close(self) -> None:
        self._writer.close()
        self._sink.close()

    def abort(self) -> None:
        for closer in (self._writer.close, self._sink.close):
            try:
                closer()
            except Exception:
                pass


class _ParquetWriter:  # pragma: no cover - needs pyarrow
    """Parquet writer: one row group per sealed batch, native dictionary pages."""

    def __init__(self, path: str, table: str, table_schema: TableSchema) -> None:
        assert _pa is not None
        import pyarrow.parquet as pq

        self.path = path
        self.table = table
        self.rows_written = 0
        type_map = {"text": _pa.string(), "integer": _pa.int64(), "real": _pa.float64()}
        self._schema = _pa.schema(
            _pa.field(c.name, type_map[c.dtype], nullable=True)
            for c in table_schema.columns
        )
        self._types = [type_map[c.dtype] for c in table_schema.columns]
        text_columns = [c.name for c in table_schema.columns if c.dtype == "text"]
        self._writer = pq.ParquetWriter(path, self._schema, use_dictionary=text_columns)

    def write_batch(self, batch: ColumnBatch) -> None:
        arrays = []
        for index, cells in enumerate(batch.columns):
            try:
                arrays.append(_pa.array(cells, type=self._types[index]))
            except (_pa.ArrowInvalid, _pa.ArrowTypeError) as error:
                name = self._schema.field(index).name
                raise ColumnarBackendError(
                    f"column {self.table}.{name} does not fit declared type "
                    f"{self._types[index]}: {error}"
                ) from error
        self._writer.write_table(_pa.Table.from_arrays(arrays, schema=self._schema))
        self.rows_written += batch.num_rows

    def close(self) -> None:
        self._writer.close()

    def abort(self) -> None:
        try:
            self._writer.close()
        except Exception:
            pass


class ColumnarBackend(ExecutionBackend):
    """Land migrated rows as column-major batches (and optionally files).

    Parameters
    ----------
    directory:
        Output directory for the per-table files and the manifest.  ``None``
        (the default) keeps the batches in memory only — useful for parity
        checks and for handing batches to an in-process consumer.
    batch_size:
        Rows per sealed :class:`ColumnBatch` (and per Arrow record batch).
    file_format:
        ``"arrow"``, ``"parquet"``, ``"json"``, or ``None`` to pick
        ``"arrow"`` when pyarrow is importable and ``"json"`` otherwise.
        Asking for an Arrow-family format without pyarrow raises
        :class:`ColumnarBackendError` immediately (not at :meth:`finalize`).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        batch_size: int = 8192,
        file_format: Optional[str] = None,
    ) -> None:
        if file_format is not None and file_format not in FILE_FORMATS:
            raise ColumnarBackendError(
                f"unknown file format {file_format!r} (available: {', '.join(FILE_FORMATS)})"
            )
        if file_format in ("arrow", "parquet") and not HAVE_PYARROW:
            raise ColumnarBackendError(
                f"file format {file_format!r} needs pyarrow "
                f"(pip install repro[columnar]); use file_format='json' for "
                f"the pure-python fallback"
            )
        self.directory = directory
        self.batch_size = max(1, batch_size)
        self.file_format = file_format or ("arrow" if HAVE_PYARROW else "json")
        self.schema: Optional[DatabaseSchema] = None
        self._buffers: Dict[str, _TableBuffer] = {}
        self._writers: Dict[str, object] = {}
        self._written_paths: List[str] = []
        self._finalized = False

    # ------------------------------------------------------------ lifecycle
    def begin(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._finalized = False
        self._writers = {}
        self._written_paths = []
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
        self._buffers = {}
        for table in schema.tables:
            on_seal = None
            if self.directory is not None:
                writer = self._make_writer(table.name)
                self._writers[table.name] = writer
                on_seal = writer.write_batch
            self._buffers[table.name] = _TableBuffer(
                list(table.column_names), self.batch_size, on_seal=on_seal
            )

    def _make_writer(self, table: str):
        assert self.schema is not None and self.directory is not None
        path = os.path.join(self.directory, self._table_filename(table))
        table_schema = self.schema.table(table)
        try:
            if self.file_format == "json":
                writer = _JsonColumnsWriter(path, table_schema)
            elif self.file_format == "parquet":  # pragma: no cover - needs pyarrow
                writer = _ParquetWriter(path, table, table_schema)
            else:  # pragma: no cover - needs pyarrow
                writer = _ArrowIpcWriter(path, table, table_schema)
        except ColumnarBackendError:
            raise
        except Exception as error:
            raise ColumnarBackendError(f"cannot open writer for {path}: {error}") from error
        self._written_paths.append(path)
        return writer

    def insert_rows(self, table: str, rows: Iterable[Row]) -> int:
        buffer = self._buffers.get(table)
        if buffer is None:
            raise ColumnarBackendError(f"unknown table {table!r} (begin() not called?)")
        before = buffer.total_rows
        for row in rows:
            buffer.append(tuple(row))
        return buffer.total_rows - before

    def finalize(self) -> None:
        if self.schema is None:
            raise ColumnarBackendError("begin() was not called")
        for buffer in self._buffers.values():
            buffer.seal()
        if self.directory is not None:
            self._close_writers()
            self._write_manifest()
        self._finalized = True

    def _close_writers(self) -> None:
        for table, writer in self._writers.items():
            try:
                writer.close()
            except ColumnarBackendError:
                raise
            except Exception as error:
                raise ColumnarBackendError(
                    f"closing writer for table {table!r} failed: {error}"
                ) from error
        self._writers = {}

    def _write_manifest(self) -> None:
        assert self.schema is not None and self.directory is not None
        manifest: Dict[str, object] = {
            "kind": "repro_columnar_output",
            "format": self.file_format,
            "database": self.schema.name,
            "tables": {},
        }
        for table_schema in self.schema.tables:
            buffer = self._buffers[table_schema.name]
            manifest["tables"][table_schema.name] = {
                "file": self._table_filename(table_schema.name),
                "rows": buffer.total_rows,
                "columns": list(buffer.column_names),
            }
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        self._written_paths.append(manifest_path)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def close(self) -> None:
        """Release resources; called before ``finalize``, this is an abort.

        An aborted file-backed run closes its writers and removes every file
        *this run* created (partial table files, and the manifest if one was
        written), so a degraded run never leaves a manifest pointing at
        unreadable files — ``read_table_rows`` on the directory raises a
        clean "cannot read manifest" error instead.  Idempotent.
        """
        if self.schema is not None and not self._finalized and self._written_paths:
            for writer in self._writers.values():
                writer.abort()
            self._writers = {}
            for path in self._written_paths:
                try:
                    os.remove(path)
                except OSError:
                    pass
            self._written_paths = []
        self._writers = {}

    # -------------------------------------------------------------- queries
    def batches(self, table: str) -> List[ColumnBatch]:
        """The sealed column batches of a table (complete after finalize).

        In-memory runs only: a file-backed run streams its batches to disk
        as they seal — read them back with :func:`load_table_rows`.
        """
        if self.directory is not None:
            raise ColumnarBackendError(
                "batches are streamed to disk in a file-backed run; "
                "use load_table_rows(directory, table)"
            )
        return list(self._buffers[table].batches)

    def fetch_rows(self, table: str) -> List[Row]:
        buffer = self._buffers[table]
        if self.directory is not None:
            if not self._finalized:
                raise ColumnarBackendError(
                    "rows are spilled to disk in a file-backed run; "
                    "fetch_rows is available after finalize()"
                )
            return load_table_rows(self.directory, table)
        rows: List[Row] = []
        for batch in buffer.batches:
            rows.extend(batch.rows())
        if not self._finalized:  # include the open batch mid-execution
            rows.extend(zip(*buffer._open) if buffer._open and buffer._open[0] else ())
        return rows

    def row_count(self, table: str) -> int:
        return self._buffers[table].total_rows

    # --------------------------------------------------------------- output
    def output_filenames(self) -> List[str]:
        """The file names this backend writes into its output directory.

        Lets a caller clean up exactly this run's artifacts (and nothing
        else) after a failure inside a directory it does not own.
        """
        names = [MANIFEST_NAME]
        if self.schema is not None:
            names.extend(self._table_filename(t.name) for t in self.schema.tables)
        return names

    def _table_filename(self, table: str) -> str:
        suffix = {"arrow": ".arrow", "parquet": ".parquet", "json": ".columns.json"}
        return table + suffix[self.file_format]


def read_table_rows(directory: str, schema: DatabaseSchema) -> Dict[str, List[Row]]:
    """Read a finished columnar target back for verification.

    The read-side hook mirroring :func:`repro.runtime.backends.sqlite.
    read_table_rows`: every schema table present in the output manifest is
    loaded via :func:`load_table_rows`; tables absent from the manifest are
    omitted (the verifier reports them as failures).  A missing or corrupt
    manifest raises :class:`ColumnarBackendError`.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ColumnarBackendError(f"cannot read {manifest_path}: {error}") from error
    present = manifest.get("tables", {})
    return {
        table.name: load_table_rows(directory, table.name)
        for table in schema.tables
        if table.name in present
    }


def load_table_rows(directory: str, table: str) -> List[Row]:
    """Read one table of a columnar output directory back as row tuples.

    Dispatches on the manifest's recorded format; reading Arrow or Parquet
    output needs pyarrow (the JSON fallback needs nothing).  JSON columns
    may be dictionary-encoded (``{"d": values, "c": codes}``); both the
    encoded and the plain layout decode to the same rows.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ColumnarBackendError(f"cannot read {manifest_path}: {error}") from error
    entry = manifest.get("tables", {}).get(table)
    if entry is None:
        raise ColumnarBackendError(f"table {table!r} not in {manifest_path}")
    path = os.path.join(directory, entry["file"])
    fmt = manifest.get("format")
    if fmt == "json":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        rows: List[Row] = []
        for encoded in payload["batches"]:
            columns = [_decode_json_column(entry) for entry in encoded]
            rows.extend(zip(*columns) if columns else ())
        return rows
    if fmt in ("arrow", "parquet"):  # pragma: no cover - needs pyarrow
        if not HAVE_PYARROW:
            raise ColumnarBackendError(
                f"reading {fmt} output needs pyarrow (pip install repro[columnar])"
            )
        if fmt == "parquet":
            import pyarrow.parquet as pq

            arrow_table = pq.read_table(path)
        else:
            with _pa.memory_map(path, "r") as source:
                arrow_table = _pa.ipc.open_file(source).read_all()
        columns = [column.to_pylist() for column in arrow_table.columns]
        return [tuple(row) for row in zip(*columns)] if columns else []
    raise ColumnarBackendError(f"unknown columnar format {fmt!r} in manifest")
