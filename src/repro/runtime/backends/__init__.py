"""Pluggable storage backends for plan execution.

Every execution mode (whole-tree, streamed, sharded) lands rows through the
:class:`~repro.runtime.backends.base.ExecutionBackend` protocol; this package
holds the protocol and the four shipped implementations, plus a small
registry so callers (notably the CLI) can construct backends by name:

>>> from repro.runtime.backends import available_backends, create_backend
>>> available_backends()
('memory', 'sqlite', 'columnar', 'duckdb')
>>> create_backend("memory").__class__.__name__
'MemoryBackend'

``duckdb`` is always *registered* (so ``--backend duckdb`` is a recognized
name everywhere), but constructing it without the optional ``duckdb``
package raises :class:`~repro.runtime.backends.duckdb.DuckDBBackendError`
pointing at the ``repro[duckdb]`` extra — the same guarded-import pattern
the columnar backend uses for pyarrow.

The protocol, ordering guarantees and backend trade-offs are documented in
``docs/backends.md``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .base import ExecutionBackend, Row
from .columnar import (
    HAVE_PYARROW,
    ColumnarBackend,
    ColumnarBackendError,
    ColumnBatch,
    load_table_rows,
)
from .duckdb import HAVE_DUCKDB, DuckDBBackend, DuckDBBackendError
from .memory import MemoryBackend
from .null import NullBackend
from .sqlite import (
    SQLiteBackend,
    SQLiteBackendError,
    database_matches_sqlite,
    load_database,
)

#: Backend names accepted by :func:`create_backend` (and ``repro run --backend``).
BACKEND_NAMES: Tuple[str, ...] = ("memory", "sqlite", "columnar", "duckdb")

#: Which named backends write to ``output`` — a file for sqlite/duckdb, a
#: directory for columnar.  The memory backend rejects an output path.
OUTPUT_KIND = {"memory": None, "sqlite": "file", "columnar": "directory", "duckdb": "file"}


def available_backends() -> Tuple[str, ...]:
    """The backend names :func:`create_backend` accepts, in doc order."""
    return BACKEND_NAMES


def create_backend(name: str, output: Optional[str] = None, **options) -> ExecutionBackend:
    """Construct a backend by registry name.

    ``output`` is the sqlite/duckdb database path or the columnar output
    directory; it must be ``None`` for the memory backend (which produces no
    artifact) and is required for sqlite and duckdb.  Extra keyword
    ``options`` pass through to the backend constructor (``batch_size``,
    ``file_format``, ``spill``, ``apply_indexes``, ...).
    """
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r} (available: {', '.join(BACKEND_NAMES)})"
        )
    if name == "memory":
        if output is not None:
            raise ValueError("the memory backend takes no output path")
        return MemoryBackend(**options)
    if name == "sqlite":
        if output is None:
            raise ValueError("the sqlite backend needs an output path")
        return SQLiteBackend(output, **options)
    if name == "duckdb":
        if output is None:
            raise ValueError("the duckdb backend needs an output path")
        return DuckDBBackend(output, **options)
    return ColumnarBackend(output, **options)


__all__ = [
    "ExecutionBackend",
    "Row",
    "MemoryBackend",
    "NullBackend",
    "SQLiteBackend",
    "SQLiteBackendError",
    "database_matches_sqlite",
    "load_database",
    "ColumnarBackend",
    "ColumnarBackendError",
    "ColumnBatch",
    "HAVE_PYARROW",
    "load_table_rows",
    "DuckDBBackend",
    "DuckDBBackendError",
    "HAVE_DUCKDB",
    "BACKEND_NAMES",
    "OUTPUT_KIND",
    "available_backends",
    "create_backend",
]
